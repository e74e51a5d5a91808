"""Integration tests for the production-MPI baseline model."""

import numpy as np
import pytest

from repro.mpi.baseline import BaselineCommunicator, BaselineConfig, BaselineRuntime
from repro.network import Cluster, ClusterSpec
from repro.sim import Interrupt
from repro.storm import JobSpec
from repro.units import KiB, MiB, seconds, us


def run_app(app, n_ranks=4, n_nodes=4, config=None, **params):
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes))
    runtime = BaselineRuntime(cluster, config or BaselineConfig(init_cost=0))
    job = runtime.run_job(
        JobSpec(app=app, n_ranks=n_ranks, params=params), max_time=seconds(30)
    )
    return job, runtime


def test_eager_send_recv_roundtrip():
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(np.arange(16.0), dest=1, tag=4)
            got = yield from ctx.comm.recv(source=1, tag=5)
            return got.tolist()
        data = yield from ctx.comm.recv(source=0, tag=4)
        yield from ctx.comm.send(data * 2, dest=0, tag=5)

    job, runtime = run_app(app, n_ranks=2, n_nodes=2)
    assert job.results[0] == (np.arange(16.0) * 2).tolist()
    assert runtime.stats["eager"] == 2
    assert runtime.stats["rendezvous"] == 0


def test_large_message_uses_rendezvous():
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(None, dest=1, size=1 * MiB)
        else:
            yield from ctx.comm.recv(source=0, size=1 * MiB)

    _, runtime = run_app(app, n_ranks=2, n_nodes=2)
    assert runtime.stats["rendezvous"] == 1


def test_eager_threshold_configurable():
    cfg = BaselineConfig(init_cost=0, eager_threshold=128)

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(None, dest=1, size=256)
        else:
            yield from ctx.comm.recv(source=0, size=256)

    _, runtime = run_app(app, n_ranks=2, n_nodes=2, config=cfg)
    assert runtime.stats["rendezvous"] == 1


def test_p2p_latency_is_microseconds_not_slices():
    """The baseline has no slice quantization: small messages fly in ~us."""
    delays = []

    def app(ctx):
        t0 = ctx.now
        if ctx.rank == 0:
            yield from ctx.comm.send(None, dest=1, size=64)
        else:
            yield from ctx.comm.recv(source=0, size=64)
        delays.append(ctx.now - t0)

    run_app(app, n_ranks=2, n_nodes=2)
    assert max(delays) < us(50)  # vs >= 500 us under BCS


def test_rendezvous_waits_for_receiver():
    """A rendezvous send cannot complete before the receive is posted."""
    times = {}

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(None, dest=1, size=1 * MiB)
            times["send_done"] = ctx.now
        else:
            yield from ctx.compute(us(3000))  # receiver shows up late
            times["recv_posted"] = ctx.now
            yield from ctx.comm.recv(source=0, size=1 * MiB)

    run_app(app, n_ranks=2, n_nodes=2)
    assert times["send_done"] > times["recv_posted"]


def test_unexpected_eager_message_buffered():
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(np.arange(8.0), dest=1, tag=9)
        else:
            yield from ctx.compute(us(2000))  # message arrives before recv
            got = yield from ctx.comm.recv(source=0, tag=9)
            return got.tolist()

    job, _ = run_app(app, n_ranks=2, n_nodes=2)
    assert job.results[1] == list(np.arange(8.0))


def test_barrier_and_collectives():
    def app(ctx):
        yield from ctx.comm.barrier()
        v = yield from ctx.comm.bcast(b"payload" if ctx.rank == 1 else None, root=1)
        s = yield from ctx.comm.allreduce(np.float64(ctx.rank + 1), "sum")
        r = yield from ctx.comm.reduce(np.float64(2.0), "prod", root=0)
        return (v, float(s), None if r is None else float(r))

    job, _ = run_app(app)
    assert all(r[0] == b"payload" for r in job.results)
    assert all(r[1] == 10.0 for r in job.results)
    assert job.results[0][2] == 16.0
    assert all(r[2] is None for r in job.results[1:])


def test_barrier_cost_is_small():
    def app(ctx):
        t0 = ctx.now
        yield from ctx.comm.barrier()
        return ctx.now - t0

    job, _ = run_app(app, n_ranks=8, n_nodes=4)
    assert max(job.results) < us(100)


def test_composed_collectives_match_bcs_semantics():
    def app(ctx):
        mine = yield from ctx.comm.scatter(
            list(range(ctx.size)) if ctx.rank == 0 else None, root=0
        )
        total = yield from ctx.comm.gather(mine * 2, root=0)
        ag = yield from ctx.comm.allgather(ctx.rank)
        return (mine, total, ag)

    job, _ = run_app(app)
    assert [r[0] for r in job.results] == [0, 1, 2, 3]
    assert job.results[0][1] == [0, 2, 4, 6]
    assert all(r[2] == [0, 1, 2, 3] for r in job.results)


def test_sub_communicator_split():
    def app(ctx):
        odds = [r for r in range(ctx.size) if r % 2 == 1]
        sub = ctx.comm.split(odds)
        if sub is None:
            return None
        total = yield from sub.allreduce(np.float64(ctx.rank), "sum")
        return float(total)

    job, _ = run_app(app, n_ranks=6, n_nodes=3)
    assert job.results[1] == 1.0 + 3.0 + 5.0
    assert job.results[0] is None


def test_message_ordering_preserved():
    def app(ctx):
        if ctx.rank == 0:
            for i in range(8):
                yield from ctx.comm.send(np.array([i]), dest=1, tag=0)
        else:
            out = []
            for _ in range(8):
                v = yield from ctx.comm.recv(source=0, tag=0)
                out.append(int(v[0]))
            return out

    job, _ = run_app(app, n_ranks=2, n_nodes=2)
    assert job.results[1] == list(range(8))


def test_no_async_progress_rendezvous_exposed_in_wait():
    """A large irecv posted before a long compute moves its data only in
    MPI_Wait (no progress thread) — the overlap BCS-MPI wins on."""
    exposed = {}

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(None, dest=1, size=4 * MiB)
        else:
            req = ctx.comm.irecv(source=0, size=4 * MiB)
            yield from ctx.compute(us(20_000))  # plenty to hide 4 MiB
            t0 = ctx.now
            yield from ctx.comm.wait(req)
            exposed["wait"] = ctx.now - t0

    run_app(app, n_ranks=2, n_nodes=2)
    # ~13 ms of transfer at 305 MB/s was NOT hidden by the computation.
    assert exposed["wait"] > us(8_000)


def test_eager_messages_do_progress_asynchronously():
    exposed = {}

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(None, dest=1, size=8 * KiB)
        else:
            req = ctx.comm.irecv(source=0, size=8 * KiB)
            yield from ctx.compute(us(5_000))
            t0 = ctx.now
            yield from ctx.comm.wait(req)
            exposed["wait"] = ctx.now - t0

    run_app(app, n_ranks=2, n_nodes=2)
    assert exposed["wait"] < us(100)


def test_rank_validation_matches_bcs():
    def app(ctx):
        with pytest.raises(ValueError):
            ctx.comm.isend(None, dest=99, size=8)
        with pytest.raises(ValueError):
            ctx.comm.irecv(source=99, size=8)
        yield ctx.env.timeout(1)

    run_app(app, n_ranks=2, n_nodes=2)


def test_config_with_replaces_fields():
    cfg = BaselineConfig().with_(eager_threshold=1024, init_cost=0)
    assert cfg.eager_threshold == 1024
    assert cfg.init_cost == 0
    assert BaselineConfig().eager_threshold != 1024


# -- the library section --------------------------------------------------------


class _DepthRecorder(BaselineRuntime):
    """Records each process's deepest library nesting, and its depth after
    its last library exit."""

    def __init__(self, cluster, config):
        super().__init__(cluster, config)
        self.deepest = {}
        self.last_exit = {}

    def enter_mpi(self, job_id, world_rank):
        super().enter_mpi(job_id, world_rank)
        depth = self._in_mpi[(job_id, world_rank)]
        self.deepest[world_rank] = max(self.deepest.get(world_rank, 0), depth)

    def exit_mpi(self, job_id, world_rank):
        super().exit_mpi(job_id, world_rank)
        self.last_exit[world_rank] = self._in_mpi[(job_id, world_rank)]


def test_library_depth_unwinds_after_nested_allreduce():
    """allreduce -> _tree_reduce -> recv/send nest library sections; every
    rank leaves the library at depth 0, having been deeper than 1."""

    def app(ctx):
        total = yield from ctx.comm.allreduce(np.float64(ctx.rank), "sum")
        return float(total)

    runtime = _DepthRecorder(Cluster(ClusterSpec(n_nodes=2)), BaselineConfig(init_cost=0))
    job = runtime.run_job(JobSpec(app=app, n_ranks=4), max_time=seconds(30))
    assert job.results == [6.0] * 4
    assert [runtime.last_exit[r] for r in range(4)] == [0] * 4
    assert all(runtime.deepest[r] >= 2 for r in range(4))


def test_finished_job_leaves_no_library_state():
    """Each barrier and broadcast instance leaves the table once every
    rank has reached it, and a completed job leaves no per-process entry."""

    def app(ctx):
        for step in range(100):
            yield from ctx.comm.allreduce(np.float64(step), "sum")
            yield from ctx.comm.barrier()

    job, runtime = run_app(app, n_ranks=8, n_nodes=4)
    assert job.complete
    assert runtime.stats["barriers"] == 100 * 8
    assert runtime.coll_state == {}
    assert runtime._in_mpi == {}
    assert runtime._mpi_entry == {}
    assert runtime.matchers == {}


def test_interrupted_recv_leaves_the_library():
    """An Interrupt thrown into a rank blocked in recv unwinds its section:
    the depth reads 0 in the handler, and again after a closed call."""
    seen = {}

    def app(ctx):
        if ctx.rank == 0:
            yield ctx.env.timeout(us(50))
            return None
        runtime = ctx.comm._runtime
        key = (ctx.job.id, ctx.rank)

        def blocked():
            try:
                yield from ctx.comm.recv(source=0, tag=7)
            except Interrupt as exc:
                seen["cause"] = exc.cause
                seen["after"] = runtime._in_mpi[key]

        victim = ctx.env.process(blocked())
        yield ctx.env.timeout(us(20))
        seen["blocked"] = runtime._in_mpi[key]
        victim.interrupt("stop")
        yield victim
        # A call abandoned mid-way (GeneratorExit) unwinds as well.
        call = ctx.comm.recv(source=0, tag=8)
        next(call)
        seen["open"] = runtime._in_mpi[key]
        call.close()
        seen["closed"] = runtime._in_mpi[key]

    run_app(app, n_ranks=2, n_nodes=2)
    assert seen == {"blocked": 1, "cause": "stop", "after": 0, "open": 1, "closed": 0}


def test_interrupted_waitall_is_not_resumed():
    """An Interrupt thrown into a rank blocked in waitall unwinds its
    section; the requests it waited on complete later without resuming
    it or crashing the run, and a later wait on one of them works."""
    seen = {}

    def app(ctx):
        if ctx.rank == 0:
            yield ctx.env.timeout(us(50))
            yield from ctx.comm.send(np.arange(4.0), dest=1, tag=7)
            yield from ctx.comm.send(None, dest=1, tag=8, size=64 * KiB)
            yield from ctx.comm.send(b"late", dest=1, tag=9)
            return None
        runtime = ctx.comm._runtime
        key = (ctx.job.id, ctx.rank)
        reqs = [ctx.comm.irecv(source=0, tag=tag) for tag in (7, 8, 9)]

        def blocked():
            try:
                yield from ctx.comm.waitall(reqs)
                seen["resumed"] = ctx.now
            except Interrupt as exc:
                seen["cause"] = exc.cause
                seen["after"] = runtime._in_mpi[key]
            yield ctx.env.timeout(us(500))
            seen["slept_to"] = ctx.now

        victim = ctx.env.process(blocked())
        yield ctx.env.timeout(us(20))
        seen["blocked"] = runtime._in_mpi[key]
        victim.interrupt("stop")
        yield ctx.env.timeout(us(80))
        # Only the first eager message has arrived; the rendezvous one
        # waits for this rank to enter the library.
        seen["done_early"] = [r.complete for r in reqs]
        yield from ctx.comm.wait(reqs[1])
        yield from ctx.comm.wait(reqs[2])
        seen["depth"] = runtime._in_mpi[key]
        yield victim
        return [reqs[0].payload.tolist(), reqs[1].size, reqs[2].payload]

    job, _ = run_app(app, n_ranks=2, n_nodes=2)
    assert job.results[1] == [[0.0, 1.0, 2.0, 3.0], 64 * KiB, b"late"]
    assert seen == {
        "blocked": 1,
        "cause": "stop",
        "after": 0,
        "done_early": [True, False, False],
        "depth": 0,
        "slept_to": us(520),
    }


def test_entering_the_library_unwatched_schedules_nothing():
    """An MPI entry pulses the entry signal only for a waiting transfer."""
    cluster = Cluster(ClusterSpec(n_nodes=2))
    runtime = BaselineRuntime(cluster, BaselineConfig(init_cost=0))
    env = cluster.env
    queued = len(env._queue)
    runtime.enter_mpi(7, 0)  # no signal yet
    runtime.exit_mpi(7, 0)
    assert len(env._queue) == queued
    runtime._entry_signal(7, 0)  # a signal with no waiters
    runtime.enter_mpi(7, 0)
    runtime.exit_mpi(7, 0)
    assert len(env._queue) == queued
    woken = runtime._entry_signal(7, 0).wait()
    runtime.enter_mpi(7, 0)
    assert len(env._queue) == queued + 1
    env.run()
    assert woken.processed


# -- communicator numbering -----------------------------------------------------


def test_communicators_numbered_per_job_in_registration_order():
    cluster = Cluster(ClusterSpec(n_nodes=4))
    runtime = BaselineRuntime(cluster, BaselineConfig(init_cost=0))

    def idle(ctx):
        yield ctx.env.timeout(1)

    jobs = [runtime.launch(JobSpec(app=idle, n_ranks=4)) for _ in range(2)]
    worlds = [BaselineCommunicator(runtime, runtime.comm_info(j.id, 0), 0) for j in jobs]
    a, b = jobs
    order = [(a, [0, 1]), (b, [0, 2]), (b, [0, 3]), (a, [0, 2, 3]), (b, [0, 1])]
    made = [worlds[jobs.index(job)].split(members)._info for job, members in order]
    assert [(info.job.id, info.comm_id) for info in made] == [
        (a.id, 1), (b.id, 1), (b.id, 2), (a.id, 2), (b.id, 3),
    ]
    for info in made:
        assert runtime.comm_info(info.job.id, info.comm_id) is info
    # Re-registering the same members returns the same communicator.
    again = runtime.register_comm(b, [0, 2])
    assert again is made[1]
    assert worlds[0].split([0, 1])._info is made[0]
    assert runtime.register_comm(a, range(4)) is runtime.comm_info(a.id, 0)
