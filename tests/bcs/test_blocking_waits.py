"""Awkward paths of a BCS blocking wait.

A blocked rank is restarted by the Node Manager at the first slice
boundary after its last pending request completes.  These cases pin the
edges of that rule: duplicate handles, a mix of completed and pending
handles, a rank killed while blocked, and a request that completed with
nobody waiting on it.

A wait first pays the host overhead of the rank's posts.  While no
Strobe Receiver can run before that overhead has passed, or when every
pending request was posted after the slice's DEM cutoff and the overhead
ends before the next boundary, the rank blocks at once instead
(post-then-block); the last three cases pin that fold's edges.
"""

import pytest

from repro.bcs import BcsConfig, BcsRuntime
from repro.network import Cluster, ClusterSpec
from repro.sim import Timeout
from repro.storm import JobSpec
from repro.units import ms, seconds, us


def _runtime(n_nodes=2):
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes))
    return BcsRuntime(cluster, BcsConfig(init_cost=0))


def test_waitall_on_a_duplicated_handle():
    runtime = _runtime()
    restarts = []

    def app(ctx):
        comm = ctx.comm
        if comm.rank == 0:
            yield from ctx.compute(us(700))
            yield from comm.send(b"dup", dest=1, tag=3)
            return None
        req = comm.irecv(source=0, tag=3)
        payloads = yield from comm.waitall([req, req])
        restarts.append((ctx.now, runtime.slice_start_time))
        return payloads

    job = runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(1))
    assert job.results[1] == [b"dup", b"dup"]
    ((now, boundary),) = restarts
    assert now == boundary


def test_waitall_over_a_completed_and_a_pending_request():
    runtime = _runtime()
    log = []

    def app(ctx):
        comm = ctx.comm
        if comm.rank == 0:
            yield from comm.send(b"first", dest=1, tag=1)
            yield from ctx.compute(ms(2))
            yield from comm.send(b"second", dest=1, tag=2)
            return None
        first = comm.irecv(source=0, tag=1)
        second = comm.irecv(source=0, tag=2)
        yield from comm.wait(first)
        assert first.complete and not second.complete
        t0 = ctx.now
        payloads = yield from comm.waitall([first, second])
        log.append((t0, ctx.now, runtime.slice_start_time))
        return payloads

    job = runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(1))
    assert job.results[1] == [b"first", b"second"]
    ((t0, now, boundary),) = log
    # Blocked on the pending one, restarted at a slice boundary.
    assert now > t0 + ms(1)
    assert now == boundary


def test_killed_rank_blocked_in_a_wait_is_never_resumed():
    runtime = _runtime()
    env = runtime.env
    reqs = {}
    resumed = []

    def app(ctx):
        comm = ctx.comm
        if comm.rank == 1:
            req = comm.irecv(source=0, tag=9)
            reqs["recv"] = req
            yield from comm.wait(req)
            resumed.append(ctx.now)
            return "resumed"
        yield from ctx.compute(seconds(1))
        return None

    job = runtime.launch(JobSpec(app=app, n_ranks=2))
    env.run(until=ms(3))
    blocked = runtime.rank_procs[(job.id, 1)]
    assert blocked.is_alive and blocked.target is not None
    runtime.kill_job(job, cause="test")
    env.run(until=ms(5))
    assert job.is_failed
    assert not blocked.is_alive
    assert runtime.stats["ranks_killed"] == 2

    # A late completion of the dead rank's request must not wake it.
    late = reqs["recv"]
    assert not late.complete
    late._finish()
    env.run(until=ms(10))
    assert late.complete
    assert resumed == []
    assert not blocked.is_alive
    assert not blocked.is_alive


def test_buffered_send_waited_after_it_completed_returns_at_once():
    runtime = _runtime()
    log = []

    def app(ctx):
        comm = ctx.comm
        if comm.rank == 0:
            req = comm.isend(b"buffered", dest=1)
            # Buffered sends complete at post; nothing waits on it yet.
            assert req.complete
            yield from ctx.compute(ms(1))
            t0 = ctx.now
            yield from comm.wait(req)
            log.append((t0, ctx.now))
            return None
        payload = yield from comm.recv(source=0)
        return payload

    job = runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(1))
    assert job.results[1] == b"buffered"
    ((t0, now),) = log
    assert now == t0


def test_rank_killed_inside_a_folded_overhead_window_is_never_resumed():
    runtime = _runtime()
    env = runtime.env
    cost = runtime.config.descriptor_post_cost
    seen = {}
    resumed = []

    def killer(t_post):
        yield env.timeout(cost // 2)
        proc = seen["proc"] = runtime.rank_procs[(seen["job"].id, 1)]
        # Mid-slice, in the slice-end sleep: the rank blocked at its
        # post instead of sleeping off its overhead first.
        assert t_post + cost < runtime.sr_idle_until
        assert proc.target is not None and not isinstance(proc.target, Timeout)
        runtime.kill_job(seen["job"], cause="test")

    def app(ctx):
        comm = ctx.comm
        if comm.rank == 1:
            yield from ctx.compute(us(100))
            req = comm.irecv(source=0, tag=9)
            seen["recv"] = req
            env.process(killer(ctx.now))
            yield from comm.wait(req)
            resumed.append(ctx.now)
            return "resumed"
        yield from ctx.compute(seconds(1))
        return None

    job = seen["job"] = runtime.launch(JobSpec(app=app, n_ranks=2))
    env.run(until=ms(3))
    blocked = seen["proc"]
    assert job.is_failed
    assert not blocked.is_alive
    assert runtime.stats["ranks_killed"] == 2

    # A late completion of the dead rank's request must not wake it.
    late = seen["recv"]
    assert not late.complete
    late._finish()
    env.run(until=ms(10))
    assert late.complete
    assert resumed == []
    assert not blocked.is_alive


def test_wait_on_completed_requests_still_pays_the_post_overhead():
    runtime = _runtime()
    cost = runtime.config.descriptor_post_cost
    log = []

    def app(ctx):
        comm = ctx.comm
        if comm.rank == 0:
            yield from ctx.compute(us(100))
            req = comm.isend(b"buffered", dest=1)
            assert req.complete
            t0 = ctx.now
            # The fold's window is open, but nothing is left to block on.
            assert t0 + cost < runtime.sr_idle_until
            yield from comm.wait(req)
            log.append(ctx.now - t0)
            return None
        payload = yield from comm.recv(source=0)
        return payload

    job = runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(1))
    assert job.results[1] == b"buffered"
    assert log == [cost]


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_receive_posted_after_the_dem_cutoff_blocks_at_its_post(engine):
    """A receive posted mid-slice, while the Strobe Receivers still move
    a 64 KiB message, cannot complete before the next boundary: no DEM
    has drained it.  The rank blocks at its post, and is restarted at
    the same boundary as after sleeping off its overhead."""
    cluster = Cluster(ClusterSpec(n_nodes=2))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, engine=engine))
    env = runtime.env
    cost = runtime.config.descriptor_post_cost
    seen = {}

    def look():
        yield env.timeout(cost // 2)
        proc = runtime.rank_procs[(seen["job"].id, 1)]
        seen["blocked"] = proc.target is not None and not isinstance(
            proc.target, Timeout
        )

    def app(ctx):
        comm = ctx.comm
        if comm.rank == 0:
            yield from comm.send(bytes(64 * 1024), dest=1, tag=1)
            yield from comm.send(b"late", dest=1, tag=2)
            return None
        first = comm.irecv(source=0, tag=1)
        yield from ctx.compute(us(520))
        req = comm.irecv(source=0, tag=2)
        t0 = ctx.now + cost
        # Receivers may run during the overhead: the other fold is shut.
        assert runtime.slice_start_time < ctx.now
        assert t0 >= runtime.sr_idle_until
        assert t0 < runtime.slice_start_time + runtime.config.timeslice
        env.process(look())
        late = yield from comm.wait(req)
        seen["restart"] = (ctx.now, runtime.slice_start_time)
        yield from comm.wait(first)
        return bytes(late)

    job = seen["job"] = runtime.launch(JobSpec(app=app, n_ranks=2))
    env.run(until=job.done)
    assert job.results[1] == b"late"
    assert seen["blocked"]
    assert seen["restart"] == (ms(2), ms(2))
