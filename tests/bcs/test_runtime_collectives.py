"""Integration tests: collectives under the BCS runtime (paper §4.4)."""

import numpy as np
import pytest

from repro.bcs import BcsConfig, BcsRuntime
from repro.network import Cluster, ClusterSpec
from repro.storm import JobSpec
from repro.units import KiB, seconds, us


def run_app(app, n_ranks=4, n_nodes=4, config=None, **params):
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes))
    runtime = BcsRuntime(cluster, config or BcsConfig(init_cost=0))
    job = runtime.run_job(
        JobSpec(app=app, n_ranks=n_ranks, params=params), max_time=seconds(30)
    )
    return job, runtime


def test_barrier_synchronizes_all_ranks():
    exit_times = {}

    def app(ctx):
        # Stagger arrivals: the barrier must hold everyone for the last.
        yield from ctx.compute(us(100) * (ctx.rank + 1))
        yield from ctx.comm.barrier()
        exit_times[ctx.rank] = ctx.now

    run_app(app)
    times = set(exit_times.values())
    # Everyone restarts at the same slice boundary.
    assert len(times) == 1


def test_barrier_waits_for_slowest():
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.compute(us(5000))
        t0 = ctx.now
        yield from ctx.comm.barrier()
        return ctx.now - t0

    job, _ = run_app(app)
    # Non-straggler ranks waited at least as long as the straggler's lead.
    assert job.results[1] >= us(4000)


def test_successive_barriers_keep_epochs_separate():
    def app(ctx):
        for _ in range(5):
            yield from ctx.comm.barrier()
        return ctx.now

    job, runtime = run_app(app)
    assert runtime.stats["collectives_scheduled"] == 5
    assert len(set(job.results)) == 1


def test_bcast_delivers_root_payload():
    payload = np.arange(64, dtype=np.float64)

    def app(ctx):
        data = payload if ctx.rank == 2 else None
        got = yield from ctx.comm.bcast(data, root=2)
        return got

    job, _ = run_app(app)
    for r in job.results:
        assert (r == payload).all()


def test_bcast_payloads_are_independent_copies():
    def app(ctx):
        data = np.zeros(4) if ctx.rank == 0 else None
        got = yield from ctx.comm.bcast(data, root=0)
        got[0] = ctx.rank + 100.0
        yield from ctx.comm.barrier()
        return float(got[0])

    job, _ = run_app(app)
    assert job.results == [100.0, 101.0, 102.0, 103.0]


def test_reduce_sum_to_root():
    def app(ctx):
        contrib = np.full(8, float(ctx.rank + 1))
        out = yield from ctx.comm.reduce(contrib, "sum", root=1)
        return None if out is None else out.tolist()

    job, _ = run_app(app)
    assert job.results[0] is None
    assert job.results[2] is None
    assert job.results[1] == [10.0] * 8  # 1+2+3+4


def test_allreduce_everyone_gets_result():
    def app(ctx):
        out = yield from ctx.comm.allreduce(np.array([float(ctx.rank)]), "max")
        return float(out[0])

    job, _ = run_app(app)
    assert job.results == [3.0, 3.0, 3.0, 3.0]


@pytest.mark.parametrize("op,expect", [("sum", 10.0), ("prod", 24.0), ("min", 1.0), ("max", 4.0)])
def test_allreduce_all_ops(op, expect):
    def app(ctx):
        out = yield from ctx.comm.allreduce(np.float64(ctx.rank + 1), op)
        return float(out)

    job, _ = run_app(app)
    assert job.results == [expect] * 4


def test_reduce_root_on_nonzero_node():
    """Binomial tree rotated to a root on another node."""

    def app(ctx):
        out = yield from ctx.comm.reduce(np.float64(1.0), "sum", root=ctx.size - 1)
        return None if out is None else float(out)

    job, _ = run_app(app, n_ranks=8, n_nodes=4)
    assert job.results[-1] == 8.0
    assert all(r is None for r in job.results[:-1])


def test_collectives_and_p2p_interleave():
    def app(ctx):
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        for i in range(3):
            s = ctx.comm.isend(np.array([ctx.rank + i]), dest=right, tag=i)
            r = ctx.comm.irecv(source=left, tag=i)
            yield from ctx.comm.waitall([s, r])
            total = yield from ctx.comm.allreduce(np.float64(r.payload[0]), "sum")
        return float(total)

    job, _ = run_app(app)
    # Final round: everyone received left-neighbour rank + 2.
    expected = sum(r + 2 for r in range(4))
    assert job.results == [float(expected)] * 4


def test_scatter_gather_alltoall_composed():
    def app(ctx):
        chunk = yield from ctx.comm.scatter(
            [np.array([i * 10.0]) for i in range(ctx.size)] if ctx.rank == 0 else None,
            root=0,
        )
        gathered = yield from ctx.comm.gather(float(chunk[0]) + 1, root=0)
        everything = yield from ctx.comm.allgather(ctx.rank**2)
        exchanged = yield from ctx.comm.alltoall(
            [f"{ctx.rank}->{j}" for j in range(ctx.size)]
        )
        return (
            float(chunk[0]),
            gathered,
            everything,
            exchanged,
        )

    job, _ = run_app(app)
    chunks = [r[0] for r in job.results]
    assert chunks == [0.0, 10.0, 20.0, 30.0]
    assert job.results[0][1] == [1.0, 11.0, 21.0, 31.0]
    assert job.results[2][1] is None
    assert job.results[3][2] == [0, 1, 4, 9]
    assert job.results[1][3] == [f"{j}->1" for j in range(4)]


def test_sub_communicator_collectives():
    """MPI groups (the paper's missing feature, implemented here)."""

    def app(ctx):
        evens = [r for r in range(ctx.size) if r % 2 == 0]
        sub = ctx.comm.split(evens)
        yield from ctx.comm.barrier()
        if sub is not None:
            total = yield from sub.allreduce(np.float64(ctx.rank), "sum")
            yield from ctx.comm.barrier()
            return (sub.rank, sub.size, float(total))
        yield from ctx.comm.barrier()
        return None

    job, _ = run_app(app, n_ranks=6, n_nodes=3)
    assert job.results[0] == (0, 3, 6.0)  # 0+2+4
    assert job.results[2] == (1, 3, 6.0)
    assert job.results[1] is None


def test_collective_on_single_node_job():
    def app(ctx):
        out = yield from ctx.comm.allreduce(np.float64(ctx.rank), "sum")
        yield from ctx.comm.barrier()
        return float(out)

    job, _ = run_app(app, n_ranks=2, n_nodes=1)
    assert job.results == [1.0, 1.0]
