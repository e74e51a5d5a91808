"""Cross-backend equivalence: the same app must produce identical results
under BCS-MPI and the baseline — only the timing differs (paper's thesis)."""

import numpy as np
import pytest

from repro.bcs import BcsConfig, BcsRuntime
from repro.mpi.baseline import BaselineConfig, BaselineRuntime
from repro.network import Cluster, ClusterSpec
from repro.storm import JobSpec
from repro.units import KiB, seconds, us


def run_on(backend, app, n_ranks=4, n_nodes=4, **params):
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes))
    if backend == "bcs":
        runtime = BcsRuntime(cluster, BcsConfig(init_cost=0))
    else:
        runtime = BaselineRuntime(cluster, BaselineConfig(init_cost=0))
    return runtime.run_job(
        JobSpec(app=app, n_ranks=n_ranks, params=params), max_time=seconds(60)
    )


def run_both(app, n_ranks=4, n_nodes=4, **params):
    return tuple(
        run_on(backend, app, n_ranks, n_nodes, **params)
        for backend in ("bcs", "baseline")
    )


def test_ring_exchange_same_results():
    def app(ctx):
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        acc = 0
        for i in range(4):
            s = ctx.comm.isend(np.array([ctx.rank * 10 + i]), dest=right)
            r = ctx.comm.irecv(source=left)
            yield from ctx.comm.waitall([s, r])
            acc += int(r.payload[0])
        return acc

    bcs, base = run_both(app)
    assert bcs.results == base.results


def test_stencil_with_reduction_same_results():
    def app(ctx):
        field = np.full(16, float(ctx.rank))
        for _ in range(3):
            reqs = []
            for nb in ((ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size):
                reqs.append(ctx.comm.isend(field[:4].copy(), dest=nb))
                reqs.append(ctx.comm.irecv(source=nb, size=4 * 8))
            yield from ctx.comm.waitall(reqs)
            halo = [r.payload for r in reqs if r.payload is not None]
            field = field + sum(h.sum() for h in halo) / 100.0
            norm = yield from ctx.comm.allreduce(np.float64(field.sum()), "sum")
        return round(float(norm), 6)

    bcs, base = run_both(app)
    assert bcs.results == base.results


def test_master_worker_same_results():
    def app(ctx):
        if ctx.rank == 0:
            chunks = [np.arange(4.0) * (i + 1) for i in range(ctx.size)]
            mine = yield from ctx.comm.scatter(chunks, root=0)
        else:
            mine = yield from ctx.comm.scatter(None, root=0)
        result = yield from ctx.comm.gather(float(mine.sum()), root=0)
        return result

    bcs, base = run_both(app)
    assert bcs.results == base.results
    assert bcs.results[0] == [6.0, 12.0, 18.0, 24.0]


def test_integer_allreduce_bit_identical():
    def app(ctx):
        out = yield from ctx.comm.allreduce(
            np.array([ctx.rank + 1, ctx.rank * 2], dtype=np.int64), "sum"
        )
        return out.tolist()

    bcs, base = run_both(app, n_ranks=8, n_nodes=4)
    assert bcs.results == base.results
    assert bcs.results[0] == [36, 56]


def test_float_allreduce_same_tree_same_bits():
    """Both backends reduce over the same binomial tree, so even float
    results agree bit-for-bit."""

    def app(ctx):
        rng = np.random.default_rng(ctx.rank)
        out = yield from ctx.comm.allreduce(rng.normal(size=8), "sum")
        return out.tobytes()

    bcs, base = run_both(app, n_ranks=8, n_nodes=4)
    assert bcs.results == base.results


def test_bcs_is_slower_for_latency_bound_pingpong():
    """Sanity on timing direction: a blocking ping-pong is latency-bound,
    where the baseline's us-scale p2p beats BCS's slice quantization."""

    def app(ctx):
        for _ in range(5):
            if ctx.rank == 0:
                yield from ctx.comm.send(None, dest=1, size=64)
                yield from ctx.comm.recv(source=1, size=64)
            else:
                yield from ctx.comm.recv(source=0, size=64)
                yield from ctx.comm.send(None, dest=0, size=64)

    bcs, base = run_both(app, n_ranks=2, n_nodes=2)
    assert bcs.runtime > 10 * base.runtime


def test_both_backends_idle_compute_similar():
    """Pure computation: BCS only adds the small NM tax."""

    def app(ctx):
        yield from ctx.compute(us(20_000))

    bcs, base = run_both(app, n_ranks=2, n_nodes=2)
    assert base.runtime <= bcs.runtime <= int(base.runtime * 1.15)


@pytest.mark.parametrize("call", ["bcast", "reduce"])
@pytest.mark.parametrize("backend", ["bcs", "baseline"])
def test_out_of_range_root_rejected(backend, call):
    def app(ctx):
        with pytest.raises(ValueError, match="root rank 99 outside communicator"):
            if call == "bcast":
                yield from ctx.comm.bcast(1, root=99)
            else:
                yield from ctx.comm.reduce(1, "sum", root=99)
        # The rejected call posted nothing: the next collective matches.
        total = yield from ctx.comm.allreduce(1, "sum")
        return total

    job = run_on(backend, app)
    assert job.results == [4, 4, 4, 4]


@pytest.mark.parametrize("call", ["isend", "irecv", "iprobe"])
@pytest.mark.parametrize("backend", ["bcs", "baseline"])
def test_out_of_range_peer_rejected(backend, call):
    role = "destination" if call == "isend" else "source"

    def app(ctx):
        with pytest.raises(ValueError, match=f"{role} rank 99 outside communicator"):
            if call == "isend":
                ctx.comm.isend(1, dest=99)
            elif call == "irecv":
                ctx.comm.irecv(source=99)
            else:
                ctx.comm.iprobe(source=99)
        # The rejected call posted nothing: the next collective matches.
        total = yield from ctx.comm.allreduce(1, "sum")
        return total

    job = run_on(backend, app)
    assert job.results == [4, 4, 4, 4]
