"""Pinned makespan and results of every composed collective.

The applications in ``repro.apps`` call only point-to-point, barrier,
bcast, reduce and allreduce, so the golden timings cannot see the
collectives that ``repro.mpi.communicator`` composes from point-to-point
posts.  One job here calls each of them, plus a persistent send/recv
round, on the baseline and on both BCS slice engines.  A change to a
composed collective's tags, post order or receive bounds moves the
makespan; a change to its semantics moves the results digest.  If a
change is intentional, update ``PINS``.
"""

import hashlib

import numpy as np
import pytest

from repro.bcs import BcsConfig, BcsRuntime
from repro.mpi.baseline import BaselineConfig, BaselineRuntime
from repro.network import Cluster, ClusterSpec
from repro.storm import JobSpec
from repro.units import KiB, seconds, us

N_RANKS = 6
N_NODES = 3


def _plain(x):
    """Results as plain Python values, so their repr is stable."""
    if isinstance(x, np.ndarray):
        if x.size > 64:
            return [x.dtype.str, x.size, float(x.sum())]
        return [x.dtype.str, x.tolist()]
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def every_collective(ctx):
    comm, r, n = ctx.comm, ctx.rank, ctx.size
    out = []

    def stagger(step):
        # Ranks enter each call at different instants, so receives are
        # posted both before and after their messages arrive.
        return ctx.compute(us(37 * ((r * 5 + step) % n)))

    yield from stagger(0)
    chunks = [np.full(3, 10.0 * i + 1) for i in range(n)] if r == 1 else None
    out.append((yield from comm.scatter(chunks, root=1)))
    vchunks = [np.arange(i + 1.0) for i in range(n)] if r == 0 else None
    sizes = [8 * (i + 1) for i in range(n)]
    out.append((yield from comm.scatterv(vchunks, root=0, sizes=sizes)))
    yield from stagger(1)
    out.append((yield from comm.gather(r * r, root=2)))
    out.append((yield from comm.gatherv(np.arange(r + 1.0), root=0)))
    yield from stagger(2)
    out.append((yield from comm.allgather(r + 0.5)))
    out.append((yield from comm.allgatherv(np.full(r + 1, r, dtype=np.int64))))
    yield from stagger(3)
    # One pair moves 48 KiB: above the baseline's eager threshold.
    big = np.full(48 * KiB // 8, float(r))
    out.append(
        (yield from comm.alltoall([big if j == (r + 3) % n else 100 * r + j for j in range(n)]))
    )
    out.append(
        (yield from comm.alltoallv(
            [np.full(j + 1, r, dtype=np.int64) for j in range(n)],
            sizes=[8 * (r + 1)] * n,
        ))
    )
    yield from stagger(4)
    out.append(
        (yield from comm.sendrecv(
            np.array([r, r * r]), dest=(r + 1) % n, source=(r - 1) % n, sendtag=7, recvtag=7
        ))
    )
    out.append((yield from comm.scan(np.array([r + 1.0, 2.0]), "sum")))
    out.append((yield from comm.exscan(r + 2, "prod")))
    yield from stagger(5)
    out.append(
        (yield from comm.reduce_scatter_block(
            [np.full(2, float((r * 7 + j) % 5)) for j in range(n)], "sum"
        ))
    )
    buf = np.zeros(2)
    persistent = [
        comm.send_init(buf, dest=(r + 1) % n, tag=11),
        comm.recv_init(source=(r - 1) % n, tag=11),
    ]
    got = []
    for round_no in range(2):
        buf[:] = (r, round_no)
        reqs = comm.startall(persistent)
        yield from comm.waitall(reqs)
        got.append(reqs[1].payload.copy())
        yield from stagger(6 + round_no)
    out.append(got)
    return _plain(out)


def run(backend, engine="fast"):
    cluster = Cluster(ClusterSpec(n_nodes=N_NODES))
    if backend == "bcs":
        runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, engine=engine))
    else:
        runtime = BaselineRuntime(cluster, BaselineConfig(init_cost=0))
    return runtime.run_job(
        JobSpec(app=every_collective, n_ranks=N_RANKS), max_time=seconds(10)
    )


def digest(results) -> str:
    return hashlib.sha256(repr(results).encode()).hexdigest()[:16]


PINS = {
    # run id -> (makespan ns, results digest)
    "baseline": (1_981_338, "61111ff51bff91c7"),
    "bcs-fast": (22_451_867, "61111ff51bff91c7"),
    "bcs-reference": (22_451_867, "61111ff51bff91c7"),
}
RUNS = {
    "baseline": ("baseline", "fast"),
    "bcs-fast": ("bcs", "fast"),
    "bcs-reference": ("bcs", "reference"),
}


@pytest.mark.parametrize("run_id", sorted(PINS))
def test_every_collective_pinned(run_id):
    job = run(*RUNS[run_id])
    assert (job.runtime, digest(job.results)) == PINS[run_id]


def test_every_collective_same_results_on_both_backends():
    base = run("baseline").results
    assert run("bcs").results == base
    # Spot checks of the semantics behind the digest.
    assert base[2][2] == [0, 1, 4, 9, 16, 25]  # gather at root 2
    assert base[0][9] == ["<f8", [1.0, 2.0]]  # rank 0's inclusive scan
    assert base[5][10] == 2 * 3 * 4 * 5 * 6  # exscan of r + 2 over 0..4
    assert base[0][12] == [["<f8", [5.0, 0.0]], ["<f8", [5.0, 1.0]]]  # persistent
