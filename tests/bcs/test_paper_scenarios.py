"""Narrative tests replaying the paper's numbered scenarios.

Each test follows one of the paper's figures step by step and checks
the observable consequences in the implementation.
"""

import numpy as np
import pytest

from repro.bcs import BcsConfig, BcsRuntime
from repro.network import Cluster, ClusterSpec
from repro.storm import JobSpec
from repro.units import seconds, us

SLICE = us(500)


def make(n_nodes=2, **cfg):
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes))
    return cluster, BcsRuntime(cluster, BcsConfig(init_cost=0, **cfg))


def test_fig2a_blocking_send_recv_scenario():
    """Figure 2(a): P1 MPI_Send, P2 MPI_Recv.

    1-2. descriptors posted (during slice i-1);
    3.   transmission scheduled at slice i since both are ready;
    4.   communication performed within slice i;
    5-6. both processes resume computation at a slice boundary, the
         receiver having paid between 1 and 2 slices.
    """
    timeline = {}

    def app(ctx):
        yield from ctx.comm.barrier()
        yield from ctx.compute(us(130))  # land mid-slice (step 1-2)
        t_post = ctx.now
        if ctx.rank == 0:
            yield from ctx.comm.send(np.arange(8.0), dest=1)
        else:
            got = yield from ctx.comm.recv(source=0)
            assert (got == np.arange(8.0)).all()
        timeline[ctx.rank] = (t_post, ctx.now)

    cluster, runtime = make()
    runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(5))

    recv_post, recv_done = timeline[1]
    # Step 5: the receiver resumes exactly at a slice boundary...
    assert recv_done % SLICE == 0
    # ...one-to-two slices after posting (1.5 average, paper §3.1).
    assert SLICE <= recv_done - recv_post <= 2 * SLICE
    # Buffered sender resumed without waiting for transmission.
    send_post, send_done = timeline[0]
    assert send_done - send_post < us(5)


def test_fig2b_nonblocking_overlap_scenario():
    """Figure 2(b): Isend/Irecv + computation; "the communication is
    completely overlapped with the computation with no performance
    penalty"."""
    cost = {}

    def app(ctx):
        yield from ctx.comm.barrier()
        if ctx.rank == 0:
            req = ctx.comm.isend(None, dest=1, size=2048)
        else:
            req = ctx.comm.irecv(source=0, size=2048)
        yield from ctx.compute(4 * SLICE)  # steps 3-4 happen underneath
        t0 = ctx.now
        yield from ctx.comm.wait(req)  # step 5: just verifies completion
        cost[ctx.rank] = ctx.now - t0

    cluster, runtime = make(nm_compute_tax=0.0)
    runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(5))
    assert cost[0] == 0
    assert cost[1] == 0


def test_fig6_descriptor_exchange_path():
    """Figure 6: the descriptor travels BS -> remote BR in the DEM, the
    match is built in the MSM, and the DH moves the data — all countable
    in the runtime statistics."""
    cluster, runtime = make()

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(None, dest=1, size=4096)
        else:
            yield from ctx.comm.recv(source=0, size=4096)

    runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(5))
    assert runtime.stats["descriptors_posted"] == 2  # steps 1-2
    assert runtime.stats["descriptors_exchanged"] == 1  # step 4 (BS->BR)
    assert runtime.stats["matches_created"] == 1  # step 6 (BR match)
    assert runtime.stats["chunks_moved"] == 1  # step 9 (DH get)
    assert runtime.stats["messages_delivered"] == 1


def test_fig7_broadcast_flag_protocol():
    """Figure 7: collective descriptors are absorbed per node, the flag
    rises when all local processes posted, the master's BR issues the
    query broadcast, and the CH multicasts once."""
    cluster, runtime = make(n_nodes=2)
    order = []
    flags = []

    def app(ctx):
        # Stagger the posts (steps 1-4 arrive at different times).
        yield from ctx.compute(us(40) * (ctx.rank + 1))
        got = yield from ctx.comm.bcast(
            b"payload" if ctx.rank == 0 else None, root=0
        )
        order.append((ctx.rank, ctx.now))
        # Read while the job runs: its flags are freed when it completes.
        flags.append([runtime.core.gas.read(node, ("cflag", ctx.job.id, 0)) for node in (0, 1)])
        return got

    job = runtime.run_job(JobSpec(app=app, n_ranks=4), max_time=seconds(5))
    assert all(r == b"payload" for r in job.results)
    # Exactly one CaW scheduling decision (step 8) for the one epoch.
    assert runtime.stats["collectives_scheduled"] == 1
    # Every rank resumed at the same boundary (steps 9-10 + restart).
    times = {t for _, t in order}
    assert len(times) == 1
    assert next(iter(times)) % SLICE == 0
    # The flag in global memory reached epoch 1 on both nodes.
    assert flags == [[1, 1]] * 4


def test_table_figure13_mpi_to_bcs_mapping():
    """Figure 13: every listed MPI primitive exists on the communicator."""
    cluster, runtime = make()
    surface = {}

    def app(ctx):
        comm = ctx.comm
        for name in (
            "send", "isend", "recv", "irecv", "iprobe", "test", "wait",
            "testall", "waitall", "barrier", "reduce", "allreduce",
            "scatter", "scatterv", "gather", "gatherv", "allgather",
            "allgatherv", "alltoall", "alltoallv", "bcast",
        ):
            surface[name] = callable(getattr(comm, name, None))
        yield ctx.env.timeout(1)

    runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(5))
    missing = [k for k, ok in surface.items() if not ok]
    assert not missing, f"missing MPI surface: {missing}"
