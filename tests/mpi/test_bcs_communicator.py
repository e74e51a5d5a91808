"""Direct tests of the BCS communicator: the BCS API (paper Appendix A)
bound to one rank."""

import pytest

from repro.bcs import BcsConfig, BcsRuntime
from repro.bcs.descriptors import UNLIMITED
from repro.network import Cluster, ClusterSpec
from repro.storm import JobSpec
from repro.units import seconds, us


def setup_runtime(n_ranks=4):
    cluster = Cluster(ClusterSpec(n_nodes=n_ranks // 2))
    return BcsRuntime(cluster, BcsConfig(init_cost=0))


def idle_comms(n_ranks=4):
    """Each rank's world communicator, after a job that only sleeps, for
    posting outside the job's run."""
    runtime = setup_runtime(n_ranks)
    comms = {}

    def app(ctx):
        comms[ctx.rank] = ctx.comm
        yield ctx.env.timeout(1)

    runtime.run_job(JobSpec(app=app, n_ranks=n_ranks), max_time=seconds(5))
    return comms


def test_posts_validate_ranks_and_collective_kind():
    comm = idle_comms()[0]
    with pytest.raises(ValueError, match="destination rank 99"):
        comm.isend(dest=99)
    with pytest.raises(ValueError, match="source rank 99"):
        comm.irecv(source=99)
    with pytest.raises(ValueError, match="root rank 99"):
        next(comm.bcast(root=99))
    with pytest.raises(ValueError, match="unknown collective kind"):
        comm._post_collective("alltoallw")


def test_unlimited_recv_capacity_default():
    comm = idle_comms()[0]
    req = comm.irecv()
    desc = comm._handle.nrt.posted_recvs[-1]
    assert desc.request is req
    assert desc.capacity == UNLIMITED


def test_buffered_send_finishes_at_post():
    comm = idle_comms()[0]
    req = comm.isend(b"xy", dest=1)
    assert req.complete  # buffered_sends=True default


def test_epoch_counters_advance_per_comm():
    runtime = setup_runtime()
    seen = {}

    def app(ctx):
        comm = ctx.comm
        yield from comm.barrier()
        yield from comm.barrier()
        sub = comm.split([0, 1])
        if sub is not None:
            yield from sub.barrier()
            seen[ctx.rank] = (comm._handle, sub._info.comm_id)

    runtime.run_job(JobSpec(app=app, n_ranks=4), max_time=seconds(5))
    handle, sub_id = seen[0]
    assert sub_id != 0
    # Two collectives on the world communicator, one on the fresh one.
    assert handle.next_epoch(0) == 3
    assert handle.next_epoch(sub_id) == 2


def test_send_seq_counters_per_destination():
    comm = idle_comms()[0]
    sends = comm._handle.nrt.posted_sends
    comm.isend(dest=1, size=8)
    comm.isend(dest=1, size=8)
    comm.isend(dest=2, size=8)
    assert [(d.dst_rank, d.seq) for d in sends[-3:]] == [(1, 0), (1, 1), (2, 0)]


def test_pending_overhead_accumulates_and_flushes():
    runtime = setup_runtime()
    post_cost = runtime.config.descriptor_post_cost
    flushed = []

    def app(ctx):
        comm = ctx.comm
        if ctx.rank == 0:
            handle = comm._handle
            comm.isend(None, dest=1, size=8)
            comm.isend(None, dest=1, size=8)
            assert handle.pending_overhead == 2 * post_cost
            yield from ctx.compute(us(10))
            flushed.append(handle.pending_overhead)
        elif ctx.rank == 1:
            r1 = comm.irecv(source=0, size=8)
            r2 = comm.irecv(source=0, size=8)
            yield from comm.waitall([r1, r2])
        else:
            yield ctx.env.timeout(1)

    job = runtime.run_job(JobSpec(app=app, n_ranks=4), max_time=seconds(5))
    assert job.complete
    assert flushed == [0]


def test_probe_wrong_and_right_source():
    """bcs_probe distinguishes sources and tags (paper Fig 12)."""

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(b"z", dest=1, tag=3)
            yield from ctx.comm.barrier()
        elif ctx.rank == 1:
            yield from ctx.compute(us(1500))
            assert ctx.comm.iprobe(source=0, tag=3)
            assert not ctx.comm.iprobe(source=2, tag=3)
            assert not ctx.comm.iprobe(source=0, tag=4)
            yield from ctx.comm.recv(source=0, tag=3)
            yield from ctx.comm.barrier()
        else:
            yield from ctx.comm.barrier()

    job = setup_runtime().run_job(JobSpec(app=app, n_ranks=4), max_time=seconds(30))
    assert job.complete
