"""Tests for MPI_Cancel on the BCS backend."""

import numpy as np
import pytest

from repro.bcs import BcsConfig, BcsRuntime
from repro.network import Cluster, ClusterSpec
from repro.storm import JobSpec
from repro.units import seconds, us


def run_app(app, n_ranks=2, **params):
    cluster = Cluster(ClusterSpec(n_nodes=1))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0))
    job = runtime.run_job(
        JobSpec(app=app, n_ranks=n_ranks, params=params), max_time=seconds(30)
    )
    return job, runtime


def test_cancel_unmatched_recv_succeeds():
    outcome = {}

    def app(ctx):
        if ctx.rank == 0:
            req = ctx.comm.irecv(source=1, tag=42)
            outcome["cancelled"] = ctx.comm.cancel(req)
            outcome["complete"] = req.complete
            outcome["payload"] = req.payload
        yield from ctx.comm.barrier()

    _, runtime = run_app(app)
    assert outcome == {"cancelled": True, "complete": True, "payload": None}
    assert runtime.stats["recvs_cancelled"] == 1


def test_cancel_after_match_fails_and_message_arrives():
    outcome = {}

    def app(ctx):
        if ctx.rank == 0:
            req = ctx.comm.irecv(source=1, tag=7)
            # Wait well past matching (2+ slices).
            yield from ctx.compute(us(2600))
            outcome["cancelled"] = ctx.comm.cancel(req)
            got = yield from ctx.comm.wait(req)
            outcome["payload"] = got.tolist()
        else:
            yield from ctx.comm.send(np.arange(3.0), dest=0, tag=7)

    run_app(app)
    assert outcome["cancelled"] is False
    assert outcome["payload"] == [0.0, 1.0, 2.0]


def test_cancel_completed_request_fails():
    def app(ctx):
        if ctx.rank == 0:
            req = ctx.comm.irecv(source=1, tag=1)
            yield from ctx.comm.wait(req)
            assert ctx.comm.cancel(req) is False
        else:
            yield from ctx.comm.send(b"x", dest=0, tag=1)

    run_app(app)


def test_cancel_send_rejected():
    def app(ctx):
        req = ctx.comm.isend(None, dest=(ctx.rank + 1) % ctx.size, size=8)
        with pytest.raises(ValueError):
            ctx.comm.cancel(req)
        # Drain so the job completes cleanly.
        other = ctx.comm.irecv(source=(ctx.rank - 1) % ctx.size, size=8)
        yield from ctx.comm.waitall([req, other])

    run_app(app)


def test_cancelled_recv_does_not_steal_later_message():
    """After cancelling, a fresh receive gets the message instead."""
    got = {}

    def app(ctx):
        if ctx.rank == 0:
            doomed = ctx.comm.irecv(source=1, tag=5)
            assert ctx.comm.cancel(doomed)
            yield from ctx.comm.barrier()  # now rank 1 sends
            fresh = yield from ctx.comm.recv(source=1, tag=5)
            got["payload"] = bytes(fresh)
        else:
            yield from ctx.comm.barrier()
            yield from ctx.comm.send(b"fresh", dest=0, tag=5)

    run_app(app)
    assert got["payload"] == b"fresh"


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_cancel_of_a_recv_the_matcher_holds(engine):
    """A receive drained into the matcher before its cancel must leave
    it: the later send pairs with the fresh receive, and the matcher
    counts no posted receive afterwards."""
    got = {}

    def app(ctx):
        if ctx.rank == 0:
            doomed = ctx.comm.irecv(source=1, tag=5)
            yield from ctx.compute(us(1200))  # past a DEM: now in the matcher
            got["cancelled"] = ctx.comm.cancel(doomed)
            yield from ctx.comm.barrier()
            fresh = yield from ctx.comm.recv(source=1, tag=5)
            got["payload"] = bytes(fresh)
        else:
            yield from ctx.comm.barrier()
            yield from ctx.comm.send(b"fresh", dest=0, tag=5)

    cluster = Cluster(ClusterSpec(n_nodes=1))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, engine=engine))
    runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(30))
    assert got == {"cancelled": True, "payload": b"fresh"}
    assert runtime.stats["recvs_cancelled"] == 1
    assert (runtime.matcher_totals.unexpected, runtime.matcher_totals.posted) == (0, 0)
