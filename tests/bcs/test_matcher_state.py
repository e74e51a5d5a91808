"""Matchers keep only pending descriptors.

The hash matcher's indexes hold exactly the unexpected sends and posted
receives still pending, so a finished run leaves no index key behind; a
wildcard receive finds the earliest arrival across the exact buckets;
and ``iprobe`` asks the matcher without building a descriptor.
"""

import pytest

from repro.apps import nearest_neighbor_benchmark, sage, sweep3d_blocking
from repro.bcs import ANY_SOURCE, ANY_TAG, BcsConfig, BcsRuntime, descriptors
from repro.bcs.descriptors import RecvDescriptor, SendDescriptor
from repro.bcs.matching import HashMatcher, LinearMatcher
from repro.mpi.baseline import BaselineConfig, BaselineRuntime
from repro.network import Cluster, ClusterSpec
from repro.storm import JobSpec
from repro.units import kib, ms, seconds, us

#: The benchmark's three programs at toy sizes: (app, nodes, ranks,
#: params).  The halo runs on 64 nodes, not 65,536: the reference engine
#: builds every node up front.
WORKLOADS = {
    "halo": (
        nearest_neighbor_benchmark,
        64,
        62,
        dict(granularity=ms(1), iterations=2, n_neighbors=4, message_bytes=kib(4)),
    ),
    "sweep3d_wavefront": (sweep3d_blocking, 31, 62, dict(octants=1, kblocks=4)),
    "sage": (sage, 31, 62, dict(steps=2)),
}


def index_keys(matcher) -> int:
    """Keys across the matcher's index dicts (its ``_u_*``/``_p_*`` slots)."""
    return sum(
        len(getattr(matcher, attr))
        for attr in type(matcher).__slots__
        if attr.startswith(("_u_", "_p_"))
    )


def _runtime(backend: str, n_nodes: int):
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes))
    if backend == "baseline":
        return BaselineRuntime(cluster, BaselineConfig())
    return BcsRuntime(cluster, BcsConfig(engine=backend))


def _record_baseline_matchers(runtime) -> list:
    """Every matcher the baseline hands out; it drops them at job end."""
    seen = []
    make = runtime.matcher

    def matcher(*key):
        m = make(*key)
        if not any(m is s for s in seen):
            seen.append(m)
        return m

    runtime.matcher = matcher
    return seen


@pytest.mark.parametrize("backend", ["fast", "reference", "baseline"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_no_index_key_left_after_run(workload, backend):
    app, n_nodes, n_ranks, params = WORKLOADS[workload]
    runtime = _runtime(backend, n_nodes)
    if backend == "baseline":
        matchers = _record_baseline_matchers(runtime)
    job = runtime.run_job(
        JobSpec(app=app, n_ranks=n_ranks, name=workload, params=params),
        max_time=seconds(3600),
    )
    assert job.complete
    if backend != "baseline":
        matchers = [nrt.matcher for nrt in runtime.node_runtimes.materialized()]
    assert matchers
    left = [(m.pending_counts, index_keys(m)) for m in matchers]
    assert left == [((0, 0), 0)] * len(matchers)


def _send(src, tag, dst=0, job=0):
    return SendDescriptor(job, 0, src, dst, tag, 8, None)


def _recv(src, tag, rank=0):
    return RecvDescriptor(0, 0, rank, src, tag, 64, None)


@pytest.mark.parametrize("cls", [HashMatcher, LinearMatcher])
def test_wildcard_receive_takes_earliest_arrival_across_buckets(cls):
    m = cls(0)
    other = [_send(1, 7, dst=1), _send(1, 7, job=1)]
    sends = [_send(2, 5), _send(1, 7), _send(2, 5), _send(0, 1), _send(1, 7)]
    for s in other[:1] + sends[:3] + other[1:] + sends[3:]:
        assert m.add_send(s) is None
    order = [
        ((1, 7), 1),
        ((ANY_SOURCE, ANY_TAG), 0),
        ((ANY_SOURCE, 7), 4),
        ((2, ANY_TAG), 2),
        ((ANY_SOURCE, ANY_TAG), 3),
    ]
    for (src, tag), want in order:
        assert m.add_recv(_recv(src, tag)).send is sends[want]
    assert m.pending_counts == (2, 0)
    assert m.add_recv(_recv(ANY_SOURCE, ANY_TAG)) is None
    assert m.pending_counts == (2, 1)
    if cls is HashMatcher:
        assert index_keys(m) == 3  # the two sends to others, the receive


class _Draws:
    """An id counter that counts what it hands out."""

    def __init__(self, ids):
        self.ids = ids
        self.n = 0

    def __iter__(self):
        return self

    def __next__(self):
        self.n += 1
        return next(self.ids)


PATTERNS = [(s, t) for s in (ANY_SOURCE, 0, 1, 2, 3) for t in (ANY_TAG, 0, 1, 2, 3, 4)]


@pytest.mark.parametrize("backend", ["bcs", "baseline"])
def test_iprobe_draws_no_descriptor_id(backend, monkeypatch):
    """100 probes against three ranks' unexpected sends draw no id and
    answer as a :class:`LinearMatcher` fed the same sends."""
    runtime = _runtime("fast" if backend == "bcs" else "baseline", 4)
    counters = [_Draws(descriptors._desc_ids)]
    monkeypatch.setattr(descriptors, "_desc_ids", counters[0])
    if backend == "bcs":
        counters.append(_Draws(runtime.desc_ids))
        runtime.desc_ids = counters[1]
    seen = {}

    def app(ctx):
        comm = ctx.comm
        if ctx.rank:
            for tag in (ctx.rank, ctx.rank + 1):
                yield from comm.send(b"x", dest=0, tag=tag)
            return
        yield from ctx.compute(us(1500))
        if backend == "bcs":
            matcher = comm._handle.nrt.matcher
        else:
            matcher = runtime.matcher(comm._job_id, 0, 0)
        oracle = LinearMatcher(0)
        for send in matcher.unexpected:
            oracle.add_send(send)
        job, comm_id = ctx.job.id, comm._info.comm_id
        before = [c.n for c in counters]
        seen["got"] = [comm.iprobe(s, t) for s, t in (PATTERNS * 4)[:100]]
        seen["draws"] = [c.n - b for c, b in zip(counters, before)]
        seen["want"] = [oracle.probe(job, comm_id, 0, s, t) for s, t in (PATTERNS * 4)[:100]]
        for _ in range(6):
            yield from comm.recv()

    job = runtime.run_job(JobSpec(app=app, n_ranks=4), max_time=seconds(30))
    assert job.complete
    assert seen["draws"] == [0] * len(counters)
    assert seen["got"] == seen["want"]
    assert True in seen["got"] and False in seen["got"]
