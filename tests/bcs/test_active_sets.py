"""The fast slice engine vs the reference engine.

End to end, both engines must agree byte-for-byte on virtual time,
per-rank results and stats (idle-skip counters aside), and on the
telemetry they export.  Underneath, the Strobe Sender's per-slice
questions (``any_work``, ``dem_nodes``, ``msm_nodes``, ``bbm_nodes``,
``rm_nodes``, the telemetry totals) have two implementations: the fast
engine's reads lazily pruned active-node sets, the reference engine's
(the ``*_scan`` oracles) recomputes from every node runtime.  These
tests pin them against each other — inside real workloads at every
slice boundary, and over long random post/retire streams (the
matcher-differential oracle pattern from ``test_matching_differential.py``
applied to the slice machine).
"""

import json
import random

import pytest

from repro.apps.sage import sage
from repro.apps.sweep3d import sweep3d_blocking
from repro.apps.synthetic import barrier_benchmark, nearest_neighbor_benchmark
from repro.bcs import BcsConfig, BcsRuntime
from repro.bcs.descriptors import (
    CollectiveDescriptor,
    RecvDescriptor,
    SendDescriptor,
)
from repro.harness.runner import run_workload
from repro.network import Cluster, ClusterSpec
from repro.obs import Observability
from repro.obs.critpath import blame_payload, critical_path, to_json_bytes
from repro.storm import JobSpec
from repro.units import ms, seconds

WORKLOADS = {
    "sage": (sage, 4, dict(steps=3, step_compute=ms(40))),
    "barrier": (barrier_benchmark, 4, dict(iterations=5, granularity=ms(3))),
    "neighbor": (
        nearest_neighbor_benchmark,
        4,
        dict(iterations=4, granularity=ms(2)),
    ),
    # Blocking wavefront: few messages per active slice, the
    # benchmark's weakest workload shape.
    "sweep3d": (sweep3d_blocking, 8, dict(octants=2, kblocks=2)),
}


def _run(name, engine, obs=None, **cfg):
    app, n_ranks, params = WORKLOADS[name]
    config = BcsConfig(engine=engine, **cfg)
    return run_workload(
        app, n_ranks, "bcs", params=params, bcs_config=config, obs=obs
    )


def _stats(result):
    """Run stats minus the fast engine's idle-skip counter."""
    stats = dict(result.stats)
    stats.pop("idle_slices_skipped", None)
    return stats


def _perfetto(obs):
    """The Perfetto export with its events as a sorted multiset.

    The reference engine's per-descriptor NIC holds finish the
    same-instant occupancy spans of different nodes in another order
    than the fast engine's batched holds; every event, timestamp and
    duration is the same.
    """
    trace = obs.perfetto.to_dict()
    events = trace.pop("traceEvents")
    return trace, sorted(json.dumps(e, sort_keys=True) for e in events)


def _blame(obs, result):
    """The ``repro explain`` blame payload of a run."""
    report = critical_path(obs.spans, makespan_ns=result.runtime_ns)
    return to_json_bytes(blame_payload(report))


def _stream(obs):
    """The full protocol log as a multiset per instant: the engines write
    same-instant entries in different host orders."""
    return sorted(obs.events, key=lambda e: (e[0], repr(e)))


# --- end-to-end equivalence ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("buffered", [True, False])
def test_virtual_time_and_stats_identical(name, buffered):
    """Under buffered and strictly synchronous sends alike."""
    fast = _run(name, "fast", buffered_sends=buffered)
    ref = _run(name, "reference", buffered_sends=buffered)
    assert fast.runtime_ns == ref.runtime_ns
    assert _stats(fast) == _stats(ref)
    assert fast.results == ref.results
    assert ref.stats.get("idle_slices_skipped", 0) == 0


@pytest.mark.parametrize("name", ["sage", "neighbor"])
def test_observability_output_identical(name):
    obs_fast = Observability()
    obs_ref = Observability()
    fast = _run(name, "fast", obs=obs_fast)
    ref = _run(name, "reference", obs=obs_ref)
    assert fast.runtime_ns == ref.runtime_ns
    assert obs_fast.registry.snapshot() == obs_ref.registry.snapshot()
    assert _perfetto(obs_fast) == _perfetto(obs_ref)
    assert obs_fast.profiler.report() == obs_ref.profiler.report()
    assert _blame(obs_fast, fast) == _blame(obs_ref, ref)
    assert _stream(obs_fast) == _stream(obs_ref)


def test_hooks_with_incremental_sets():
    """on_slice_start hooks disable fast-forward and fire every slice,
    with the fast engine's incremental sets answering each boundary's
    queries."""
    cluster = Cluster(ClusterSpec(n_nodes=2))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0))
    calls = []
    runtime.on_slice_start.append(lambda s: calls.append(s))
    app, n_ranks, params = WORKLOADS["barrier"]
    runtime.run_job(
        JobSpec(app=app, n_ranks=2, params=params), max_time=seconds(5)
    )
    assert runtime.stats["idle_slices_skipped"] == 0
    assert calls == list(range(1, runtime.stats["slices"] + 1))


# --- per-slice differential inside real workloads -----------------------------


def _assert_queries_agree(runtime):
    assert runtime.any_work() == runtime.any_work_scan()
    assert runtime.dem_nodes() == runtime.dem_nodes_scan()
    assert runtime.msm_nodes() == runtime.msm_nodes_scan()
    # bbm/rm have no standalone scan twin: flip the resolved engine so
    # the candidate enumeration runs both ways over the same state.
    inc_bbm, inc_rm = runtime.bbm_nodes(), runtime.rm_nodes()
    runtime.fast = False
    try:
        assert inc_bbm == runtime.bbm_nodes()
        assert inc_rm == runtime.rm_nodes()
    finally:
        runtime.fast = True


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_slicewise_differential(name):
    """Every slice boundary of a real run: incremental == scan."""
    app, n_ranks, params = WORKLOADS[name]
    cluster = Cluster(ClusterSpec(n_nodes=4))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0))
    checked = []
    runtime.on_slice_start.append(
        lambda s: (_assert_queries_agree(runtime), checked.append(s))
    )
    runtime.run_job(
        JobSpec(app=app, n_ranks=n_ranks, params=params), max_time=seconds(30)
    )
    assert len(checked) >= 2


# --- random post/retire stream oracle ----------------------------------------


def _send(job_id, src, dst, tag=0):
    return SendDescriptor(
        job_id=job_id,
        comm_id=0,
        src_rank=src,
        dst_rank=dst,
        tag=tag,
        size=64,
        request=None,
    )


def _recv(job_id, rank, src, tag=0):
    return RecvDescriptor(
        job_id=job_id,
        comm_id=0,
        rank=rank,
        src_rank=src,
        tag=tag,
        capacity=64,
        request=None,
    )


def _coll(job_id, rank):
    return CollectiveDescriptor(
        job_id=job_id,
        comm_id=0,
        kind="barrier",
        rank=rank,
        root=0,
        epoch=1,
        request=None,
    )


def _assert_state_agrees(runtime):
    assert runtime.any_work() == runtime.any_work_scan()
    assert runtime.dem_nodes() == runtime.dem_nodes_scan()
    assert runtime.msm_nodes() == runtime.msm_nodes_scan()
    sends = recvs = colls = arrived = 0
    for nrt in runtime.node_runtimes:
        sends += len(nrt.posted_sends)
        recvs += len(nrt.posted_recvs)
        colls += len(nrt.posted_colls)
        arrived += len(nrt.arrived_sends)
    assert runtime.queue_depths() == (sends, recvs, colls, arrived)
    unexpected = posted = 0
    for nrt in runtime.node_runtimes:
        u, p = nrt.matcher.pending_counts
        unexpected += u
        posted += p
    assert runtime.matcher_pending_totals() == (unexpected, posted)


def test_random_stream_oracle():
    """10^4 random mutations through the real entry points.

    Posts go through ``post_send``/``post_recv``/``post_collective``/
    ``deliver_send`` (which register nodes in the active sets); retires
    mutate the queues directly, exactly as the DEM drain and the Buffer
    Receiver do — membership must then decay by lazy eviction, never by
    positive staleness.
    """
    rng = random.Random(20260806)
    cluster = Cluster(ClusterSpec(n_nodes=6))
    runtime = BcsRuntime(cluster, BcsConfig())
    nrts = runtime.node_runtimes

    def retire(queue):
        if queue:
            queue.pop(rng.randrange(len(queue)))

    for step in range(10_000):
        nrt = nrts[rng.randrange(len(nrts))]
        job_id = rng.choice((1, 2))
        op = rng.randrange(10)
        if op == 0:
            nrt.post_send(_send(job_id, 0, 1, tag=rng.randrange(3)))
        elif op == 1:
            nrt.post_recv(_recv(job_id, 1, 0, tag=rng.randrange(3)))
        elif op == 2:
            nrt.post_collective(_coll(job_id, 0))
        elif op == 3:
            nrt.deliver_send(_send(job_id, 0, 1, tag=rng.randrange(3)))
        elif op == 4:
            retire(nrt.posted_sends)
        elif op == 5:
            retire(nrt.posted_recvs)
        elif op == 6:
            retire(nrt.posted_colls)
        elif op == 7:
            retire(nrt.arrived_sends)
        elif op == 8:
            # Matcher traffic feeds the shared totals aggregate.
            if rng.random() < 0.5:
                nrt.matcher.add_send(_send(job_id, 0, 1, tag=rng.randrange(3)))
            else:
                nrt.matcher.add_recv(_recv(job_id, 1, 0, tag=rng.randrange(3)))
        else:
            runtime.purge_job(job_id)
        if step % 7 == 0:
            _assert_state_agrees(runtime)
    _assert_state_agrees(runtime)


def test_sets_prune_to_empty():
    """After retiring everything, the lazy sets drain at query time."""
    cluster = Cluster(ClusterSpec(n_nodes=4))
    runtime = BcsRuntime(cluster, BcsConfig())
    for nrt in runtime.node_runtimes:
        nrt.post_send(_send(1, 0, 1))
        nrt.deliver_send(_send(1, 0, 1))
    assert runtime.any_work()
    assert len(runtime.dem_nodes()) == len(runtime.node_runtimes)
    for nrt in runtime.node_runtimes:
        nrt.posted_sends.clear()
        nrt.arrived_sends.clear()
    assert not runtime.any_work()
    assert runtime.dem_nodes() == [] == runtime.msm_nodes()
    assert runtime._dem_set == set() == runtime._arrived_set
