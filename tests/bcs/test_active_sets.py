"""The fast slice engine vs the reference engine.

End to end, both engines must agree byte-for-byte on virtual time,
per-rank results and stats (idle-skip counters aside), and on the
telemetry they export.  The workloads cover the fast engine's planned
slices and every way a slice falls back to simulation: ranks that test
completions mid-slice, contended links, messages chunked over several
slices, and a second job whose launch changes the active set and the
microstrobe latency mid-run.  Underneath, the Strobe Sender's per-slice
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
from collections import Counter
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Tuple

import pytest

from repro.apps.sage import sage
from repro.apps.sweep3d import sweep3d_blocking, sweep3d_nonblocking
from repro.apps.synthetic import barrier_benchmark, nearest_neighbor_benchmark
from repro.bcs import BcsConfig, BcsRuntime
from repro.bcs.descriptors import (
    CollectiveDescriptor,
    RecvDescriptor,
    SendDescriptor,
)
from repro.debug import FlightRecorder
from repro.harness.runner import DEFAULT_MAX_TIME, nodes_for
from repro.network import Cluster, ClusterSpec
from repro.obs import Observability
from repro.obs.critpath import blame_payload, critical_path, to_json_bytes
from repro.pfs import PfsService
from repro.storm import JobSpec
from repro.units import kib, mib, ms, seconds, us


class Workload(NamedTuple):
    app: Callable
    n_ranks: int
    params: dict
    #: Machine size (default: two ranks per node).
    n_nodes: Optional[int] = None
    #: Rank-to-node map (default: block placement).
    placement: Optional[Tuple[int, ...]] = None
    #: ``(delay, placement)``: a second copy of the job launched ``delay``
    #: after the first, on other nodes.
    then: Optional[Tuple[int, Tuple[int, ...]]] = None


def _shuffled_pairs(n_nodes, seed):
    """Two consecutive ranks on each node, the nodes in random order."""
    nodes = random.Random(seed).sample(range(n_nodes), n_nodes)
    return tuple(node for node in nodes for _ in range(2))


WORKLOADS = {
    "sage": Workload(sage, 4, dict(steps=3, step_compute=ms(40))),
    "barrier": Workload(barrier_benchmark, 4, dict(iterations=5, granularity=ms(3))),
    "neighbor": Workload(
        nearest_neighbor_benchmark, 4, dict(iterations=4, granularity=ms(2))
    ),
    # Blocking wavefront: few messages per active slice, the
    # benchmark's weakest workload shape.
    "sweep3d": Workload(sweep3d_blocking, 8, dict(octants=2, kblocks=2)),
    # The Waitall after each compute: ranks test their completions in
    # the middle of a slice, as the planned landings complete them.
    "sweep3d_nonblocking": Workload(
        sweep3d_nonblocking, 8, dict(octants=2, kblocks=2)
    ),
    # Four neighbours of ranks scattered over the machine: descriptors
    # and chunks contend for link halves, so slices fall back.
    "halo_scattered": Workload(
        nearest_neighbor_benchmark,
        32,
        dict(iterations=3, granularity=ms(2)),
        n_nodes=16,
        placement=_shuffled_pairs(16, seed=7),
    ),
    # 256 KiB each way: every message is chunked over several slices.
    "chunked": Workload(
        nearest_neighbor_benchmark,
        2,
        dict(iterations=3, granularity=ms(2), n_neighbors=1, message_bytes=kib(256)),
        n_nodes=2,
        placement=(0, 1),
    ),
    # A second job joins 5.5 ms into the first one's run, 1 µs after a
    # slice boundary (before that slice's DEM microstrobe): the active
    # set grows from two nodes to six and the microstrobe latency with it.
    "staggered": Workload(
        nearest_neighbor_benchmark,
        4,
        dict(iterations=6, granularity=ms(2)),
        n_nodes=8,
        placement=(0, 0, 1, 1),
        then=(BcsConfig().init_cost + ms(5.5) + us(1), (2, 3, 4, 5)),
    ),
}


def _runtime(name, config, obs=None, n_nodes=None):
    """A runtime on the workload's machine (``n_nodes`` overrides the
    default size)."""
    w = WORKLOADS[name]
    n_nodes = w.n_nodes or n_nodes or nodes_for(w.n_ranks)
    runtime = BcsRuntime(Cluster(ClusterSpec(n_nodes=n_nodes, seed=0)), config)
    if obs is not None:
        runtime.attach_observability(obs)
    return runtime


def _complete(name, runtime, max_time=DEFAULT_MAX_TIME):
    """Launch the workload on ``runtime`` and run it to completion."""
    w = WORKLOADS[name]
    env = runtime.env
    spec = JobSpec(app=w.app, n_ranks=w.n_ranks, name=w.app.__name__, params=w.params)
    jobs = [runtime.launch(spec, None if w.placement is None else list(w.placement))]
    if w.then is not None:
        delay, placement = w.then

        def launch_later():
            yield env.timeout(delay)
            return runtime.launch(spec, list(placement))

        jobs.append(env.run(until=env.process(launch_later())))
    env.run(until=env.any_of([env.all_of([j.done for j in jobs]), env.timeout(max_time)]))
    assert all(j.complete for j in jobs), f"{name} did not finish"
    return jobs


def _run(name, engine, obs=None, **cfg):
    runtime = _runtime(name, BcsConfig(engine=engine, **cfg), obs)
    jobs = _complete(name, runtime)
    return SimpleNamespace(
        runtime_ns=jobs[0].runtime if len(jobs) == 1 else runtime.env.now,
        stats=dict(runtime.stats),
        results=[j.results for j in jobs],
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


def _assert_views_identical(fast, ref):
    """Two flight recorders' logs agree, and so does every view folded
    from them.  The logs compare in canonical order: the engines write
    same-instant entries in different host orders."""
    assert fast.obs.registry.snapshot() == ref.obs.registry.snapshot()
    assert _perfetto(fast.obs) == _perfetto(ref.obs)
    assert fast.obs.profiler.report() == ref.obs.profiler.report()
    assert fast.log() == ref.log()


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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_observability_output_identical(name):
    rec_fast = FlightRecorder()
    rec_ref = FlightRecorder()
    fast = _run(name, "fast", obs=rec_fast.obs)
    ref = _run(name, "reference", obs=rec_ref.obs)
    assert fast.runtime_ns == ref.runtime_ns
    _assert_views_identical(rec_fast, rec_ref)
    assert _blame(rec_fast.obs, fast) == _blame(rec_ref.obs, ref)


def test_hub_attached_after_launch():
    """Binding a hub mid-run logs the nodes already in service; the
    second job's launch then logs its fresh nodes."""
    recorders = []
    for engine in ("fast", "reference"):
        recorder = FlightRecorder()
        runtime = _runtime("staggered", BcsConfig(engine=engine))

        def attach(runtime=runtime, recorder=recorder):
            yield runtime.env.timeout(BcsConfig().init_cost + ms(3))
            runtime.attach_observability(recorder.obs)

        runtime.env.process(attach())
        _complete("staggered", runtime)
        recorders.append(recorder)
    nodes = [e for e in recorders[0].log() if e[1] == "node"]
    assert [e[2] for e in nodes] == [0, 1, 2, 3, 4, 5]
    assert nodes[0][0] == nodes[1][0] < nodes[2][0]
    _assert_views_identical(*recorders)


def test_pfs_io_node_without_ranks():
    """A PFS I/O node hosting no rank is logged when a stripe first
    names it, under both engines alike."""
    recorders = []
    for engine in ("fast", "reference"):
        recorder = FlightRecorder()
        cluster = Cluster(ClusterSpec(n_nodes=4))
        runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, engine=engine))
        runtime.attach_observability(recorder.obs)
        pfs = PfsService(runtime, io_nodes=[3])

        def writer(env=cluster.env, pfs=pfs):
            yield env.timeout(ms(2))
            for i in range(3):
                pfs.write(0, f"f{i}", mib(1))
                yield env.timeout(ms(2))

        cluster.env.process(writer(), name="pfs.bg")
        w = WORKLOADS["neighbor"]
        runtime.run_job(
            JobSpec(app=w.app, n_ranks=w.n_ranks, params=w.params),
            placement=[0, 0, 1, 1],
            max_time=seconds(60),
        )
        recorders.append(recorder)
    log = recorders[0].log()
    assert [e[2] for e in log if e[1] == "node"] == [0, 1, 3]
    assert any(e[1] == "nic" and e[2] == 3 for e in log)
    _assert_views_identical(*recorders)


def _ranks_view(log):
    """The entries of ``log`` (a multiset) that ranks cause or observe."""
    return {e: n for e, n in log.items() if e[1] in ("post", "wait", "chunk", "deliver")}


def test_stop_inside_planned_slices():
    """A run stopped at any instant, planned slices included, has logged
    all the reference engine has logged up to that instant, and the same
    posts, waits, chunks and deliveries.  What a planned stretch commits
    ahead of its instants (log entries, descriptor and microphase counts,
    fabric totals) runs ahead of the reference engine, never behind,
    until the run passes the stretch (docs/PERFORMANCE.md, "Planned
    slices").  Both engines log an empty BBM and RM before their instants
    and a loopback copy's NIC hold after its instant, so the logs up to a
    stop are compared by containment."""
    w = WORKLOADS["sweep3d"]
    spec = JobSpec(app=w.app, n_ranks=w.n_ranks, name=w.app.__name__, params=w.params)
    runs = []
    for engine in ("fast", "reference"):
        obs = Observability()
        runtime = _runtime("sweep3d", BcsConfig(engine=engine), obs)
        runs.append((runtime, obs, runtime.launch(spec)))
    (fast, obs_fast, job_fast), (ref, obs_ref, job_ref) = runs
    exact = ("chunks_moved", "bytes_transferred", "messages_delivered")
    t, ahead = BcsConfig().init_cost, 0
    while not job_ref.complete:
        # Stops at offsets 7 µs apart into the 500 µs slices.
        t += us(507)
        for runtime, _, _ in runs:
            runtime.env.run(until=t)
        fast_log, ref_log = (
            Counter(e for e in obs.events if e[0] <= t) for obs in (obs_fast, obs_ref)
        )
        assert not ref_log - fast_log
        assert _ranks_view(fast_log) == _ranks_view(ref_log)
        stats = _stats(SimpleNamespace(stats=fast.stats))
        assert all(stats.get(k, 0) >= v for k, v in ref.stats.items())
        assert all(stats.get(k, 0) == ref.stats.get(k, 0) for k in exact)
        ahead += stats != ref.stats
    assert job_fast.complete and job_fast.runtime == job_ref.runtime
    assert _stats(SimpleNamespace(stats=fast.stats)) == ref.stats
    assert ahead


def test_hooks_with_incremental_sets():
    """on_slice_start hooks disable slice planning and fire every slice,
    with the fast engine's incremental sets answering each boundary's
    queries."""
    cluster = Cluster(ClusterSpec(n_nodes=2))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0))
    calls = []
    runtime.on_slice_start.append(lambda s: calls.append(s))
    w = WORKLOADS["barrier"]
    runtime.run_job(
        JobSpec(app=w.app, n_ranks=2, params=w.params), max_time=seconds(5)
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
    runtime = _runtime(name, BcsConfig(init_cost=0), n_nodes=4)
    checked = []
    runtime.on_slice_start.append(
        lambda s: (_assert_queries_agree(runtime), checked.append(s))
    )
    _complete(name, runtime, max_time=seconds(30))
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
