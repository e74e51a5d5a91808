"""The scaling study: simulator throughput vs machine size.

The BCS design brief is a machine well past the paper's 62-node
testbed, so the simulator itself must stay usable at 64k nodes.  This
study runs one small job (a realistic "mostly idle machine" shape) on
clusters of growing size and measures *simulator wall-clock* slices/sec
of the fast slice engine against the reference engine
(``BcsConfig(engine="reference")``: full scans, per-node strobe
completion writes, per-descriptor linear matching, no idle skipping,
every node built up front).  Both engines must agree on virtual time
and slice count to the byte; a divergence raises instead of recording
a row.

Rows are JSON-safe so :mod:`repro.farm.points` can register the study
as the ``scaling`` family.  Wall-clock fields are measurements of the
host, not of the simulated machine — the family therefore stays out of
the deterministic figure set.
"""

from __future__ import annotations

import gc
import time

from ..apps import barrier_benchmark, nearest_neighbor_benchmark
from ..bcs import BcsConfig, BcsRuntime
from ..network import Cluster, ClusterSpec, by_name
from ..storm import JobSpec
from ..units import kib, seconds, us

__all__ = [
    "SCALING_APPS",
    "SCALING_NETWORKS",
    "gc_counters",
    "scaling_point",
    "tune_gc",
]

#: Network models exercised by the study, in row order: the paper's
#: testbed fabric and the BlueGene/L torus it anticipates.
SCALING_NETWORKS = ("qsnet", "bluegene_l_torus")

#: Workloads the study can run, by row name: a compute/barrier loop and
#: a point-to-point heavy nearest-neighbour exchange.
SCALING_APPS = {"barrier": barrier_benchmark, "neighbor": nearest_neighbor_benchmark}


def tune_gc(threshold0: int = 50_000) -> None:
    """Freeze the warm interpreter graph and relax the gen-0 trigger.

    At 64k nodes the long-lived object population (cluster, topology,
    engine, module graph) is large enough that cyclic-GC passes walking
    it dominate wall-clock noise.  After warm-up the survivors are
    effectively permanent: ``gc.freeze`` moves them to the permanent
    generation so collections never traverse them again, and a raised
    gen-0 threshold keeps the collector from firing on every burst of
    short-lived slice garbage.  Benchmark harnesses and farm workers
    call this once, after their warm-up runs, inside a process that
    exists only to take the measurement — the tuning is deliberately
    not undone.
    """
    gc.collect()
    gc.freeze()
    gc.set_threshold(threshold0, 50, 50)


def gc_counters() -> tuple:
    """Current ``(collections, tracked_objects)`` for trend recording.

    ``collections`` sums every generation's lifetime collection count;
    deltas across a timed region show how often the collector fired
    inside it.  ``tracked_objects`` is the live cyclic-GC population —
    the flat-footprint signal that lazily built nodes are meant to
    hold down.
    """
    collections = sum(s["collections"] for s in gc.get_stats())
    return collections, len(gc.get_objects())


def peak_rss_mib() -> float:
    """Process peak RSS in MiB (``ru_maxrss`` is KiB on Linux).

    The kernel counter is a cumulative high-water mark: it only ever
    grows over the process lifetime, so a reading taken after a run is
    the high-water mark observed so far, not that run's footprint.
    """
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_run(
    network: str, n_nodes: int, app: str, active_ranks: int, params: dict, engine: str
):
    """One job on a fresh ``n_nodes`` cluster under ``engine``.

    Returns ``(virtual_ns, slices, wall_s, gc_collections_delta)``.
    Only the job is timed: building the cluster is O(nodes) under the
    reference engine and is not what the study measures.
    """
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes, model=by_name(network)))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, engine=engine))
    spec = JobSpec(
        app=SCALING_APPS[app], n_ranks=active_ranks, name="scaling", params=params
    )
    # Building a large cluster leaves the young generations full of
    # construction garbage; collect it now so the timed region measures
    # the slice machine, not a GC pass over the graph.
    gc.collect()
    gc0, _ = gc_counters()
    t0 = time.perf_counter()
    job = runtime.run_job(spec, max_time=seconds(3600))
    wall_s = time.perf_counter() - t0
    gc1, _ = gc_counters()
    return job.runtime, runtime.stats["slices"], wall_s, gc1 - gc0


def scaling_point(
    network: str = "qsnet",
    n_nodes: int = 65536,
    app: str = "neighbor",
    active_ranks: int = 32,
    iterations: int = 30,
    granularity_us: float = 400.0,
    message_kib: int = 4,
    reps: int = 2,
) -> dict:
    """One scaling row: the fast engine vs the reference engine.

    Both engines simulate the identical workload — ``active_ranks``
    ranks of ``app`` (a :data:`SCALING_APPS` key; ``message_kib`` only
    applies to ``"neighbor"``) on an ``n_nodes``-node cluster.  Legs are
    interleaved best-of-``reps``, fast leg first: the process peak RSS
    is snapshotted right after the first fast leg, before the reference
    leg builds its whole-machine object graph, so ``peak_rss_mib`` is
    the fast engine's own footprint (``ru_maxrss`` is a cumulative
    high-water mark; farm workers run each point in a fresh child).

    Any divergence in virtual time or slice count is a correctness bug,
    not a data point: it raises :class:`AssertionError`.
    """
    params = dict(granularity=us(granularity_us), iterations=iterations)
    if app == "neighbor":
        params["message_bytes"] = kib(message_kib)
    # Warm both engines on a toy cluster so the first timed run does not
    # absorb the interpreter's cold-start cost, then freeze the warm graph.
    for engine in ("fast", "reference"):
        _timed_run(network, 8, app, 2, {**params, "iterations": 2}, engine)
    tune_gc()
    fast_wall = ref_wall = float("inf")
    gc_delta = 0
    for rep in range(max(1, reps)):
        fast_ns, fast_slices, wall, delta = _timed_run(
            network, n_nodes, app, active_ranks, params, "fast"
        )
        fast_wall = min(fast_wall, wall)
        gc_delta = max(gc_delta, delta)
        if rep == 0:
            peak_rss = peak_rss_mib()
            _, gc_objects = gc_counters()
        ref_ns, ref_slices, wall, _ = _timed_run(
            network, n_nodes, app, active_ranks, params, "reference"
        )
        ref_wall = min(ref_wall, wall)
        if (fast_ns, fast_slices) != (ref_ns, ref_slices):
            raise AssertionError(
                f"scaling[{network},{n_nodes},{app}]: fast engine diverged "
                f"from the reference engine — {fast_ns} ns/{fast_slices} "
                f"slices vs {ref_ns} ns/{ref_slices} slices"
            )
    return {
        "network": network,
        "n_nodes": n_nodes,
        "app": app,
        "active_ranks": active_ranks,
        "iterations": iterations,
        "message_kib": message_kib,
        "virtual_ms": fast_ns / 1e6,
        "slices": fast_slices,
        "slices_per_sec": fast_slices / fast_wall if fast_wall > 0 else 0.0,
        "reference_slices_per_sec": ref_slices / ref_wall if ref_wall > 0 else 0.0,
        "speedup": ref_wall / fast_wall if fast_wall > 0 else 0.0,
        "virtual_identical": True,
        "wall_s": fast_wall,
        "reference_wall_s": ref_wall,
        "peak_rss_mib": peak_rss,
        "gc_collections": gc_delta,
        "gc_objects": gc_objects,
    }
