#!/usr/bin/env python3
"""Wall-clock benchmark gate for the simulator hot path.

Runs a small suite of macro replays (idle-heavy, where the Strobe
Sender's planning of idle slices dominates), dense micro benchmarks (every
slice active, where the engine/matching/fabric fast paths must at least
not regress) and large-N scaling replays, each twice: once on the fast
slice engine (the default) and once on the reference engine
(``BcsConfig(engine="reference")``: full-scan active sets,
per-descriptor linear matching, every slice simulated, every node built
up front).

Every pair asserts that the *virtual* runtime is byte-identical — the
engine choice must never change simulated time — and reports the
wall-clock speedup.

Results are normalized by a spin-loop calibration
(:mod:`repro.obs.trends.calibrate`) so recorded numbers transfer across
machines: every comparison uses ``wall / calibration`` ratios, not raw
seconds.  Cross-run regression tracking lives in the trend store
(``--trend-store`` + ``repro trend check`` — see docs/TRENDS.md); the
committed ``BENCH_simperf.json`` snapshot seeds that store's day-one
history.

Usage:
    scripts/bench_wallclock.py             # full suite, print report
    scripts/bench_wallclock.py --quick     # smaller workloads (CI)
    scripts/bench_wallclock.py --quick --update   # rewrite BENCH_simperf.json
    scripts/bench_wallclock.py --quick --check    # gate on speedup floors
    scripts/bench_wallclock.py --quick --trend-store .trend-store
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing as mp
import platform
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.apps.sage import sage  # noqa: E402
from repro.apps.sweep3d import sweep3d_blocking  # noqa: E402
from repro.apps.synthetic import (  # noqa: E402
    barrier_benchmark,
    nearest_neighbor_benchmark,
)
from repro.bcs import BcsConfig, BcsRuntime  # noqa: E402
from repro.harness.runner import run_workload  # noqa: E402
from repro.harness.scaling import gc_counters, peak_rss_mib, tune_gc  # noqa: E402
from repro.network import Cluster, ClusterSpec  # noqa: E402
from repro.obs.trends.calibrate import Calibration  # noqa: E402
from repro.storm import JobSpec  # noqa: E402
from repro.units import ms, seconds  # noqa: E402

BASELINE_PATH = REPO / "BENCH_simperf.json"
SCHEMA = 1

#: Required speedup on the idle-heavy macro replay (idle slices planned).
MACRO_MIN_SPEEDUP = 2.0
#: Dense micro benchmarks must not get slower than this factor.
MICRO_MIN_SPEEDUP = 0.90
#: Required full-stack speedup on the large-N scaling replay: one small
#: job on a 512-node machine must run >= 10x faster with the optimized
#: defaults (planned slices + incremental active sets + hash matcher)
#: than with the historical per-slice full-scan path.
SCALING_MIN_SPEEDUP = 10.0
#: Per-benchmark floors that override the kind-level defaults above.
#: ``barrier_micro`` is the dense regime the batched slice engine must
#: not lose (the batched DEM/MSM holds have to at least pay for
#: themselves); ``scaling_4096`` is the 4096-node regime where the full
#: optimized stack must beat the reference stack >= 30x;
#: ``scaling_16384`` is the 16k-node regime — aggregated strobe and
#: lazily built nodes, where per-destination strobe fan-out and eager
#: node construction would otherwise dominate.
BENCH_MIN_SPEEDUP = {
    "barrier_micro": 1.0,
    "scaling_4096": 30.0,
    "scaling_16384": 30.0,
}


def benchmarks(quick: bool):
    """The benchmark matrix: (name, kind, app, n_ranks, params, config
    kwargs, cluster nodes).

    ``macro`` workloads are compute-dominated replays in the spirit of
    the paper's Fig. 10 (SAGE) and Fig. 11 (SWEEP3D) runs: most slices
    are idle, so planning should collapse them.  ``micro``
    workloads keep every slice active so the remaining optimizations
    (hash matching, latch barriers, fabric fast paths) are measured
    without any skipping.  The ``scaling`` replay is the ISSUE-5 regime:
    one small job on a 512-node machine, where the per-slice full scans
    of the reference path dominate and the incremental active sets plus
    planned idle slices must buy >= 10x.
    """
    s = 3 if quick else 5  # repetition count per measurement (best-of)
    return s, [
        (
            "sage_fig10",
            "macro",
            sage,
            8,
            dict(steps=8 if quick else 16, step_compute=seconds(1)),
            {},
            None,
        ),
        (
            "sweep3d_fig11",
            "macro",
            sweep3d_blocking,
            8,
            dict(
                octants=8,
                kblocks=2 if quick else 4,
                step_compute=ms(100),
            ),
            {},
            None,
        ),
        (
            "barrier_micro",
            "micro",
            barrier_benchmark,
            8,
            dict(iterations=300 if quick else 800, granularity=ms(1)),
            dict(init_cost=0),
            None,
        ),
        (
            "scaling_512",
            "scaling",
            barrier_benchmark,
            2,
            dict(iterations=20 if quick else 40, granularity=ms(40)),
            dict(init_cost=0),
            512,
        ),
        (
            "scaling_4096",
            "scaling",
            nearest_neighbor_benchmark,
            8,
            dict(iterations=6 if quick else 12, granularity=ms(100)),
            dict(init_cost=0),
            4096,
        ),
        (
            "scaling_16384",
            "scaling",
            nearest_neighbor_benchmark,
            8,
            dict(iterations=4 if quick else 8, granularity=ms(100)),
            dict(init_cost=0),
            16384,
        ),
    ]


def _slow_config(**cfg_kwargs) -> BcsConfig:
    """The reference (pre-optimization) simulator configuration."""
    return BcsConfig(engine="reference", **cfg_kwargs)


def run_case(app, n_ranks, params, cfg_kwargs, reps: int):
    """Best-of-``reps`` wall-clock for one workload, both configs.

    The optimized and reference measurements are interleaved so bursts
    of background load hit both sides instead of skewing one of them.
    Returns (best_fast, best_slow, fast_result, slow_result).
    """
    fast_cfg = BcsConfig(**cfg_kwargs)
    slow_cfg = _slow_config(**cfg_kwargs)
    best_fast = best_slow = math.inf
    fast = slow = None
    for _ in range(reps):
        t0 = time.perf_counter()
        fast = run_workload(app, n_ranks, "bcs", params=params, bcs_config=fast_cfg)
        best_fast = min(best_fast, time.perf_counter() - t0)
        t0 = time.perf_counter()
        slow = run_workload(app, n_ranks, "bcs", params=params, bcs_config=slow_cfg)
        best_slow = min(best_slow, time.perf_counter() - t0)
    return best_fast, best_slow, fast, slow


class _ScalingResult:
    """RunResult-shaped view over a large-N run (runtime_ns + stats)."""

    def __init__(self, runtime_ns, stats):
        self.runtime_ns = runtime_ns
        self.stats = dict(stats)


_CTX = mp.get_context("spawn")


def _scaling_leg(conn, app, n_ranks, params, cfg_kwargs, n_nodes, reps, fast):
    """Child-process entry: one scaling leg in an isolated interpreter.

    ``ru_maxrss`` is a cumulative high-water mark, so the only way to
    attribute a peak RSS to one configuration is to give each leg its
    own process.  The optimized leg materializes only the nodes the job
    touches (flyweight nodes are part of what it is measuring); the
    reference engine builds every node up front.
    """
    cfg_fn = BcsConfig if fast else _slow_config
    # Warm the interpreter on a toy cluster, then freeze the warm graph
    # so the timed region pays for its own garbage only.
    warm_spec = JobSpec(
        app=app, n_ranks=2, name="warm", params={**params, "iterations": 2}
    )
    BcsRuntime(Cluster(ClusterSpec(n_nodes=8)), cfg_fn(**cfg_kwargs)).run_job(
        warm_spec, max_time=seconds(3600)
    )
    tune_gc()
    best = math.inf
    result = None
    gc_delta = 0
    for _ in range(reps):
        cluster = Cluster(ClusterSpec(n_nodes=n_nodes))
        runtime = BcsRuntime(cluster, cfg_fn(**cfg_kwargs))
        spec = JobSpec(app=app, n_ranks=n_ranks, name="bench", params=params)
        gc0, _ = gc_counters()
        t0 = time.perf_counter()
        job = runtime.run_job(spec, max_time=seconds(3600))
        best = min(best, time.perf_counter() - t0)
        gc_delta = max(gc_delta, gc_counters()[0] - gc0)
        result = _ScalingResult(job.runtime, runtime.stats)
    conn.send(
        (
            best,
            result.runtime_ns,
            result.stats,
            peak_rss_mib(),
            gc_delta,
            gc_counters()[1],
        )
    )
    conn.close()


def _run_leg(app, n_ranks, params, cfg_kwargs, n_nodes, reps, fast):
    recv, send = _CTX.Pipe(duplex=False)
    proc = _CTX.Process(
        target=_scaling_leg,
        args=(send, app, n_ranks, params, cfg_kwargs, n_nodes, reps, fast),
    )
    proc.start()
    send.close()
    payload = recv.recv()
    proc.join()
    recv.close()
    return payload


def run_scaling_case(app, n_ranks, params, cfg_kwargs, n_nodes, reps: int):
    """Like :func:`run_case` on an ``n_nodes`` cluster, timing only the
    slice machine (cluster construction is O(nodes) on both sides and
    not what the gate measures).

    Each leg runs best-of-``reps`` inside its own spawned child so the
    peak-RSS and GC counters describe that configuration alone; timing
    happens inside the child, so spawn overhead is never measured.
    Returns ``(best_fast, best_slow, fast, slow, extras)`` where
    ``extras`` carries the optimized leg's memory/GC measurements.
    """
    wall_f, ns_f, stats_f, rss_f, gcd_f, gco_f = _run_leg(
        app, n_ranks, params, cfg_kwargs, n_nodes, reps, True
    )
    wall_s, ns_s, stats_s, _, _, _ = _run_leg(
        app, n_ranks, params, cfg_kwargs, n_nodes, reps, False
    )
    extras = {
        "peak_rss_mib": rss_f,
        "gc_collections": gcd_f,
        "gc_objects": gco_f,
    }
    return (
        wall_f,
        wall_s,
        _ScalingResult(ns_f, stats_f),
        _ScalingResult(ns_s, stats_s),
        extras,
    )


def run_suite(quick: bool) -> dict:
    calibration = Calibration()
    # Warm the engine once, then freeze the long-lived interpreter graph:
    # every in-process measurement after this pays for its own garbage
    # only, not collector passes over modules and the warm engine.
    run_workload(
        barrier_benchmark, 4, "bcs", params=dict(iterations=2, granularity=ms(1))
    )
    tune_gc()
    reps, matrix = benchmarks(quick)
    raw = {}
    for name, kind, app, n_ranks, params, cfg_kwargs, n_nodes in matrix:
        if kind == "scaling":
            wall_fast, wall_slow, fast, slow, extras = run_scaling_case(
                app, n_ranks, params, cfg_kwargs, n_nodes, reps
            )
        else:
            gc0, _ = gc_counters()
            wall_fast, wall_slow, fast, slow = run_case(
                app, n_ranks, params, cfg_kwargs, reps
            )
            gc1, gc_objects = gc_counters()
            # In-process cases inherit the cumulative high-water mark;
            # growth between consecutive benchmarks is still the signal
            # the trend series watches.  Scaling cases measure theirs in
            # an isolated child (see run_scaling_case).
            extras = {
                "peak_rss_mib": peak_rss_mib(),
                "gc_collections": gc1 - gc0,
                "gc_objects": gc_objects,
            }
        calibration.sample()
        if fast.runtime_ns != slow.runtime_ns:
            raise SystemExit(
                f"{name}: virtual time diverged — optimized {fast.runtime_ns} ns "
                f"vs reference {slow.runtime_ns} ns"
            )
        raw[name] = (kind, wall_fast, wall_slow, fast, extras)
        print(
            f"{name:16s} [{kind}]  optimized {wall_fast:7.3f}s  "
            f"reference {wall_slow:7.3f}s  speedup {wall_slow / wall_fast:5.2f}x  "
            f"skipped {fast.stats.get('idle_slices_skipped', 0)}  "
            f"rss {extras['peak_rss_mib']:6.1f}MiB  "
            f"gc {extras['gc_collections']}"
        )
    out = {
        "schema": SCHEMA,
        "quick": quick,
        "calibration_s": round(calibration.best, 6),
        "python": platform.python_version(),
        "benchmarks": {},
    }
    for name, (kind, wall_fast, wall_slow, fast, extras) in raw.items():
        out["benchmarks"][name] = {
            "kind": kind,
            "wall_s": round(wall_fast, 4),
            "wall_reference_s": round(wall_slow, 4),
            "speedup": round(wall_slow / wall_fast, 3),
            "normalized": round(wall_fast / calibration.best, 3),
            "virtual_ns": fast.runtime_ns,
            "idle_slices_skipped": fast.stats.get("idle_slices_skipped", 0),
            "peak_rss_mib": round(extras["peak_rss_mib"], 1),
            "gc_collections": extras["gc_collections"],
            "gc_objects": extras["gc_objects"],
        }
    return out


def check(report: dict) -> int:
    """Gate: the optimizations must actually pay for themselves.

    Speedup floors only.  Cross-run wall-clock regression tracking
    moved to the trend store (``--trend-store`` + ``repro trend
    check``), which judges against the *distribution* of recent runs
    instead of one committed snapshot.
    """
    failures = []
    macro_speedups = {}
    for name, rec in report["benchmarks"].items():
        floor = BENCH_MIN_SPEEDUP.get(name)
        if floor is not None:
            if rec["speedup"] < floor:
                failures.append(
                    f"{name}: below its dedicated floor "
                    f"({rec['speedup']:.2f}x < {floor:.2f}x)"
                )
        elif rec["kind"] == "macro":
            macro_speedups[name] = rec["speedup"]
        elif rec["kind"] == "scaling":
            if rec["speedup"] < SCALING_MIN_SPEEDUP:
                failures.append(
                    f"{name}: large-N replay below the scaling floor "
                    f"({rec['speedup']:.2f}x < {SCALING_MIN_SPEEDUP:.1f}x)"
                )
        elif rec["speedup"] < MICRO_MIN_SPEEDUP:
            failures.append(
                f"{name}: dense micro slowed down ({rec['speedup']:.2f}x < "
                f"{MICRO_MIN_SPEEDUP:.2f}x)"
            )
    if macro_speedups and max(macro_speedups.values()) < MACRO_MIN_SPEEDUP:
        failures.append(
            f"no macro replay reached {MACRO_MIN_SPEEDUP:.1f}x idle-planning "
            f"speedup: {macro_speedups}"
        )

    if failures:
        print("\nBENCH GATE FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nbench gate passed")
    return 0


def record_trends(report: dict, store_path: Path) -> None:
    """Append this report's series to the cross-run trend store."""
    from repro.obs.trends import TrendStore
    from repro.obs.trends.record import record_bench_report

    meta, rows = record_bench_report(TrendStore(store_path), report)
    print(f"trend store: recorded run {meta.run_id} ({rows} series rows)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small workloads (CI)")
    parser.add_argument(
        "--update",
        action="store_true",
        help=f"rewrite {BASELINE_PATH.name} (the trend store's seed baseline)",
    )
    parser.add_argument(
        "--check", action="store_true", help="fail when a speedup floor is missed"
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="also write the report here"
    )
    parser.add_argument(
        "--trend-store",
        type=Path,
        default=None,
        metavar="PATH",
        help="append the report to this cross-run trend store (docs/TRENDS.md)",
    )
    args = parser.parse_args()

    report = run_suite(args.quick)
    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
    if args.trend_store is not None:
        record_trends(report, args.trend_store)
    if args.update:
        BASELINE_PATH.write_text(json.dumps(report, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0
    if args.check:
        return check(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
