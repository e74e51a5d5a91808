"""Farm orchestration: expand → cache lookup → pool → store → aggregate.

``run_farm`` is the one entry point: it turns family names into point
specs, satisfies what it can from the content-addressed store, pushes
the rest through the :class:`~repro.farm.pool.WorkerPool`, persists
fresh results, and reassembles each family's rows in exactly the order
the sequential generators produce them.

Farm telemetry goes through the same :class:`repro.obs.MetricsRegistry`
the simulator uses (counters labeled by point family, a queue-depth
gauge, per-point duration histograms), so ``repro farm metrics`` reads
like ``repro metrics`` — see docs/FARM.md.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..obs import MetricsRegistry
from .fingerprint import code_fingerprint, git_sha, result_key
from .points import FAMILIES, PointSpec, family_specs
from .pool import PointOutcome, WorkerPool
from .store import ResultStore

__all__ = ["FamilyResult", "FarmReport", "run_farm"]


@dataclass
class FamilyResult:
    """One family's reassembled table plus its per-point outcomes."""

    name: str
    title: str
    outcomes: List[PointOutcome]

    @property
    def rows(self) -> List[dict]:
        """Row dicts of the successful points, in table order."""
        return [o.row for o in self.outcomes if o.ok]

    @property
    def complete(self) -> bool:
        return all(o.ok for o in self.outcomes)


@dataclass
class FarmReport:
    """Everything one farm run produced."""

    families: List[FamilyResult]
    fingerprint: str
    jobs: int
    duration_s: float
    registry: MetricsRegistry
    n_points: int = 0
    n_cached: int = 0
    n_executed: int = 0
    n_failed: int = 0
    n_retried: int = 0
    #: cached records in the result store after this run.
    store_records: int = 0

    @property
    def ok(self) -> bool:
        return self.n_failed == 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of this run's points served by the result store."""
        return round(self.n_cached / self.n_points, 4) if self.n_points else 0.0

    def failures(self) -> List[PointOutcome]:
        return [o for f in self.families for o in f.outcomes if not o.ok]

    def summary_line(self) -> str:
        return (
            f"[farm] {self.n_points} points: {self.n_cached} cached, "
            f"{self.n_executed} executed, {self.n_failed} failed, "
            f"{self.n_retried} retried in {self.duration_s:.1f}s "
            f"({self.jobs} workers, code {self.fingerprint[:12]})"
        )

    def summary_dict(self) -> dict:
        """JSON-safe digest persisted as the store's last-run record.

        Carries full provenance (source-tree fingerprint, git SHA,
        interpreter version) so trend rows and cache records can be
        joined by what produced them, not just by when.
        """
        return {
            "fingerprint": self.fingerprint,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "jobs": self.jobs,
            "duration_s": self.duration_s,
            "points": self.n_points,
            "cached": self.n_cached,
            "executed": self.n_executed,
            "failed": self.n_failed,
            "retried": self.n_retried,
            "cache_hit_rate": self.cache_hit_rate,
            "store_records": self.store_records,
            "families": {
                f.name: {
                    "points": len(f.outcomes),
                    "ok": sum(1 for o in f.outcomes if o.ok),
                }
                for f in self.families
            },
            "failures": [
                {
                    "point": o.spec.label(),
                    "attempts": o.attempts,
                    "error": ((o.error or "").strip().splitlines() or [""])[-1],
                }
                for o in self.failures()
            ],
            "metrics": self.registry.snapshot(),
            "metrics_render": self.registry.render(),
        }


class _Progress:
    """One-line live progress: \\r-updates on a tty, sparse lines otherwise."""

    def __init__(self, total: int, enabled: bool, stream=None):
        self.total = total
        self.done = 0
        self.failed = 0
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled and total > 0
        self.is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._last_len = 0

    def advance(self, outcome: PointOutcome) -> None:
        if not self.enabled:
            return
        self.done += 1
        if not outcome.ok:
            self.failed += 1
        line = (
            f"[farm] {self.done}/{self.total} points"
            + (f", {self.failed} failed" if self.failed else "")
            + f" (last: {outcome.spec.label()})"
        )
        if self.is_tty:
            pad = " " * max(0, self._last_len - len(line))
            self.stream.write("\r" + line + pad)
            self._last_len = len(line)
            if self.done == self.total:
                self.stream.write("\n")
        elif self.done == self.total or self.done % 10 == 0:
            self.stream.write(line + "\n")
        self.stream.flush()


def _record_row_gauges(
    registry: MetricsRegistry, name: str, fam_outcomes: List[PointOutcome]
) -> None:
    """Mirror a family's ``trend_columns`` into per-point gauges.

    Each gauge lands in the registry snapshot as
    ``farm.row.<column>{family=...,point=...}``, which the trend store
    records as an exact series — so ``repro trend check`` gates on row
    values (e.g. the critical-path blame composition), not only on
    wall-clock.  The point label joins param values with ``-`` (label
    values must stay comma-free for the trend label parser).
    """
    columns = FAMILIES[name].trend_columns
    if not columns:
        return
    for outcome in fam_outcomes:
        if not outcome.ok:
            continue
        point = "-".join(str(v) for _, v in outcome.spec.params)
        for column in columns:
            value = outcome.row.get(column)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            registry.gauge(f"farm.row.{column}", family=name, point=point).set(
                float(value)
            )


def _record_trends(trend_store, summary: dict) -> None:
    """Append this run to the cross-run trend store (docs/TRENDS.md).

    Resolved lazily and wrapped defensively: trend recording is an
    observability side channel and must never fail or slow a farm run
    that did not ask for it.
    """
    if trend_store is None:
        if not os.environ.get("REPRO_TREND_RECORD"):
            return
        from ..obs.trends import TrendStore

        trend_store = TrendStore()
    from ..obs.trends.record import record_farm_summary

    try:
        record_farm_summary(trend_store, summary)
    except (OSError, ValueError):
        pass  # read-only disk / duplicate run id: the farm run still counts


def run_farm(
    families: Optional[Sequence[str]] = None,
    preset: str = "paper",
    jobs: int = 4,
    use_cache: bool = True,
    store: Optional[ResultStore] = None,
    timeout_s: float = 600.0,
    retries: int = 1,
    registry: Optional[MetricsRegistry] = None,
    progress: bool = True,
    overrides: Optional[Mapping[str, Mapping[str, object]]] = None,
    extra_specs: Optional[Sequence[PointSpec]] = None,
    trend_store=None,
) -> FarmReport:
    """Run (or replay from cache) the given families' points in parallel.

    ``extra_specs`` appends raw specs after the expanded families —
    the hook tests use to inject hanging/crashing points.

    ``trend_store`` (a :class:`repro.obs.trends.TrendStore`) appends the
    run's per-family durations to the cross-run trend store; when None,
    the ``REPRO_TREND_RECORD`` environment variable enables recording
    into the default store.  Disabled recording costs nothing.
    """
    t0 = time.monotonic()
    registry = registry if registry is not None else MetricsRegistry()
    store = store if store is not None else ResultStore()
    specs_by_family = family_specs(families, preset, overrides)
    if extra_specs:
        for s in extra_specs:
            specs_by_family.setdefault(s.family, []).append(s)
    all_specs: List[PointSpec] = [
        s for specs in specs_by_family.values() for s in specs
    ]

    fingerprint = code_fingerprint()
    registry.counter("farm.runs").inc()
    registry.gauge("farm.workers").set(jobs)
    for name, specs in specs_by_family.items():
        registry.counter("farm.points.total", family=name).inc(len(specs))

    # -- cache pass ----------------------------------------------------------
    outcomes: Dict[int, PointOutcome] = {}
    misses: List[PointSpec] = []
    miss_index: Dict[int, int] = {}  # position in `misses` -> position overall
    for i, spec in enumerate(all_specs):
        record = (
            store.get(result_key(fingerprint, spec.point_hash()))
            if use_cache
            else None
        )
        if record is not None:
            outcomes[i] = PointOutcome(
                spec=spec, status="ok", row=record["row"], cached=True
            )
            registry.counter("farm.cache.hits", family=spec.family).inc()
        else:
            miss_index[len(misses)] = i
            misses.append(spec)
            registry.counter("farm.cache.misses", family=spec.family).inc()
    registry.gauge("farm.cache.hit_rate").set(
        round(len(outcomes) / len(all_specs), 4) if all_specs else 0.0
    )

    # -- execute misses ------------------------------------------------------
    prog = _Progress(total=len(all_specs), enabled=progress)
    for outcome in outcomes.values():
        prog.advance(outcome)
    n_retried = 0
    # Pending misses: set when the pool starts, one down per finished point.
    queue_depth = registry.gauge("farm.queue.depth")
    queue_depth.set(0)

    def on_event(kind: str, info: dict) -> None:
        nonlocal n_retried
        if kind == "retry":
            n_retried += 1
            spec = info["spec"]
            registry.counter("farm.points.retried", family=spec.family).inc()
        elif kind == "done":
            outcome: PointOutcome = info["outcome"]
            queue_depth.dec()
            family = outcome.spec.family
            registry.histogram("farm.point.duration_ms", family=family).observe(
                outcome.duration_s * 1000.0
            )
            if outcome.ok:
                registry.counter("farm.points.completed", family=family).inc()
            else:
                registry.counter("farm.points.failed", family=family).inc()
            prog.advance(outcome)

    if misses:
        queue_depth.set(len(misses))
        pool = WorkerPool(jobs=jobs, timeout_s=timeout_s, retries=retries)
        for pos, outcome in enumerate(pool.run(misses, on_event=on_event)):
            outcomes[miss_index[pos]] = outcome
            if outcome.ok:
                key = result_key(fingerprint, outcome.spec.point_hash())
                store.put(
                    key,
                    {
                        "family": outcome.spec.family,
                        "params": outcome.spec.params_dict,
                        "point_hash": outcome.spec.point_hash(),
                        "fingerprint": fingerprint,
                        "row": outcome.row,
                        "duration_s": outcome.duration_s,
                        "attempts": outcome.attempts,
                    },
                )

    # -- aggregate -----------------------------------------------------------
    results: List[FamilyResult] = []
    cursor = 0
    for name, specs in specs_by_family.items():
        fam_outcomes = [outcomes[cursor + j] for j in range(len(specs))]
        cursor += len(specs)
        results.append(
            FamilyResult(name=name, title=FAMILIES[name].title, outcomes=fam_outcomes)
        )
        _record_row_gauges(registry, name, fam_outcomes)

    report = FarmReport(
        families=results,
        fingerprint=fingerprint,
        jobs=jobs,
        duration_s=time.monotonic() - t0,
        registry=registry,
        n_points=len(all_specs),
        n_cached=sum(1 for o in outcomes.values() if o.cached),
        n_executed=len(misses),
        n_failed=sum(1 for o in outcomes.values() if not o.ok),
        n_retried=n_retried,
        store_records=store.count(),
    )
    summary = report.summary_dict()
    try:
        store.save_last_run(summary)
    except OSError:
        pass  # a read-only store must not fail the run
    _record_trends(trend_store, summary)
    return report
