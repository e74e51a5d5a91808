"""Adapters: farm summaries and bench reports -> trend store rows.

Two producers feed the trend store:

- a **farm run** (:func:`record_farm_summary`): per-family wall-clock
  duration aggregates from the ``farm.point.duration_ms`` histogram in
  the run's metrics snapshot, plus any ``sim.*`` / ``matcher.*``
  counters present in the snapshot as exact series.  Fully cached runs
  record nothing — a cache replay measures the disk, not the simulator;
- a **bench run** (:func:`record_bench_report`): the
  ``scripts/bench_wallclock.py`` report — normalized wall-clock per
  workload (timing series) plus virtual runtime and idle-slice counts
  (exact series).

Timing values are stored normalized by the run's spin-loop
``calibration_s`` (see :mod:`.calibrate`), so a slow CI machine and a
fast laptop land on the same trend line.
"""

from __future__ import annotations

import re
import time
from fnmatch import fnmatchcase
from typing import List, Mapping, Optional, Sequence, Tuple

from .calibrate import spin_calibration
from .store import RunMeta, Sample, TrendStore

__all__ = [
    "bench_samples",
    "farm_samples",
    "new_run_meta",
    "record_bench_report",
    "record_farm_summary",
    "snapshot_samples",
]

#: registry-snapshot metrics recorded as exact series when present.
#: ``farm.row.*`` carries per-point row values mirrored by families with
#: ``trend_columns`` (e.g. the critpath blame shares).
DEFAULT_SNAPSHOT_PATTERNS = ("sim.*", "matcher.*", "farm.row.*")

_LABEL = re.compile(r"(\w+)=([^,}]*)")


def _parse_label(label_str: str) -> dict:
    """``"{family=fig8a,kind=x}"`` -> ``{"family": "fig8a", "kind": "x"}``."""
    return dict(_LABEL.findall(label_str or ""))


def _series_suffix(label_str: str) -> str:
    labels = _parse_label(label_str)
    if not labels:
        return "all"
    if set(labels) == {"family"}:
        return labels["family"]
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def new_run_meta(
    source: str,
    *,
    calibration_s: Optional[float] = None,
    quick: Optional[bool] = None,
    fingerprint: Optional[str] = None,
    run_id: Optional[str] = None,
    python: Optional[str] = None,
    now: Optional[float] = None,
) -> RunMeta:
    """Run metadata with every provenance field resolved.

    Defaults are looked up from the environment: current git HEAD,
    source-tree fingerprint, interpreter version, wall-clock time, and
    a fresh spin-loop calibration when none is supplied.
    """
    import platform

    from ...farm.fingerprint import code_fingerprint, git_sha

    now = time.time() if now is None else now
    fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
    sha = git_sha()
    run_id = (
        run_id
        if run_id is not None
        else f"{source}-{int(now * 1e6):x}-{fingerprint[:8]}"
    )
    return RunMeta(
        run_id=run_id,
        source=source,
        git_sha=sha,
        fingerprint=fingerprint,
        python=python if python is not None else platform.python_version(),
        time_s=now,
        quick=quick,
        calibration_s=(
            calibration_s if calibration_s is not None else spin_calibration()
        ),
    )


# -- farm runs ----------------------------------------------------------------


def snapshot_samples(
    snapshot: Mapping[str, dict],
    patterns: Sequence[str] = DEFAULT_SNAPSHOT_PATTERNS,
) -> List[Sample]:
    """Exact series for counters/gauges in a registry snapshot.

    Histograms are skipped (their summaries are machine-dependent
    timings and belong to dedicated timing series).
    """
    out: List[Sample] = []
    for name in sorted(snapshot):
        if not any(fnmatchcase(name, p) for p in patterns):
            continue
        entry = snapshot[name]
        if entry.get("kind") not in ("counter", "gauge"):
            continue
        for label_str in sorted(entry.get("series", {})):
            value = entry["series"][label_str]
            if not isinstance(value, (int, float)):
                continue
            out.append(
                Sample(
                    series=f"{name}/{_series_suffix(label_str)}",
                    value=float(value),
                    raw=float(value),
                    unit="count",
                    kind="exact",
                )
            )
    return out


def farm_samples(
    summary: Mapping[str, object], calibration_s: float
) -> List[Sample]:
    """Trend samples of one farm run summary (``last-run.json`` schema).

    Per executed family: the mean per-point wall-clock, normalized.
    A fully cached run yields no samples at all.
    """
    metrics = summary.get("metrics") or {}
    samples: List[Sample] = []
    durations = metrics.get("farm.point.duration_ms", {})
    for label_str in sorted(durations.get("series", {})):
        digest = durations["series"][label_str]
        if not isinstance(digest, dict) or not digest.get("count"):
            continue
        mean_ms = float(digest["sum"]) / int(digest["count"])
        samples.append(
            Sample(
                series=f"farm.duration_ms/{_series_suffix(label_str)}",
                value=(mean_ms / 1000.0) / calibration_s,
                raw=mean_ms,
                unit="ms",
                kind="timing",
                n=int(digest["count"]),
            )
        )
    if not samples:
        return []  # fully cached run: nothing executed, nothing to trend
    executed = summary.get("executed") or 0
    duration_s = summary.get("duration_s")
    if isinstance(duration_s, (int, float)) and executed:
        samples.append(
            Sample(
                series="farm.run.duration_s",
                value=float(duration_s) / calibration_s,
                raw=float(duration_s),
                unit="s",
                kind="timing",
                n=int(executed),
            )
        )
    samples.extend(snapshot_samples(metrics))
    return samples


def record_farm_summary(
    store: TrendStore,
    summary: Mapping[str, object],
    *,
    calibration_s: Optional[float] = None,
    meta: Optional[RunMeta] = None,
) -> Optional[Tuple[RunMeta, int]]:
    """Append one farm run to the trend store.

    Returns ``(meta, rows_written)``, or ``None`` when the run was
    fully cached (nothing executed, nothing recorded).
    """
    if meta is None:
        meta = new_run_meta(
            "farm",
            calibration_s=calibration_s,
            fingerprint=summary.get("fingerprint") or None,
        )
    if not meta.calibration_s:
        raise ValueError("farm trend recording needs a calibration_s in the run meta")
    samples = farm_samples(summary, meta.calibration_s)
    if not samples:
        return None
    return meta, store.append_run(meta, samples)


# -- bench runs ---------------------------------------------------------------


def bench_samples(report: Mapping[str, object]) -> List[Sample]:
    """Trend samples of one ``bench_wallclock`` report."""
    samples: List[Sample] = []
    for name in sorted(report.get("benchmarks") or {}):
        rec = report["benchmarks"][name]
        samples.append(
            Sample(
                series=f"bench.normalized/{name}",
                value=float(rec["normalized"]),
                raw=float(rec.get("wall_s", 0.0)),
                unit="s",
                kind="timing",
            )
        )
        if "virtual_ns" in rec:
            samples.append(
                Sample(
                    series=f"bench.virtual_ns/{name}",
                    value=float(rec["virtual_ns"]),
                    raw=float(rec["virtual_ns"]),
                    unit="ns",
                    kind="exact",
                )
            )
        if "idle_slices_skipped" in rec:
            samples.append(
                Sample(
                    series=f"bench.idle_slices_skipped/{name}",
                    value=float(rec["idle_slices_skipped"]),
                    raw=float(rec["idle_slices_skipped"]),
                    unit="count",
                    kind="exact",
                )
            )
        if "peak_rss_mib" in rec:
            # Peak RSS varies run-to-run with allocator/interpreter
            # noise, so it trends like a timing (median+MAD tolerance),
            # not as an exact series.  The value is the process-wide
            # high-water mark observed after this benchmark ran (the
            # kernel counter is cumulative and monotone).
            samples.append(
                Sample(
                    series=f"bench.rss/{name}",
                    value=float(rec["peak_rss_mib"]),
                    raw=float(rec["peak_rss_mib"]),
                    unit="MiB",
                    kind="timing",
                )
            )
        if "gc_collections" in rec:
            # Collector activity inside the timed region.  Usually zero
            # after the harness's warm-up freeze; creeping upward means
            # the hot path started allocating cyclic garbage again.
            samples.append(
                Sample(
                    series=f"bench.gc/{name}.collections",
                    value=float(rec["gc_collections"]),
                    raw=float(rec["gc_collections"]),
                    unit="collections",
                    kind="timing",
                )
            )
        if "gc_objects" in rec:
            # Live tracked-object population after the benchmark — the
            # flat-footprint signal that lazily built nodes hold down.
            samples.append(
                Sample(
                    series=f"bench.gc/{name}.objects",
                    value=float(rec["gc_objects"]),
                    raw=float(rec["gc_objects"]),
                    unit="objects",
                    kind="timing",
                )
            )
    return samples


def record_bench_report(
    store: TrendStore,
    report: Mapping[str, object],
    *,
    source: str = "bench",
    meta: Optional[RunMeta] = None,
) -> Tuple[RunMeta, int]:
    """Append one bench report to the trend store.

    The report already carries its own ``calibration_s`` (timings in it
    are normalized by that very value), so no new calibration runs.
    """
    if meta is None:
        meta = new_run_meta(
            source,
            calibration_s=float(report.get("calibration_s") or 0.0) or None,
            quick=bool(report.get("quick")),
            python=str(report.get("python") or "") or None,
            run_id=("seed-baseline" if source == "seed" else None),
        )
    return meta, store.append_run(meta, bench_samples(report))
