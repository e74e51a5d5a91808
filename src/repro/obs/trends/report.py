"""Rendering: per-family trend tables, ASCII sparklines, JSON reports.

Everything renders deterministically from store contents: same store,
same bytes.  The JSON report is the CI artifact — Perfetto-free, one
object per series with the detector's verdict attached, so a dashboard
(or a later bisect) needs no Python to consume it.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence

from .detect import DetectorConfig, RegressionDetector, Verdict
from .store import TrendStore

__all__ = [
    "json_report",
    "render_chart",
    "render_report",
    "render_verdicts",
    "sparkline",
]

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """The last ``width`` values as unicode block characters.

    Scaled min..max over the shown window.  A flat series (including a
    single observation) renders as a run of the middle block — the value
    is neither a low nor a high, and the lowest block reads as "near
    zero" on a dashboard.
    """
    shown = [float(v) for v in values][-width:]
    if not shown:
        return ""
    lo, hi = min(shown), max(shown)
    if hi <= lo:
        return _SPARK_BLOCKS[len(_SPARK_BLOCKS) // 2] * len(shown)
    span = hi - lo
    out = []
    for v in shown:
        idx = int((v - lo) / span * (len(_SPARK_BLOCKS) - 1))
        out.append(_SPARK_BLOCKS[idx])
    return "".join(out)


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Minimal aligned table (kept local so ``repro trend`` imports stay
    free of the experiment harness)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.3f}"


def _grouped(
    store: TrendStore, series_glob: Optional[str]
) -> Dict[str, List[str]]:
    """Series ids grouped by metric (the part before the first ``/``)."""
    groups: Dict[str, List[str]] = {}
    for series_id in store.series_ids():
        if series_glob and not fnmatchcase(series_id, series_glob):
            continue
        metric = series_id.split("/", 1)[0]
        groups.setdefault(metric, []).append(series_id)
    return groups


def render_report(
    store: TrendStore,
    config: Optional[DetectorConfig] = None,
    series_glob: Optional[str] = None,
) -> str:
    """Per-metric tables: one row per series with verdict + sparkline."""
    detector = RegressionDetector(config)
    groups = _grouped(store, series_glob)
    if not groups:
        return "trend store is empty (nothing recorded yet)"
    runs = store.runs()
    sections: List[str] = [
        f"== trend store: {len(runs)} run(s), "
        f"{sum(len(s) for s in groups.values())} series =="
    ]
    for metric in sorted(groups):
        rows = []
        for series_id in groups[metric]:
            v = detector.verdict(store, series_id)
            values = store.values(series_id)
            label = series_id.split("/", 1)[1] if "/" in series_id else "-"
            delta = (
                f"{(v.ratio - 1) * 100:+.1f}%" if v.ratio is not None else "-"
            )
            rows.append(
                [
                    label,
                    str(len(values)),
                    _fmt(v.last),
                    _fmt(v.baseline),
                    delta,
                    v.status,
                    sparkline(values),
                ]
            )
        sections.append(
            f"\n-- {metric} --\n"
            + _format_table(
                ["series", "runs", "last", "median", "Δ", "status", "trend"],
                rows,
            )
        )
    return "\n".join(sections)


def render_chart(
    store: TrendStore,
    series_id: str,
    width: int = 64,
    height: int = 10,
) -> str:
    """A full ASCII chart of one series (latest ``width`` runs)."""
    values = store.values(series_id)[-width:]
    if not values:
        return f"series {series_id!r}: no observations"
    lo, hi = min(values), max(values)
    # A flat series (every run equal — always the case with a single
    # observation) has no min..max scale; pinning it to the bottom row
    # would read as "near zero".  Draw it at mid-height and label the
    # one level it sits at.
    flat = hi <= lo
    mid_y = (height - 1) // 2
    grid = [[" "] * len(values) for _ in range(height)]
    for x, v in enumerate(values):
        y = mid_y if flat else int((v - lo) / (hi - lo) * (height - 1))
        for yy in range(y + 1):
            grid[height - 1 - yy][x] = "█" if yy == y else "│"
    lines = [
        f"{series_id}  (last {len(values)} runs, "
        + (f"flat at {lo:.4g})" if flat else f"min {lo:.4g}, max {hi:.4g})")
    ]
    for i, row in enumerate(grid):
        if flat:
            edge = lo if i == height - 1 - mid_y else None
        else:
            edge = hi if i == 0 else (lo if i == height - 1 else None)
        prefix = f"{edge:>10.4g} ┤" if edge is not None else " " * 10 + " ┤"
        lines.append(prefix + "".join(row))
    lines.append(" " * 11 + "└" + "─" * len(values))
    return "\n".join(lines)


def json_report(
    store: TrendStore,
    config: Optional[DetectorConfig] = None,
    series_glob: Optional[str] = None,
) -> dict:
    """Machine-readable verdict report for CI artifacts."""
    detector = RegressionDetector(config)
    verdicts = detector.verdicts(store, series_glob)
    worst = "ok"
    for v in verdicts:
        if v.status == "regress":
            worst = "regress"
            break
        if v.status == "warn":
            worst = "warn"
    return {
        "schema": 1,
        "runs": store.run_count(),
        "status": worst,
        "summary": RegressionDetector.summary(verdicts),
        "series": {
            v.series: {
                "status": v.status,
                "kind": v.kind,
                "last": v.last,
                "baseline": v.baseline,
                "ratio": v.ratio,
                "z": v.z,
                "n": v.n,
                "reason": v.reason,
            }
            for v in verdicts
        },
    }


def render_verdicts(verdicts: Sequence[Verdict]) -> str:
    """One line per series, regressions first — the ``check`` output."""
    order = {"regress": 0, "warn": 1, "short": 2, "ok": 3}
    rows = []
    for v in sorted(verdicts, key=lambda v: (order[v.status], v.series)):
        detail = v.reason or (
            f"last {_fmt(v.last)} vs median {_fmt(v.baseline)}"
            if v.last is not None
            else ""
        )
        rows.append([v.status.upper(), v.series, str(v.n), detail])
    if not rows:
        return "no matching series in the trend store"
    return _format_table(["status", "series", "runs", "detail"], rows)
