"""Plain-text reporting: the tables and series the paper prints."""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Print (and return) a titled table."""
    text = f"\n== {title} ==\n{format_table(headers, rows)}"
    print(text)
    return text


def metrics_report(obs) -> str:
    """Render an :class:`repro.obs.Observability` hub as report sections.

    Three tables: per-slice utilization and microphase durations
    (p50/p95/p99 from the histograms), counters/gauges, and per-node
    NIC-thread occupancy.  Output is deterministic — identical runs
    render byte-identical reports.
    """
    registry = obs.registry
    sections: List[str] = []

    hist_rows = []
    for name in registry.names():
        if registry.kind(name) != "histogram":
            continue
        for labels, hist in sorted(registry.series(name).items()):
            s = hist.summary()
            if s["count"] == 0:
                continue
            label = ",".join(f"{k}={v}" for k, v in labels)
            hist_rows.append(
                [
                    name + (f"{{{label}}}" if label else ""),
                    s["count"],
                    s["mean"],
                    s["p50"],
                    s["p95"],
                    s["p99"],
                    s["max"],
                ]
            )
    if hist_rows:
        sections.append(
            "== distributions ==\n"
            + format_table(
                ["metric", "count", "mean", "p50", "p95", "p99", "max"], hist_rows
            )
        )

    scalar_rows = []
    for name in registry.names():
        kind = registry.kind(name)
        if kind == "histogram":
            continue
        for labels, inst in sorted(registry.series(name).items()):
            label = ",".join(f"{k}={v}" for k, v in labels)
            scalar_rows.append(
                [name + (f"{{{label}}}" if label else ""), kind, inst.value]
            )
    if scalar_rows:
        sections.append(
            "== counters & gauges ==\n"
            + format_table(["metric", "kind", "value"], scalar_rows)
        )

    occupancy = obs.nic_occupancy()
    if occupancy:
        sections.append(
            "== NIC thread occupancy ==\n"
            + format_table(
                ["node", "busy_fraction"],
                [[node, f"{frac:.4f}"] for node, frac in sorted(occupancy.items())],
            )
        )
    return "\n\n".join(sections)
