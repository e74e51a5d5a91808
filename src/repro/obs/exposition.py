"""Prometheus/OpenMetrics text exposition of the metrics registry.

Renders every registry instrument in the OpenMetrics text format
(``# TYPE``/``# HELP`` metadata, ``# EOF`` terminator, counters with the
``_total`` sample suffix), which Prometheus' text parser also accepts:

- counters   → ``# TYPE <name> counter`` + ``<name>_total`` samples;
- gauges     → ``# TYPE <name> gauge`` + plain samples;
- histograms → ``# TYPE <name> summary`` with the registry's **exact**
  percentiles as ``quantile="0.5"/"0.95"/"0.99"`` series plus
  ``_sum``/``_count`` — no bucketing, the same numbers
  :meth:`~repro.obs.registry.Histogram.summary` reports.

Metric names are sanitized (``farm.queue.depth`` →
``farm_queue_depth``); label values are escaped per the exposition
format (``\\``, ``"``, newline), so the registry's cardinality-overflow
series ``{overflow="dropped"}`` and any label value round-trip legally.

The renderer accepts either a live :class:`MetricsRegistry` or the
snapshot dict one persists (``registry.snapshot()``, the ``"metrics"``
block of a farm ``last-run.json``); both render the same document.
:func:`parse_exposition` is the parser-level half of the round-trip
tests.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Tuple, Union

from .registry import MetricsRegistry

__all__ = [
    "parse_exposition",
    "render_exposition",
]

#: Exact-percentile summary series rendered per histogram.
_QUANTILES: Tuple[Tuple[str, str], ...] = (
    ("0.5", "p50"),
    ("0.95", "p95"),
    ("0.99", "p99"),
)

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_OK = re.compile(r"[^a-zA-Z0-9_]")

LabelPairs = Tuple[Tuple[str, str], ...]


def _metric_name(name: str) -> str:
    """``farm.queue.depth`` → ``farm_queue_depth`` (exposition-legal)."""
    out = _NAME_OK.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out or "_"


def _label_name(name: str) -> str:
    out = _LABEL_OK.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out or "_"


def _escape_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_value(value: str) -> str:
    out: List[str] = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, "\\" + nxt))
    return "".join(out)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _render_labels(pairs: Iterable[Tuple[str, str]]) -> str:
    body = ",".join(
        f'{_label_name(k)}="{_escape_value(str(v))}"' for k, v in pairs
    )
    return "{" + body + "}" if body else ""


def _parse_label_string(label_str: str) -> LabelPairs:
    """Snapshot label strings (``{a=1,b=x}``) back to pairs.

    Snapshot strings come from :func:`repro.obs.registry._format_labels`
    — values are unquoted and, by the same convention the trend label
    parser relies on, comma-free.
    """
    body = label_str.strip()
    if body.startswith("{"):
        body = body[1:-1]
    if not body:
        return ()
    pairs = []
    for part in body.split(","):
        key, _, value = part.partition("=")
        pairs.append((key, value))
    return tuple(pairs)


def _iter_entries(source):
    """Normalize a registry or snapshot into (name, kind, series) rows.

    ``series`` is a list of ``(label_pairs, value)`` where histogram
    values are the summary dict every report uses.
    """
    if isinstance(source, MetricsRegistry):
        for name in source.names():
            kind = source.kind(name)
            series = source.series(name)
            rows = []
            for key in sorted(series):
                inst = series[key]
                rows.append(
                    (key, inst.summary() if kind == "histogram" else inst.value)
                )
            yield name, kind, rows
        return
    for name in sorted(source):
        entry = source[name]
        rows = [
            (_parse_label_string(label_str), entry["series"][label_str])
            for label_str in sorted(entry["series"])
        ]
        yield name, entry["kind"], rows


def render_exposition(
    source: Union[MetricsRegistry, dict], namespace: str = ""
) -> str:
    """The full exposition document, ``# EOF``-terminated.

    ``source`` is a live registry or a ``registry.snapshot()`` dict;
    ``namespace`` optionally prefixes every metric name
    (``namespace_<name>``).  Deterministic: sorted at every level, so
    the same source always renders the same bytes.
    """
    lines: List[str] = []
    seen: Dict[str, str] = {}
    for name, kind, rows in _iter_entries(source):
        prom = _metric_name((namespace + "_" if namespace else "") + name)
        if seen.get(prom, kind) != kind:
            # Two source names collapsed onto one exposition name with
            # different kinds; keep both by suffixing the later one.
            prom = f"{prom}_{kind}"
        seen[prom] = kind
        prom_type = "summary" if kind == "histogram" else kind
        lines.append(f"# TYPE {prom} {prom_type}")
        lines.append(f"# HELP {prom} {_escape_help(f'repro {kind} {name}')}")
        for pairs, value in rows:
            if kind == "counter":
                lines.append(
                    f"{prom}_total{_render_labels(pairs)} {_format_value(value)}"
                )
            elif kind == "gauge":
                lines.append(
                    f"{prom}{_render_labels(pairs)} {_format_value(value)}"
                )
            else:  # histogram summary
                summary = value if isinstance(value, dict) else {"count": 0}
                for quantile, pkey in _QUANTILES:
                    if pkey not in summary:
                        continue
                    q_pairs = tuple(pairs) + (("quantile", quantile),)
                    lines.append(
                        f"{prom}{_render_labels(q_pairs)} "
                        f"{_format_value(summary[pkey])}"
                    )
                lines.append(
                    f"{prom}_sum{_render_labels(pairs)} "
                    f"{_format_value(summary.get('sum', 0))}"
                )
                lines.append(
                    f"{prom}_count{_render_labels(pairs)} "
                    f"{_format_value(summary.get('count', 0))}"
                )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)\s*$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> Dict[str, dict]:
    """Parse an exposition document back into metric families.

    Returns ``{family_name: {"type": ..., "help": ..., "samples":
    [(sample_name, {label: value}, float_value), ...]}}``.  Samples are
    attached to the family whose name is the longest declared prefix of
    the sample name (so ``x_total``/``x_sum``/``x_count`` land under
    ``x``).  Raises ``ValueError`` on a malformed sample line — this is
    the parser the round-trip tests trust.
    """
    families: Dict[str, dict] = {}
    declared: List[str] = []
    saw_eof = False
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if line == "# EOF":
            saw_eof = True
            break
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, typ = rest.partition(" ")
            families.setdefault(name, {"type": None, "help": None, "samples": []})
            families[name]["type"] = typ
            declared.append(name)
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(name, {"type": None, "help": None, "samples": []})
            families[name]["help"] = _unescape_value(help_text)
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if m is None:
            raise ValueError(f"malformed sample line: {line!r}")
        sample_name, label_body, value = m.group(1), m.group(2), m.group(3)
        labels = {
            lm.group(1): _unescape_value(lm.group(2))
            for lm in _LABEL.finditer(label_body or "")
        }
        family = sample_name
        for candidate in sorted(declared, key=len, reverse=True):
            if sample_name == candidate or sample_name.startswith(
                candidate + "_"
            ):
                family = candidate
                break
        families.setdefault(family, {"type": None, "help": None, "samples": []})
        families[family]["samples"].append((sample_name, labels, float(value)))
    if not saw_eof:
        raise ValueError("exposition document is not '# EOF'-terminated")
    return families
