"""Labeled metrics: counters, gauges, and histograms with summaries.

The registry is the single aggregation point for everything the
instrumented runtime measures.  Instruments are identified by a metric
name plus a label set (``registry.counter("bcs.slice.count",
kind="active")``); the same (name, labels) pair always returns the same
instrument, so hot paths can either cache the instrument or re-look it
up — both are cheap dict operations.

Design constraints inherited from the simulator:

- **Determinism** — iteration order of every rendering/snapshot method is
  sorted, never insertion-dependent, so two identical runs produce
  byte-identical reports.
- **No virtual-time impact** — nothing here touches the event queue;
  recording a sample is pure Python bookkeeping.
- **Bounded cardinality** — a metric stops growing past
  ``max_series_per_metric`` distinct label sets (protects against
  accidentally labeling by message id or timestamp).  Overflowing
  samples are routed to a shared per-metric overflow series and counted
  in the self-describing ``obs.labels_dropped`` counter, so the cap
  never silently loses data and never crashes a hot path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
]


def percentile(samples: Iterable[float], p: float) -> float:
    """Nearest-rank percentile of ``samples`` (``p`` in [0, 100]).

    Deterministic and exact: sorts a copy, picks the ceil(p/100 * n)-th
    smallest sample.  Raises ``ValueError`` on an empty input.
    """
    data = sorted(samples)
    if not data:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if p == 0.0:
        return data[0]
    rank = -(-p * len(data) // 100)  # ceil without float error
    return data[int(rank) - 1]


LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}{_format_labels(self.labels)}={self.value}>"


class Gauge:
    """A value that can go up and down (queue depth, backlog bytes)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount

    def __repr__(self) -> str:
        return f"<Gauge {self.name}{_format_labels(self.labels)}={self.value}>"


class Histogram:
    """A sample distribution with exact percentile queries.

    Samples are kept verbatim (simulation runs are short enough that
    exactness beats bucketing); ``summary()`` gives the p50/p95/p99 view
    every report uses.
    """

    __slots__ = ("name", "labels", "samples")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return self.total / len(self.samples)

    def percentile(self, p: float) -> float:
        return percentile(self.samples, p)

    def summary(self) -> dict:
        """count/mean/min/max plus p50, p95, p99 — the standard digest."""
        if not self.samples:
            return {"count": 0}
        return {
            "count": len(self.samples),
            "sum": self.total,
            "mean": self.mean,
            "min": min(self.samples),
            "max": max(self.samples),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return (
            f"<Histogram {self.name}{_format_labels(self.labels)} "
            f"n={len(self.samples)}>"
        )


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

#: Label set of the shared per-metric overflow series — where samples
#: land once a metric hits its cardinality cap.
_OVERFLOW_KEY: LabelKey = (("overflow", "dropped"),)

#: Self-describing counter of label sets refused by the cap, labeled by
#: the offending metric.  Exempt from the cap itself (its cardinality is
#: bounded by the number of metric names).
_DROPPED_METRIC = "obs.labels_dropped"


class MetricsRegistry:
    """Registry of named, labeled instruments."""

    def __init__(self, max_series_per_metric: int = 1024):
        self.max_series_per_metric = max_series_per_metric
        #: name -> kind ("counter"/"gauge"/"histogram")
        self._kinds: Dict[str, str] = {}
        #: name -> {label_key -> instrument}
        self._series: Dict[str, Dict[LabelKey, object]] = {}

    # -- instrument access --------------------------------------------------------

    def _get(self, kind: str, name: str, labels: dict):
        have = self._kinds.get(name)
        if have is None:
            self._kinds[name] = kind
            self._series[name] = {}
        elif have != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {have}, not a {kind}"
            )
        series = self._series[name]
        key = _label_key(labels)
        inst = series.get(key)
        if inst is None:
            if (
                len(series) >= self.max_series_per_metric
                and name != _DROPPED_METRIC
            ):
                return self._overflow(kind, name, series)
            inst = _KINDS[kind](name, key)
            series[key] = inst
        return inst

    def _overflow(self, kind: str, name: str, series: dict):
        """Route a refused label set to the metric's shared overflow series.

        Counts the drop in ``obs.labels_dropped{metric=<name>}`` so the
        collapse is visible in every snapshot/render, then returns the
        per-metric overflow instrument — same kind, labels
        ``{overflow=dropped}`` — so the sample itself is still recorded.
        """
        self.counter(_DROPPED_METRIC, metric=name).inc()
        inst = series.get(_OVERFLOW_KEY)
        if inst is None:
            inst = _KINDS[kind](name, _OVERFLOW_KEY)
            series[_OVERFLOW_KEY] = inst
        return inst

    def counter(self, name: str, **labels) -> Counter:
        """The counter ``name`` with the given labels (created on first use)."""
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge ``name`` with the given labels."""
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        """The histogram ``name`` with the given labels."""
        return self._get("histogram", name, labels)

    # -- introspection -----------------------------------------------------------

    def kind(self, name: str) -> Optional[str]:
        """Instrument kind of ``name`` (None if never used)."""
        return self._kinds.get(name)

    def series(self, name: str) -> Dict[LabelKey, object]:
        """All instruments of one metric, keyed by label tuple."""
        return dict(self._series.get(name, {}))

    def names(self) -> List[str]:
        """All metric names, sorted."""
        return sorted(self._kinds)

    def snapshot(self) -> dict:
        """Deterministic nested dict of every instrument's current value.

        ``{name: {"kind": ..., "series": {label_string: value_or_summary}}}``
        sorted at every level — safe to JSON-dump and diff across runs.
        """
        out: dict = {}
        for name in self.names():
            kind = self._kinds[name]
            series = {}
            for key in sorted(self._series[name]):
                inst = self._series[name][key]
                label_str = _format_labels(key) or "{}"
                if kind == "histogram":
                    series[label_str] = inst.summary()
                else:
                    series[label_str] = inst.value
            out[name] = {"kind": kind, "series": series}
        return out

    def reset(self) -> None:
        """Drop every instrument (names, labels, and values)."""
        self._kinds.clear()
        self._series.clear()

    # -- rendering ----------------------------------------------------------------

    def render(self) -> str:
        """Plain-text report: one line per series, sorted, stable."""
        lines: List[str] = []
        for name in self.names():
            kind = self._kinds[name]
            for key in sorted(self._series[name]):
                inst = self._series[name][key]
                label = _format_labels(key)
                if kind == "histogram":
                    s = inst.summary()
                    if s["count"] == 0:
                        lines.append(f"{name}{label} count=0")
                        continue
                    lines.append(
                        f"{name}{label} count={s['count']} mean={s['mean']:.1f} "
                        f"p50={s['p50']:.1f} p95={s['p95']:.1f} "
                        f"p99={s['p99']:.1f} max={s['max']:.1f}"
                    )
                else:
                    lines.append(f"{name}{label} {inst.value}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        n = sum(len(s) for s in self._series.values())
        return f"<MetricsRegistry metrics={len(self._kinds)} series={n}>"
