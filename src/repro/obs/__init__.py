"""Observability: metrics, trace export, and MPI profiling.

The telemetry layer for the BCS-MPI simulation (see
docs/OBSERVABILITY.md).  One event stream feeds every view:

- :class:`Observability` — the hub the runtime logs into
  (``runtime.attach_observability(Observability())``).  Its ``events``
  list is the protocol log, one ``(t, kind, ...)`` tuple per
  instrumented action; the flight recorder, the protocol validator and
  the slice timeline read it, and the views below are folds over it,
  replayed when read (``obs.registry``, ``obs.perfetto``,
  ``obs.profiler``, ``obs.spans``);
- :class:`MetricsRegistry` — labeled counters, gauges, and histograms
  with exact p50/p95/p99 summaries;
- :class:`PerfettoTrace` — Chrome/Perfetto trace-event JSON export,
  one track group per node plus NIC-thread tracks and message flow
  arrows;
- :class:`MpiProfiler` — per-rank, per-call-site virtual-time
  attribution with an mpiP-style report;
- :class:`SpanTracker` + :func:`critical_path` — causal
  message-lifecycle spans and the virtual-time critical-path blame
  breakdown (``repro explain``).

Everything here is passive: logging never touches the event queue, so
an instrumented run takes exactly the same virtual time as a bare one.
"""

from .critpath import BlameReport, CATEGORIES, critical_path
from .perfetto import PerfettoTrace
from .profiler import MpiProfiler, call_site
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from .spans import CollectiveSpan, MessageSpan, SpanTracker
from .telemetry import Observability, PHASE_THREADS

__all__ = [
    "BlameReport",
    "CATEGORIES",
    "CollectiveSpan",
    "Counter",
    "Gauge",
    "Histogram",
    "MessageSpan",
    "MetricsRegistry",
    "MpiProfiler",
    "Observability",
    "PHASE_THREADS",
    "PerfettoTrace",
    "SpanTracker",
    "call_site",
    "critical_path",
    "percentile",
]
