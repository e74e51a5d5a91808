"""Slice-timeline analysis: what the runtime did with each time slice.

Build a :class:`Timeline` from the telemetry hub's protocol log
(:attr:`repro.obs.Observability.events`), then inspect per-slice
microphase durations, aggregate utilization, and a terminal-friendly
utilization strip — the observability layer a deterministic global
scheduler makes trivial (every slice has the same shape everywhere).
The microphase track itself is drawn by the hub's Perfetto trace
(``repro trace``).

Usage::

    obs = Observability()
    runtime.attach_observability(obs)
    ... run ...
    timeline = Timeline.from_events(obs.events, timeslice=us(500))
    print(timeline.report())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..units import to_us

#: Utilization strip glyphs, from idle to saturated.
_GLYPHS = " .:-=+*#%@"


@dataclass
class SliceRecord:
    """Microphase durations of one active slice."""

    slice_no: int
    start: int
    phases: Dict[str, int] = field(default_factory=dict)

    @property
    def busy_ns(self) -> int:
        """Total time spent in microphases this slice."""
        return sum(self.phases.values())


class Timeline:
    """Per-slice activity extracted from a protocol log."""

    def __init__(self, slices: List[SliceRecord], timeslice: int):
        if timeslice <= 0:
            raise ValueError("timeslice must be positive")
        self.slices = sorted(slices, key=lambda s: s.slice_no)
        self.timeslice = timeslice

    @classmethod
    def from_events(cls, events: List[tuple], timeslice: int) -> "Timeline":
        """Assemble slice records from the log's microphase entries."""
        by_slice: Dict[int, SliceRecord] = {}
        for event in events:
            if event[1] != "phase":
                continue
            t, _, sl, phase, duration = event
            start = t - duration
            entry = by_slice.get(sl)
            if entry is None:
                entry = by_slice[sl] = SliceRecord(slice_no=sl, start=start)
            entry.start = min(entry.start, start)
            entry.phases[phase] = entry.phases.get(phase, 0) + duration
        return cls(list(by_slice.values()), timeslice)

    # -- aggregates ---------------------------------------------------------------

    @property
    def n_active_slices(self) -> int:
        """Slices that ran at least one microphase."""
        return len(self.slices)

    def utilization(self, record: SliceRecord) -> float:
        """Fraction of one slice spent in microphases (may exceed 1 on
        overrun)."""
        return record.busy_ns / self.timeslice

    def mean_phase_durations(self) -> Dict[str, float]:
        """Average duration (us) of each microphase over active slices."""
        totals: Dict[str, int] = {}
        counts: Dict[str, int] = {}
        for record in self.slices:
            for phase, duration in record.phases.items():
                totals[phase] = totals.get(phase, 0) + duration
                counts[phase] = counts.get(phase, 0) + 1
        return {p: to_us(totals[p] / counts[p]) for p in totals}

    def scheduling_phase_us(self) -> Optional[float]:
        """Mean DEM+MSM duration (us) — the paper's ~125 us quantity."""
        means = self.mean_phase_durations()
        if "DEM" not in means or "MSM" not in means:
            return None
        return means["DEM"] + means["MSM"]

    # -- rendering -------------------------------------------------------------------

    def utilization_strip(self, width: int = 60) -> str:
        """One character per bucket of slices, darker = busier."""
        if not self.slices:
            return ""
        first = self.slices[0].slice_no
        last = self.slices[-1].slice_no
        span = max(last - first + 1, 1)
        buckets = [0.0] * min(width, span)
        per_bucket = span / len(buckets)
        for record in self.slices:
            idx = min(int((record.slice_no - first) / per_bucket), len(buckets) - 1)
            buckets[idx] = max(buckets[idx], min(self.utilization(record), 1.0))
        return "".join(
            _GLYPHS[min(int(u * (len(_GLYPHS) - 1) + 0.5), len(_GLYPHS) - 1)]
            for u in buckets
        )

    def report(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"active slices: {self.n_active_slices}",
        ]
        means = self.mean_phase_durations()
        for phase in ("DEM", "MSM", "P2P", "BBM", "RM"):
            if phase in means:
                lines.append(f"  mean {phase}: {means[phase]:8.1f} us")
        sched = self.scheduling_phase_us()
        if sched is not None:
            lines.append(f"  global message scheduling (DEM+MSM): {sched:.1f} us")
        strip = self.utilization_strip()
        if strip:
            lines.append(f"utilization |{strip}|")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<Timeline active_slices={self.n_active_slices}>"
