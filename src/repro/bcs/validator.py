"""Protocol invariant checking from the protocol log.

The BCS protocol makes strong structural promises: microphases run in
DEM → MSM → P2P → BBM → RM order within each slice, the scheduling
phase respects its minimum budget, every participant of a microphase
reports it before the microphase closes, point-to-point payload moves
only inside the point-to-point microphase, and slice boundaries are
strict multiples of the time slice.  :class:`ProtocolValidator` re-derives all
of that from the telemetry hub's protocol log
(:attr:`repro.obs.Observability.events`) and reports violations — used
by the property tests to assert that *any* workload drives the machine
correctly::

    obs = Observability()
    runtime.attach_observability(obs)
    ... run ...
    ProtocolValidator(obs.events, config.timeslice).assert_clean()
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, Iterable, List, Tuple

from .strobe import MICROPHASES

_PHASE_INDEX = {p: i for i, p in enumerate(MICROPHASES)}


@dataclass
class Violation:
    """One broken invariant."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


def _coverage(windows: Iterable[Tuple[int, int]]) -> Callable[[int], bool]:
    """Membership test for the union of closed windows ``[start, end]``.

    The windows are sorted once; a query bisects for the windows that
    start at or before ``t`` and compares ``t`` with the furthest end
    among them.
    """
    ordered = sorted(windows)
    starts = [start for start, _ in ordered]
    reach = list(accumulate((end for _, end in ordered), max))

    def covers(t: int) -> bool:
        i = bisect_right(starts, t)
        return i > 0 and reach[i - 1] >= t

    return covers


class ProtocolValidator:
    """Validates slice-machine invariants recorded in a protocol log."""

    def __init__(self, events: List[tuple], timeslice: int, scheduling_min: int = 0):
        self.events = events
        self.timeslice = timeslice
        self.scheduling_min = scheduling_min
        #: slice_no -> list of (phase, start, end)
        self.phases: Dict[int, List[Tuple[str, int, int]]] = {}
        for event in events:
            if event[1] == "phase":
                t, _, slice_no, phase, duration = event
                self.phases.setdefault(slice_no, []).append((phase, t - duration, t))
        for spans in self.phases.values():
            spans.sort(key=lambda s: s[1])

    # -- individual checks --------------------------------------------------------

    def check_phase_order(self) -> List[Violation]:
        """Microphases appear in protocol order and never overlap."""
        out = []
        for slice_no, spans in self.phases.items():
            indices = [_PHASE_INDEX[p] for p, _, _ in spans]
            if indices != sorted(indices):
                out.append(
                    Violation(
                        "phase-order",
                        f"slice {slice_no}: phases {[p for p, _, _ in spans]}",
                    )
                )
            for (_, _, end_a), (_, start_b, _) in zip(spans, spans[1:]):
                if start_b < end_a:
                    out.append(
                        Violation(
                            "phase-overlap",
                            f"slice {slice_no}: next phase starts at {start_b} "
                            f"before previous ends at {end_a}",
                        )
                    )
        return out

    def check_slice_alignment(self) -> List[Violation]:
        """The first microphase of a slice starts at a slice boundary
        (modulo the strobe delivery latency, bounded by one slice)."""
        out = []
        for slice_no, spans in self.phases.items():
            first_start = spans[0][1]
            offset = first_start % self.timeslice
            if offset > self.timeslice // 2:
                out.append(
                    Violation(
                        "slice-alignment",
                        f"slice {slice_no}: DEM starts {offset} ns past a boundary",
                    )
                )
        return out

    def check_scheduling_budget(self) -> List[Violation]:
        """DEM+MSM meet the configured minimum in every active slice."""
        out = []
        if not self.scheduling_min:
            return out
        for slice_no, spans in self.phases.items():
            sched = sum(end - start for p, start, end in spans if p in ("DEM", "MSM"))
            have_both = {p for p, _, _ in spans} >= {"DEM", "MSM"}
            if have_both and sched < self.scheduling_min:
                out.append(
                    Violation(
                        "scheduling-budget",
                        f"slice {slice_no}: DEM+MSM = {sched} < {self.scheduling_min}",
                    )
                )
        return out

    def check_phase_completion(self) -> List[Violation]:
        """Every participant reports each microphase once, inside it.

        The Strobe Sender closes a microphase with a Compare-And-Write
        that holds once every participant has finished it (paper §4.2):
        a ``phase_begin`` for ``n`` participants gets ``n`` ``node_phase``
        reports for its ``(slice, phase)`` from ``n`` distinct nodes, none
        starting before the begin and none ending after the close.  A
        microphase without a logged begin or close is not checked.
        """
        begins, reports = {}, {}
        for event in self.events:
            if event[1] == "phase_begin":
                begins[event[2], event[3]] = (event[0], event[4])
            elif event[1] == "node_phase":
                t1, _, node, slice_no, phase, t0 = event
                reports.setdefault((slice_no, phase), []).append((node, t0, t1))
        out = []
        for slice_no, spans in self.phases.items():
            for phase, _, close in spans:
                if (slice_no, phase) not in begins:
                    continue
                begin, n = begins[slice_no, phase]
                got = reports.get((slice_no, phase), [])
                nodes = {node for node, _, _ in got}
                where = f"slice {slice_no} {phase}"
                if len(got) != n or len(nodes) != n:
                    out.append(Violation("phase-completion", f"{where}: {len(got)} reports "
                                         f"from {len(nodes)} nodes for {n} participants"))
                outside = sorted(node for node, t0, t1 in got if t0 < begin or t1 > close)
                if outside:
                    out.append(Violation("phase-report-outside", f"{where}: nodes {outside} "
                                         f"reported outside [{begin}, {close}]"))
        return out

    def _unicasts_outside(self, label: str, phase: str) -> List[tuple]:
        """``label`` unicasts that complete outside every ``phase`` window."""
        covers = _coverage(
            (start, end)
            for spans in self.phases.values()
            for p, start, end in spans
            if p == phase
        )
        return [
            e
            for e in self.events
            if e[1] == "unicast" and e[5] == label and not covers(e[0])
        ]

    def check_p2p_containment(self) -> List[Violation]:
        """Bulk p2p transfers complete inside a P2P microphase."""
        return [
            Violation(
                "p2p-outside-phase",
                f"transfer {src}->{dst} completed at {done} "
                "outside every P2P microphase",
            )
            for done, _, src, dst, _, _ in self._unicasts_outside("p2p", "P2P")
        ]

    def check_descriptor_containment(self) -> List[Violation]:
        """Descriptor exchanges complete inside a DEM microphase."""
        return [
            Violation(
                "desc-outside-dem",
                f"descriptor to node {dst} delivered at {done} "
                "outside every DEM microphase",
            )
            for done, _, _, dst, _, _ in self._unicasts_outside("desc", "DEM")
        ]

    # -- aggregate ---------------------------------------------------------------------

    def validate(self) -> List[Violation]:
        """Run every check; returns all violations (empty = clean)."""
        out: List[Violation] = []
        out += self.check_phase_order()
        out += self.check_slice_alignment()
        out += self.check_scheduling_budget()
        out += self.check_phase_completion()
        out += self.check_p2p_containment()
        out += self.check_descriptor_containment()
        return out

    def assert_clean(self) -> None:
        """Raise AssertionError listing violations, if any."""
        violations = self.validate()
        if violations:
            raise AssertionError(
                "protocol violations:\n" + "\n".join(str(v) for v in violations)
            )
