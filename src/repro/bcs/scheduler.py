"""The Message Scheduling Microphase budget allocator.

Once the Buffer Receivers have built match descriptors, the scheduled
transfers for the slice must collectively fit into the transmission
phase.  The allocator grants each match a chunk bounded by the per-link
byte budget of both endpoints; what doesn't fit is carried to following
slices ("the first chunk of the message is scheduled during the current
time slice and the remaining chunks in the following time slices",
paper §4.3).

Grant order is deterministic: in-flight matches (partially transferred)
first, then new matches, each in creation order — so a large message
cannot starve behind a stream of later arrivals, and two runs of the
same program schedule identically.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from .config import BcsConfig
from .descriptors import Match


class SliceScheduler:
    """Allocates per-slice transfer budgets to matches."""

    def __init__(self, config: BcsConfig, link_bandwidth: float):
        self.config = config
        self.link_bandwidth = link_bandwidth
        self.budget_bytes = config.p2p_slice_budget_bytes(link_bandwidth)
        #: Matches with bytes still to move, oldest first.
        self.in_flight: List[Match] = []

    def add_matches(self, matches: Iterable[Match]) -> None:
        """Queue freshly built matches behind the in-flight ones."""
        self.in_flight.extend(matches)

    def schedule_slice(self) -> List[Match]:
        """Grant this slice's chunks; returns matches with work to do.

        Resets every match's ``scheduled_now`` and assigns grants subject
        to each endpoint's remaining tx/rx budget for the slice.
        """
        budget = self.budget_bytes
        tx_left: Dict[int, int] = {}
        rx_left: Dict[int, int] = {}
        granted: List[Match] = []

        # User traffic first, then system-class traffic (PFS etc.) into
        # the leftover budget: the QoS split of paper §1.
        ordered = [m for m in self.in_flight if not m.system] + [
            m for m in self.in_flight if m.system
        ]
        for match in ordered:
            match.scheduled_now = 0
            if match.total_bytes == 0:
                # Zero-byte messages (e.g. pure synchronization sends)
                # still need a delivery pass but consume no budget.
                granted.append(match)
                continue
            tx = tx_left.get(match.src_node, budget)
            rx = rx_left.get(match.dst_node, budget)
            grant = min(match.remaining, tx, rx)
            if grant <= 0:
                continue
            match.scheduled_now = grant
            tx_left[match.src_node] = tx - grant
            rx_left[match.dst_node] = rx - grant
            granted.append(match)
        return granted

    def retire_finished(self) -> List[Match]:
        """Drop completed matches from the in-flight list."""
        finished, kept = [], []
        for m in self.in_flight:
            (finished if m.finished else kept).append(m)
        if finished:
            self.in_flight = kept
        return finished

    @property
    def backlog_bytes(self) -> int:
        """Total bytes still waiting across all in-flight matches."""
        return sum(m.remaining for m in self.in_flight)

    def __repr__(self) -> str:
        return (
            f"<SliceScheduler in_flight={len(self.in_flight)} "
            f"budget={self.budget_bytes}B backlog={self.backlog_bytes}B>"
        )
