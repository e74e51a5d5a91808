"""Machine Manager heartbeats.

STORM's MM "coordinates the use of system resources issuing regular
heartbeats" (paper §4.1).  In BCS-MPI the heartbeat *is* the strobe; this
module provides the standalone variant used for resource management when
no BCS runtime is active, plus liveness accounting useful for the fault
tolerance direction the paper sketches in §6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import BcsCore
from ..units import ms


@dataclass
class HeartbeatStats:
    """Liveness bookkeeping."""

    sent: int = 0
    responses: Dict[int, int] = field(default_factory=dict)
    missed: Dict[int, int] = field(default_factory=dict)


class HeartbeatService:
    """Periodic multicast heartbeat with network-conditional liveness check."""

    def __init__(
        self,
        core: BcsCore,
        mgmt_node: int,
        nodes: List[int],
        period: int = ms(10),
    ):
        self.core = core
        core.fabric.shared = True
        self.mgmt_node = mgmt_node
        self.nodes = list(nodes)
        self.period = period
        self.stats = HeartbeatStats(responses={n: 0 for n in nodes}, missed={n: 0 for n in nodes})
        #: Nodes that stop echoing (simulated failures; see fail()).
        self._dead: set[int] = set()
        self._proc = None

    def start(self, rounds: Optional[int] = None) -> None:
        """Begin heartbeating (``rounds`` bounds the loop for tests)."""
        self._proc = self.core.env.process(self._run(rounds), name="heartbeat")

    def fail(self, node: int) -> None:
        """Mark a node dead: it stops acknowledging heartbeats."""
        self._dead.add(node)

    def alive(self) -> List[int]:
        """Nodes currently believed alive."""
        return [n for n in self.nodes if n not in self._dead]

    def _run(self, rounds: Optional[int]):
        env = self.core.env
        beat = 0
        while rounds is None or beat < rounds:
            beat += 1
            self.stats.sent += 1
            # Heartbeat out (Xfer-And-Signal to every node).
            self.core.xfer_and_signal(
                self.mgmt_node,
                self.nodes,
                size=64,
                addr="hb_seq",
                value=beat,
                local_event="hb_sent",
            )
            yield from self.core.test_event(self.mgmt_node, "hb_sent")
            # Live nodes echo by bumping their counter in global memory.
            for node in self.nodes:
                if node not in self._dead:
                    self.core.gas.write(node, "hb_ack", beat)
                    self.stats.responses[node] += 1
            # Liveness check: did *all* nodes ack this beat?
            all_alive = yield from self.core.compare_and_write(
                self.mgmt_node, self.nodes, "hb_ack", ">=", beat, default=0
            )
            if not all_alive:
                for node in self.nodes:
                    if self.core.gas.read(node, "hb_ack", 0) < beat:
                        self.stats.missed[node] += 1
            yield env.timeout(self.period)
