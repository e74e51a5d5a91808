"""STORM job launching over the BCS core primitives.

STORM's headline result ([8]) is job launch orders of magnitude faster
than production launchers, achieved by pushing the binary and the launch
command through the hardware multicast (``Xfer-And-Signal``) and
collecting completion with the network conditional (``Compare-And-Write``).

This module reproduces that protocol on the simulated machine, and is
what :class:`repro.storm.manager.MachineManager` uses to start jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from ..core import BcsCore
from ..units import mib


@dataclass(frozen=True)
class LaunchReport:
    """Timing breakdown of one job launch."""

    binary_bytes: int
    nodes: int
    transfer_ns: int
    spawn_ns: int
    total_ns: int


class StormLauncher:
    """Launches job binaries onto compute nodes via hardware multicast."""

    #: Host cost to fork+exec one process once the binary is local.
    SPAWN_COST = 700_000  # 0.7 ms, per STORM's measurements

    def __init__(self, core: BcsCore, mgmt_node: int):
        self.core = core
        core.fabric.shared = True
        self.mgmt_node = mgmt_node
        self.reports: List[LaunchReport] = []

    def launch_binary(
        self, nodes: List[int], binary_bytes: int = mib(8), procs_per_node: int = 1
    ) -> Generator:
        """Push a binary to ``nodes`` and spawn processes; returns a report.

        Protocol (STORM):
        1. MM multicasts the binary image to all target nodes
           (Xfer-And-Signal).
        2. Each NM forks/execs the local processes.
        3. MM polls completion with Compare-And-Write until every node
           reports ready.
        """
        env = self.core.env
        t0 = env.now

        # 1. Binary distribution on the hardware multicast.
        self.core.xfer_and_signal(
            self.mgmt_node,
            nodes,
            size=binary_bytes,
            addr="storm_binary",
            value=binary_bytes,
            local_event="storm_launch_sent",
            remote_event="storm_binary_here",
        )
        yield from self.core.test_event(self.mgmt_node, "storm_launch_sent")
        t_transfer = env.now - t0

        # 2. Local spawn on every node (in parallel; we charge the cost once
        # since nodes work concurrently).
        spawn = self.SPAWN_COST * procs_per_node
        for node in nodes:
            self.core.gas.write(node, "storm_ready", 1)
        yield env.timeout(spawn)

        # 3. Completion check via the network conditional.
        ok = yield from self.core.compare_and_write(
            self.mgmt_node, nodes, "storm_ready", ">=", 1, default=0
        )
        if not ok:  # pragma: no cover - writes above guarantee readiness
            raise RuntimeError("launch completion check failed")

        report = LaunchReport(
            binary_bytes=binary_bytes,
            nodes=len(nodes),
            transfer_ns=t_transfer,
            spawn_ns=spawn,
            total_ns=env.now - t0,
        )
        self.reports.append(report)
        return report
