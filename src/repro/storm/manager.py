"""STORM Machine Manager / Node Manager facade.

Ties the resource-management pieces together: job launch over the
hardware multicast and heartbeats on top of a BCS runtime.  This is the
"single source of system services" story of the paper's Figure 1:
everything here is built from the same three core primitives the
communication library uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..core import BcsCore
from ..network import Cluster
from ..units import mib, ms
from .heartbeat import HeartbeatService
from .job import Job, JobSpec
from .launcher import LaunchReport, StormLauncher

if TYPE_CHECKING:  # pragma: no cover
    from ..bcs.runtime import BcsRuntime


class MachineManager:
    """The MM dæmon on the management node."""

    def __init__(self, runtime: "BcsRuntime", heartbeat_period: int = ms(10)):
        self.runtime = runtime
        self.cluster: Cluster = runtime.cluster
        self.core: BcsCore = runtime.core
        mgmt = self.cluster.management_node.id
        self.launcher = StormLauncher(self.core, mgmt)
        self.heartbeat = HeartbeatService(
            self.core,
            mgmt,
            [n.id for n in self.cluster.compute_nodes],
            period=heartbeat_period,
        )
        self.launch_reports: List[LaunchReport] = []

    def submit(self, spec: JobSpec, binary_bytes: int = mib(8)) -> Job:
        """Full STORM submission path: distribute binary, then start ranks.

        Returns the :class:`Job`; run the engine until ``job.done``.
        """
        env = self.runtime.env
        placement = None  # default block placement
        job_box: List[Job] = []

        def submission():
            # Figure out target nodes from the default placement.
            from ..storm.job import block_placement

            nodes = sorted(
                set(
                    block_placement(
                        spec.n_ranks,
                        self.cluster.n_compute_nodes,
                        self.cluster.spec.cpus_per_node,
                    )
                )
            )
            report = yield from self.launcher.launch_binary(
                nodes, binary_bytes, procs_per_node=self.cluster.spec.cpus_per_node
            )
            self.launch_reports.append(report)
            job = self.runtime.launch(spec, placement)
            job_box.append(job)

        proc = env.process(submission(), name=f"storm.submit:{spec.name}")
        env.run(until=proc)
        return job_box[0]
