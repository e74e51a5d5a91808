"""Gang scheduling / multiprogramming (MPL > 1).

The paper's first remedy for blocking-heavy applications: "schedule a
different parallel job whenever the application blocks for communication,
thus making use of the CPU" (§5.4).  STORM gang-schedules jobs in
lockstep with the BCS time slices: on every slice boundary one job is
*active* machine-wide; the Node Managers only let the active job's
processes compute.

Communication progresses for *all* jobs every slice (the NIC threads
don't care which job is active) — exactly the BCS property that makes
this form of multiprogramming cheap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..sim import Gate
from .job import Job

if TYPE_CHECKING:  # pragma: no cover
    from ..bcs.runtime import BcsRuntime


class GangScheduler:
    """Slice-synchronous round-robin gang scheduler."""

    def __init__(self, runtime: "BcsRuntime"):
        self.runtime = runtime
        self.jobs: List[Job] = []
        #: (job_id, node_id) -> Gate controlling that job's compute there.
        self.gates: Dict[tuple, Gate] = {}
        #: slice-indexed log of which job was active (for tests/reports).
        self.schedule_log: List[int] = []
        runtime.on_slice_start.append(self._tick)

    def add_job(self, job: Job) -> None:
        """Bring a job under gang control (call right after launch)."""
        self.jobs.append(job)
        for node_id in job.nodes:
            gate = Gate(self.runtime.env, is_open=False, name=f"gang{job.id}@{node_id}")
            self.gates[(job.id, node_id)] = gate
            self.runtime.node_runtimes[node_id].nm.job_gates[job.id] = gate
        self._apply()

    @property
    def alive_jobs(self) -> List[Job]:
        """Jobs that still have running ranks, in admission order."""
        return [j for j in self.jobs if not j.complete]

    def active_job(self) -> Job | None:
        """The job that owns the current slice."""
        alive = self.alive_jobs
        if not alive:
            return None
        return alive[self.runtime.slice_no % len(alive)]

    def _tick(self, slice_no: int) -> None:
        self._apply()
        active = self.active_job()
        self.schedule_log.append(-1 if active is None else active.id)

    def _apply(self) -> None:
        active = self.active_job()
        for (job_id, _node), gate in self.gates.items():
            wants_open = active is not None and job_id == active.id
            # A finished job's gates open so stragglers can drain.
            job = next(j for j in self.jobs if j.id == job_id)
            if job.complete:
                wants_open = True
            if wants_open and not gate.is_open:
                gate.open()
            elif not wants_open and gate.is_open:
                gate.close()
