"""The Node Manager dæmon: local process scheduling.

In the paper's user-level prototype the NM (not the kernel) schedules the
application processes at every time slice (§4.5).  Two consequences are
modelled here:

1. **Restart at slice boundaries** — a process whose blocking operation
   completed during slice *i* is restarted at the beginning of slice
   *i+1* (the 1.5-slice average delay of §3.1).  Implemented by
   :meth:`block_on`, which the BCS API uses for every blocking call.
2. **The scheduling tax** — the NM daemon steals host cycles every slice;
   computation is stretched by ``nm_compute_tax`` (this is the §4.5
   "noise" anomaly of the user-level implementation, and what a
   kernel-level implementation would remove).

With gang scheduling (STORM extension), the NM additionally only lets a
job's processes compute while that job holds the node — see
:mod:`repro.storm.gang`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Signal
    from .descriptors import BcsRequest
    from .threads import NodeRuntime


class Blocked:
    """A rank suspended in :meth:`NodeManager.block_on`.

    Each pending request holds this record and releases it once on
    completion; the last release enlists ``wake`` on the node's slice
    signal, so the next slice boundary restarts the rank.  Nothing
    resumes the rank in between.
    """

    __slots__ = ("signal", "wake", "pending")

    def __init__(self, signal: "Signal", wake: Event, pending: int):
        self.signal = signal
        self.wake = wake
        self.pending = pending

    def release(self) -> None:
        self.pending -= 1
        if not self.pending:
            self.signal.enlist(self.wake)


class NodeManager:
    """Per-node process scheduler of the BCS runtime."""

    def __init__(self, nrt: "NodeRuntime"):
        self.nrt = nrt
        self.env = nrt.env
        #: Optional gang-scheduling hook: job_id -> Gate (see storm.gang).
        self.job_gates: dict = {}

    # -- computation ------------------------------------------------------------

    def compute(self, job_id: int, duration: int):
        """Run ``duration`` ns of application computation.

        The effective duration includes the NM tax; the node's CPU
        resource serializes against other local processes and noise
        daemons.  Under gang scheduling the computation only progresses
        while the job holds the node.
        """
        if duration <= 0:
            return
        effective = duration + int(duration * self.nrt.config.nm_compute_tax)
        stats = self.nrt.runtime.job_stats.get(job_id)
        if stats is not None:
            stats["cpu_ns"] += effective
        gate = self.job_gates.get(job_id)
        if gate is None:
            yield from self.nrt.node.host_compute(effective)
            return
        # Gang-scheduled: compute in slice-bounded quanta while active.
        remaining = effective
        cfg = self.nrt.config
        while remaining > 0:
            yield gate.wait()
            quantum_end = self.nrt.slice_start_time + cfg.timeslice
            quantum = min(remaining, max(quantum_end - self.env.now, cfg.timeslice // 8))
            yield from self.nrt.node.cpu.held(quantum)
            remaining -= quantum

    # -- blocking -------------------------------------------------------------------

    def block_on(self, requests: Sequence["BcsRequest"]) -> Optional[Event]:
        """The event a process yields to wait until every request
        completes and then restart at the next slice boundary.

        Returns None if everything is already complete: the process
        continues immediately (this is what makes completed non-blocking
        communication free, §3.2).  Otherwise the completion of the last
        pending request enlists the returned event on the node's slice
        signal (:class:`Blocked`), so the process is resumed once, by the
        boundary that restarts it."""
        # Distinct requests only: a handle listed twice completes once.
        pending = [r for r in dict.fromkeys(requests) if not r.complete]
        if not pending:
            return None
        signal = self.nrt.slice_start
        wake = Event(self.env, name=f"wait:{signal.name}")
        blocked = Blocked(signal, wake, len(pending))
        for r in pending:
            r.blocked = blocked
        return wake

    def __repr__(self) -> str:
        return f"<NodeManager node={self.nrt.node_id}>"
