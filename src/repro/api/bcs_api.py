"""The BCS API (paper Appendix A, Figure 12).

The layer between MPI and the runtime: ``bcs_send``, ``bcs_recv``,
``bcs_probe``, ``bcs_test``, ``bcs_testall``, ``bcs_barrier``,
``bcs_bcast``, ``bcs_reduce``, plus the composed vector operations.

Posting is a plain call (it only writes a descriptor into NIC memory —
no system call); its small host cost is accumulated on the rank handle
and charged at the next yield point.  Blocking variants are
sub-generators that post and then hand the process to the Node Manager,
which restarts it at a slice boundary once the NIC signals completion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence

from ..bcs.descriptors import (
    ANY_SOURCE,
    ANY_TAG,
    BcsRequest,
    CollectiveDescriptor,
    RecvDescriptor,
    SendDescriptor,
    payload_nbytes,
)
from ..bcs.runtime import QUIET_FOREVER
from ..bcs.threads import _copy_payload
from ..obs import call_site

if TYPE_CHECKING:  # pragma: no cover
    from ..bcs.runtime import BcsRuntime, CommInfo, RankHandle

#: Receive capacity used when the caller does not bound the buffer.
UNLIMITED = 1 << 62


class BcsApi:
    """The BCS communication API bound to one runtime."""

    def __init__(self, runtime: "BcsRuntime"):
        self.runtime = runtime
        self.env = runtime.env

    # -- posting (non-blocking halves) ---------------------------------------------

    def post_send(
        self,
        handle: "RankHandle",
        info: "CommInfo",
        src_rank: int,
        dest: int,
        payload: Any = None,
        tag: int = 0,
        size: Optional[int] = None,
    ) -> BcsRequest:
        """bcs_send(non-blocking): post a send descriptor."""
        if not 0 <= dest < info.size:
            raise ValueError(f"destination rank {dest} outside communicator")
        nbytes = payload_nbytes(payload, size)
        req = BcsRequest(self.env, "send")
        desc = SendDescriptor(
            info.job.id,
            info.comm_id,
            src_rank,
            dest,
            tag,
            nbytes,
            req,
            payload=payload,
            seq=handle.next_send_seq(info.comm_id, dest),
            desc_id=next(self.runtime.desc_ids),
        )
        handle.nrt.post_send(desc)
        handle.pending_overhead += self.runtime.config.descriptor_post_cost
        stats = self.runtime.job_stats.get(info.job.id)
        if stats is not None:
            stats["messages"] += 1
            stats["bytes"] += nbytes
        if self.runtime.obs is not None:
            self._log_post(handle, info, req, ("msg", desc.desc_id), "send", nbytes, tag)
        if self.runtime.config.buffered_sends:
            # Buffered coscheduling: the payload is snapshotted at post
            # time and the send buffer is immediately reusable, so the
            # request is complete as far as the sender is concerned.
            desc.payload = _copy_payload(payload)
            req._finish()
        return req

    def post_recv(
        self,
        handle: "RankHandle",
        info: "CommInfo",
        rank: int,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        size: Optional[int] = None,
    ) -> BcsRequest:
        """bcs_recv(non-blocking): post a receive descriptor."""
        if source != ANY_SOURCE and not 0 <= source < info.size:
            raise ValueError(f"source rank {source} outside communicator")
        req = BcsRequest(self.env, "recv")
        desc = RecvDescriptor(
            info.job.id,
            info.comm_id,
            rank,
            source,
            tag,
            UNLIMITED if size is None else size,
            req,
            desc_id=next(self.runtime.desc_ids),
        )
        handle.nrt.post_recv(desc)
        handle.pending_overhead += self.runtime.config.descriptor_post_cost
        if self.runtime.obs is not None:
            self._log_post(handle, info, req, ("recv", desc.desc_id), "recv", 0, tag)
        return req

    def post_collective(
        self,
        handle: "RankHandle",
        info: "CommInfo",
        rank: int,
        kind: str,
        root: int = 0,
        op: Optional[str] = None,
        payload: Any = None,
        size: Optional[int] = None,
    ) -> BcsRequest:
        """Post a collective descriptor (barrier/bcast/reduce/allreduce)."""
        if kind not in ("barrier", "bcast", "reduce", "allreduce"):
            raise ValueError(f"unknown collective kind {kind!r}")
        if not 0 <= root < info.size:
            raise ValueError(f"root rank {root} outside communicator")
        req = BcsRequest(self.env, kind)
        desc = CollectiveDescriptor(
            info.job.id,
            info.comm_id,
            kind,
            rank,
            root,
            handle.next_epoch(info.comm_id),
            req,
            op=op,
            size=payload_nbytes(payload, size),
            payload=payload,
            desc_id=next(self.runtime.desc_ids),
        )
        handle.nrt.post_collective(desc)
        handle.pending_overhead += self.runtime.config.descriptor_post_cost
        stats = self.runtime.job_stats.get(info.job.id)
        if stats is not None:
            stats["collectives"] += 1
        if self.runtime.obs is not None:
            job = self.runtime.job_index[info.job.id]
            ref = ("coll", (job, info.comm_id, desc.epoch))
            self._log_post(handle, info, req, ref, kind, desc.size, 0)
        return req

    # -- tests / waits ------------------------------------------------------------------

    def bcs_test(self, req: BcsRequest) -> bool:
        """Non-blocking completion check (reads NIC-visible state)."""
        return req.complete

    def cancel_recv(self, handle: "RankHandle", req: BcsRequest) -> bool:
        """MPI_Cancel for receives: withdraw an unmatched descriptor.

        Succeeds only while the descriptor is still cancellable — in the
        posting FIFO or in the BR's pending-receive list, not yet
        matched to a sender.  Returns True if cancelled (the request
        then completes with ``cancelled`` status), False if the match
        already happened (the message will be delivered normally).
        """
        if req.complete:
            return False
        nrt = handle.nrt
        queued = [d for d in nrt.posted_recvs if d.request is req]
        if queued:
            nrt.posted_recvs.remove(queued[0])
        elif not nrt.matcher.withdraw(req):
            return False
        req.error = None
        req.payload = None
        req._finish()
        self.runtime.stats["recvs_cancelled"] += 1
        return True

    def bcs_testall(self, reqs: Sequence[BcsRequest]) -> bool:
        """Non-blocking completion check for a set of requests."""
        return all(r.complete for r in reqs)

    def wait(self, handle: "RankHandle", reqs: Sequence[BcsRequest]) -> Generator:
        """Blocking test: suspend until done, restart at slice boundary.

        The rank first pays the host overhead of its posts, then blocks
        at ``t0``.  Only Strobe Receivers (and the rank itself) complete
        requests, so while none runs before ``t0`` the rank blocks at
        once, in the same entry: the requests it finds pending are those
        it would find at ``t0``, and the boundary that restarts it is the
        same.  It also blocks at once when every pending request was
        posted after this slice's DEM cutoff and ``t0`` comes before the
        next boundary: no DEM has drained those descriptors, so none can
        complete before that boundary.  A wait whose requests are all
        complete still pays the overhead, as does one that may overlap
        receiver work.
        """
        overhead = handle.take_overhead()
        t0 = self.env.now + overhead
        runtime = self.runtime
        cutoff = runtime.slice_start_time
        early = (
            not overhead
            or t0 < cutoff + runtime.config.timeslice
            and all(r.posted_at > cutoff or r.complete for r in reqs)
            or t0 < runtime.sr_idle_until
        )
        wake = handle.nm.block_on(reqs) if early else None
        if wake is None and overhead:
            yield self.env.timeout(overhead)
            if not early:
                wake = handle.nm.block_on(reqs)
        if wake is not None:
            handle.quiet_until = QUIET_FOREVER
            yield wake
            handle.quiet_until = 0
        blocked = self.env.now - t0
        if blocked:
            stats = self.runtime.job_stats.get(handle.job.id)
            if stats is not None:
                stats["blocked_ns"] += blocked
        obs = self.runtime.obs
        if obs is not None:
            t1 = self.env.now
            waited = tuple(
                (t1 if r.completed_at is None else r.completed_at, r.ref)
                for r in reqs
                if r.ref is not None
            )
            obs.events.append((
                t1,
                "wait",
                self.runtime.job_index[handle.job.id],
                handle.world_rank,
                f"wait({reqs[0].kind})" if reqs else "wait",
                t0,
                call_site(),
                waited,
            ))

    def probe(self, handle: "RankHandle", info, rank, source, tag) -> bool:
        """bcs_probe(non-blocking): is a matching message pending?

        Looks at the unexpected queue the BR maintains — a message whose
        descriptor has arrived but has no posted receive yet.
        """
        probe_recv = RecvDescriptor(
            job_id=info.job.id,
            comm_id=info.comm_id,
            rank=rank,
            src_rank=source,
            tag=tag,
            capacity=UNLIMITED,
            request=None,
        )
        return any(
            probe_recv.matches(s) for s in handle.nrt.matcher.unexpected
        )

    # -- blocking convenience wrappers -----------------------------------------------------

    def send(self, handle, info, src_rank, dest, payload=None, tag=0, size=None):
        """bcs_send(blocking)."""
        req = self.post_send(handle, info, src_rank, dest, payload, tag, size)
        yield from self.wait(handle, [req])
        return req

    def recv(self, handle, info, rank, source=ANY_SOURCE, tag=ANY_TAG, size=None):
        """bcs_recv(blocking); returns the completed request."""
        req = self.post_recv(handle, info, rank, source, tag, size)
        yield from self.wait(handle, [req])
        return req

    def barrier(self, handle, info, rank):
        """bcs_barrier."""
        req = self.post_collective(handle, info, rank, "barrier")
        yield from self.wait(handle, [req])

    def bcast(self, handle, info, rank, payload=None, root=0, size=None):
        """bcs_bcast; every rank returns the broadcast payload."""
        req = self.post_collective(
            handle, info, rank, "bcast", root=root, payload=payload, size=size
        )
        yield from self.wait(handle, [req])
        return req.payload

    def reduce(self, handle, info, rank, payload, op, root=0, all_ranks=False):
        """bcs_reduce (``all_ranks`` selects the allreduce variant)."""
        kind = "allreduce" if all_ranks else "reduce"
        req = self.post_collective(
            handle, info, rank, kind, root=root, op=op, payload=payload
        )
        yield from self.wait(handle, [req])
        return req.payload

    # -- internals ------------------------------------------------------------------------------

    def _log_post(self, handle, info, req, ref, op, nbytes, tag) -> None:
        """Log one descriptor post; ``ref`` names it in later wait entries."""
        req.ref = ref
        runtime = self.runtime
        runtime.obs.events.append((
            self.env.now,
            "post",
            ref,
            runtime.job_index[info.job.id],
            handle.world_rank,
            op,
            nbytes,
            tag,
            call_site(),
        ))
