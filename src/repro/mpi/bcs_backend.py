"""MPI on top of BCS-MPI: the BCS API (paper Appendix A) bound to one rank.

Every MPI primitive maps to one BCS call (paper Figure 13):

===================  ==========================================
MPI                  BCS
===================  ==========================================
MPI_Send/Isend       bcs_send(blocking / non-blocking)
MPI_Recv/Irecv       bcs_recv(blocking / non-blocking)
MPI_Iprobe           bcs_probe
MPI_Test/Wait        bcs_test(non-blocking / blocking)
MPI_Testall/Waitall  bcs_testall(non-blocking / blocking)
MPI_Barrier          bcs_barrier
MPI_Bcast            bcs_bcast
MPI_Reduce           bcs_reduce(non-all)
MPI_Allreduce        bcs_reduce(all)
scatter/gather/...   composed over the NIC p2p primitives
===================  ==========================================

Posting is a plain call (it only writes a descriptor into NIC memory —
no system call); its small host cost is accumulated on the rank handle
and charged at the next yield point.  Blocking calls post and then hand
the process to the Node Manager, which restarts it at a slice boundary
once the NIC signals completion.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

from ..bcs.descriptors import (
    UNLIMITED,
    BcsRequest,
    CollectiveDescriptor,
    RecvDescriptor,
    SendDescriptor,
    _copy_payload,
    payload_nbytes,
)
from ..bcs.runtime import QUIET_FOREVER
from ..obs import call_site
from .communicator import ANY_SOURCE, ANY_TAG, Communicator
from .ops import resolve


class BcsCommunicator(Communicator):
    """An MPI communicator backed by the BCS-MPI runtime: the BCS API
    bound to one rank of one communicator."""

    def __init__(self, runtime, handle, info, comm_rank: int):
        self._runtime = runtime
        self._env = runtime.env
        self._handle = handle
        self._info = info
        self._rank = comm_rank

    def _on(self, info, comm_rank: int) -> "BcsCommunicator":
        return BcsCommunicator(self._runtime, self._handle, info, comm_rank)

    # -- point-to-point ----------------------------------------------------------

    def isend(self, data: Any = None, dest: int = 0, tag: int = 0, size=None) -> BcsRequest:
        """bcs_send(non-blocking): post a send descriptor."""
        self._check_rank(dest, "destination")
        info = self._info
        runtime = self._runtime
        handle = self._handle
        nbytes = payload_nbytes(data, size)
        req = BcsRequest(self._env, "send")
        desc = SendDescriptor(
            info.job.id, info.comm_id, self._rank, dest, tag, nbytes, req,
            payload=data,
            seq=handle.next_send_seq(info.comm_id, dest),
            desc_id=next(runtime.desc_ids),
            src_node=handle.node_id,
            dst_node=info.node_of(dest),
        )
        handle.nrt.post_send(desc)
        handle.pending_overhead += runtime.config.descriptor_post_cost
        stats = runtime.job_stats.get(info.job.id)
        if stats is not None:
            stats["messages"] += 1
            stats["bytes"] += nbytes
        if runtime.obs is not None:
            self._log_post(req, ("msg", desc.desc_id), "send", nbytes, tag)
        if runtime.config.buffered_sends:
            # Buffered coscheduling: the payload is snapshotted at post
            # time and the send buffer is immediately reusable, so the
            # request is complete as far as the sender is concerned.
            desc.payload = _copy_payload(data)
            req._finish()
        return req

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, size=None) -> BcsRequest:
        """bcs_recv(non-blocking): post a receive descriptor."""
        self._check_rank(source, "source")
        info = self._info
        runtime = self._runtime
        req = BcsRequest(self._env, "recv")
        capacity = UNLIMITED if size is None else size
        desc = RecvDescriptor(
            info.job.id, info.comm_id, self._rank, source, tag, capacity, req,
            desc_id=next(runtime.desc_ids),
        )
        handle = self._handle
        handle.nrt.post_recv(desc)
        handle.pending_overhead += runtime.config.descriptor_post_cost
        if runtime.obs is not None:
            self._log_post(req, ("recv", desc.desc_id), "recv", 0, tag)
        return req

    def send(self, data: Any = None, dest: int = 0, tag: int = 0, size=None) -> Generator:
        """bcs_send(blocking)."""
        req = self.isend(data, dest, tag, size)
        yield from self._wait([req])

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, size=None) -> Generator:
        """bcs_recv(blocking); returns the delivered payload."""
        req = self.irecv(source, tag, size)
        yield from self._wait([req])
        return req.payload

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """bcs_probe(non-blocking): is a matching message pending?

        Looks at the unexpected queue the BR maintains — a message whose
        descriptor has arrived but has no posted receive yet.
        """
        self._check_rank(source, "source")
        info = self._info
        return self._handle.nrt.matcher.probe(
            info.job.id, info.comm_id, self._rank, source, tag
        )

    def cancel(self, req: BcsRequest) -> bool:
        """MPI_Cancel: withdraw an unmatched non-blocking receive.

        Succeeds only while the descriptor is still cancellable — in the
        posting FIFO or in the BR's pending-receive list, not yet
        matched to a sender.  Returns True if cancelled (the request
        then completes with a None payload), False if the match already
        happened (the message will be delivered normally).
        """
        if req.kind != "recv":
            raise ValueError("only receive requests can be cancelled")
        if req.complete:
            return False
        nrt = self._handle.nrt
        queued = [d for d in nrt.posted_recvs if d.request is req]
        if queued:
            nrt.posted_recvs.remove(queued[0])
        elif not nrt.matcher.withdraw(req):
            return False
        req.error = None
        req.payload = None
        req._finish()
        self._runtime.stats["recvs_cancelled"] += 1
        return True

    # -- completion ------------------------------------------------------------------

    def wait(self, req: BcsRequest) -> Generator:
        yield from self._wait([req])
        return req.payload

    def waitall(self, reqs: Sequence[BcsRequest]) -> Generator:
        yield from self._wait(reqs)
        return [r.payload for r in reqs]

    # -- collectives -------------------------------------------------------------------

    def barrier(self) -> Generator:
        """bcs_barrier."""
        req = self._post_collective("barrier")
        yield from self._wait([req])

    def bcast(self, data: Any = None, root: int = 0, size=None) -> Generator:
        """bcs_bcast; every rank returns the broadcast payload."""
        req = self._post_collective("bcast", root=root, payload=data, size=size)
        yield from self._wait([req])
        return req.payload

    def reduce(self, data: Any, op, root: int = 0) -> Generator:
        """bcs_reduce(non-all)."""
        req = self._post_collective(
            "reduce", root=root, op=resolve(op).kernel, payload=data
        )
        yield from self._wait([req])
        return req.payload

    def allreduce(self, data: Any, op) -> Generator:
        """bcs_reduce(all)."""
        req = self._post_collective(
            "allreduce", root=0, op=resolve(op).kernel, payload=data
        )
        yield from self._wait([req])
        return req.payload

    # -- internals ------------------------------------------------------------------------------

    def _post_collective(self, kind, root=0, op=None, payload=None, size=None) -> BcsRequest:
        """Post a collective descriptor (barrier/bcast/reduce/allreduce)."""
        if kind not in ("barrier", "bcast", "reduce", "allreduce"):
            raise ValueError(f"unknown collective kind {kind!r}")
        self._check_rank(root, "root")
        info = self._info
        runtime = self._runtime
        handle = self._handle
        req = BcsRequest(self._env, kind)
        epoch = handle.next_epoch(info.comm_id)
        desc = CollectiveDescriptor(
            info.job.id, info.comm_id, kind, self._rank, root, epoch, req,
            op=op,
            size=payload_nbytes(payload, size),
            payload=payload,
            desc_id=next(runtime.desc_ids),
        )
        handle.nrt.post_collective(desc)
        handle.pending_overhead += runtime.config.descriptor_post_cost
        stats = runtime.job_stats.get(info.job.id)
        if stats is not None:
            stats["collectives"] += 1
        if runtime.obs is not None:
            job = runtime.job_index[info.job.id]
            ref = ("coll", (job, info.comm_id, epoch))
            self._log_post(req, ref, kind, desc.size, 0)
        return req

    def _wait(self, reqs: Sequence[BcsRequest]) -> Generator:
        """bcs_test(blocking): suspend until done, restart at a slice
        boundary.

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
        handle = self._handle
        env = self._env
        overhead = handle.take_overhead()
        t0 = env.now + overhead
        runtime = self._runtime
        cutoff = runtime.slice_start_time
        early = not overhead
        if not early and t0 < cutoff + runtime.config.timeslice:
            for r in reqs:
                if r.posted_at <= cutoff and not r.complete:
                    break
            else:
                early = True
        if not early:
            early = t0 < runtime.sr_idle_until
        wake = handle.nm.block_on(reqs) if early else None
        if wake is None and overhead:
            yield env.timeout(overhead)
            if not early:
                wake = handle.nm.block_on(reqs)
        if wake is not None:
            handle.quiet_until = QUIET_FOREVER
            yield wake
            handle.quiet_until = 0
        blocked = env.now - t0
        if blocked:
            stats = runtime.job_stats.get(handle.job.id)
            if stats is not None:
                stats["blocked_ns"] += blocked
        obs = runtime.obs
        if obs is not None:
            t1 = env.now
            waited = tuple(
                (t1 if r.completed_at is None else r.completed_at, r.ref)
                for r in reqs
                if r.ref is not None
            )
            obs.events.append((
                t1,
                "wait",
                runtime.job_index[handle.job.id],
                handle.world_rank,
                f"wait({reqs[0].kind})" if reqs else "wait",
                t0,
                call_site(),
                waited,
            ))

    def _log_post(self, req, ref, op, nbytes, tag) -> None:
        """Log one descriptor post; ``ref`` names it in later wait entries."""
        req.ref = ref
        runtime = self._runtime
        runtime.obs.events.append((
            self._env.now,
            "post",
            ref,
            runtime.job_index[self._info.job.id],
            self._handle.world_rank,
            op,
            nbytes,
            tag,
            call_site(),
        ))
