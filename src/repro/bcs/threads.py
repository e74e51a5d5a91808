"""Per-node runtime state and the five NIC threads (paper §4.1).

Each compute node runs, on its NIC:

- **BS** (Buffer Sender): during the Descriptor Exchange Microphase,
  delivers every send descriptor posted in the previous slice to the
  Buffer Receiver of the destination node.
- **BR** (Buffer Receiver): drains locally posted receive and collective
  descriptors; in the Message Scheduling Microphase matches remote send
  descriptors against local receives, chunks oversized messages, and for
  collectives issues the Compare-And-Write query broadcast.
- **DH** (DMA Helper): performs the scheduled point-to-point gets in the
  point-to-point microphase.
- **CH** (Collective Helper): performs barrier/broadcast in the
  broadcast-and-barrier microphase.
- **RH** (Reduce Helper): performs reduce/allreduce on the NIC in the
  reduce microphase, using a binomial tree.  The paper computes on the
  FPU-less NIC with SoftFloat; the simulator charges that work per
  element and computes the value with numpy (:func:`repro.mpi.ops.combine`).

The Strobe Receiver logic that wakes these threads per microphase lives
in :mod:`repro.bcs.strobe`; this module holds the thread bodies and
:class:`NodeRuntime`, the one per-node object, which builds the threads,
the Node Manager and the Strobe Receiver and keeps the state they share.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..mpi.ops import combine
from ..sim import Latch, Signal
from .config import BcsConfig
from .descriptors import (
    CollectiveDescriptor,
    Match,
    RecvDescriptor,
    SendDescriptor,
    _copy_payload,
    payload_nbytes,
    posted_before,
)
from .matching import HashMatcher, LinearMatcher
from .node_manager import NodeManager
from .strobe import StrobeReceiver

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import BcsRuntime

#: The collective kinds the BBM and RM microphases run.
BBM_KINDS = ("barrier", "bcast")
RM_KINDS = ("reduce", "allreduce")


class CollEpoch:
    """One in-flight collective epoch of one communicator on one node."""

    __slots__ = ("epoch", "kind", "root", "op", "size", "descs")

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.kind: Optional[str] = None
        self.root: Optional[int] = None
        self.op: Optional[str] = None
        self.size: int = 0
        #: Local descriptors (one per local rank that has posted).
        self.descs: List[CollectiveDescriptor] = []

    def absorb(self, desc: CollectiveDescriptor) -> None:
        """Record one local rank's descriptor (consistency-checked)."""
        if self.kind is None:
            self.kind = desc.kind
            self.root = desc.root
            self.op = desc.op
            self.size = desc.size
        elif (self.kind, self.root) != (desc.kind, desc.root):
            raise RuntimeError(
                f"collective mismatch at epoch {self.epoch}: "
                f"{self.kind}/{self.root} vs {desc.kind}/{desc.root}"
            )
        self.descs.append(desc)


class _SliceSignal(Signal):
    """Slice-boundary signal that registers its node as a wake target.

    The Strobe Sender only pulses signals that have waiters (in
    ascending node id, preserving the historical wake order); pulsing a
    waiter-less signal is a no-op, so skipping it cannot change what any
    process observes.  The first waiter enlisted since the last boundary
    adds the node to the runtime's wake set.
    """

    __slots__ = ("_nrt",)

    def __init__(self, nrt: "NodeRuntime"):
        super().__init__(nrt.env, name=f"n{nrt.node_id}.slice")
        self._nrt = nrt

    def enlist(self, ev) -> None:
        if not self._waiters:
            nrt = self._nrt
            nrt.runtime._slice_waiters.add(nrt.node_id)
        self._waiters.append(ev)


class NodeRuntime:
    """Everything the BCS runtime keeps on one compute node."""

    def __init__(self, runtime: "BcsRuntime", node_id: int):
        self.runtime = runtime
        self.node_id = node_id
        self.node = runtime.cluster.node(node_id)
        self.nic = self.node.nic
        self.config: BcsConfig = runtime.config
        self.env = runtime.env
        # Lazily materialized nodes can be created after observability
        # was attached; inherit the hub so the fresh NIC reports
        # occupancy spans like its peers.  (Nodes built with the runtime
        # exist before any ``obs``: binding covers those.)
        obs = getattr(runtime, "obs", None)
        if obs is not None:
            self.nic.obs = obs

        #: Pulsed by the Strobe Sender at every slice boundary; the Node
        #: Manager uses it to restart processes whose ops completed.
        self.slice_start = _SliceSignal(self)

        # Descriptor FIFOs (shared-memory post queues, paper §4.5).
        self.posted_sends: List[SendDescriptor] = []
        self.posted_recvs: List[RecvDescriptor] = []
        self.posted_colls: List[CollectiveDescriptor] = []

        # Active-set membership handles (shared with the runtime; a node
        # joins on the mutation that creates work, leaves lazily when a
        # query finds it idle — see repro.bcs.runtime).
        self._dem_set = runtime._dem_set
        self._arrived_set = runtime._arrived_set
        self._coll_set = runtime._coll_set

        # BR state.
        matcher_cls = HashMatcher if runtime.fast else LinearMatcher
        self.matcher = matcher_cls(node_id, runtime.matcher_totals)
        #: Send descriptors delivered by remote BS threads this slice.
        self.arrived_sends: List[SendDescriptor] = []
        #: Matches created in the current MSM (collected by the runtime).
        self.new_matches: List[Match] = []
        #: In-flight collective epochs per (job_id, comm_id).  An epoch
        #: goes when it executes, and a communicator's entry with its
        #: last epoch, so the node has collective work exactly when this
        #: is non-empty.  The flags the epochs advance live in global
        #: memory, one of each per communicator: ``("cflag", job, comm)``,
        #: the last epoch every local rank has posted, and ``("go", job,
        #: comm)``, the last epoch the master's Compare-And-Write released.
        self.coll_state: Dict[tuple, Dict[int, CollEpoch]] = {}
        #: Reduce partial buffers delivered by remote RH threads.
        self.reduce_inbox: Dict[tuple, list] = {}

        # The node's NIC threads, Node Manager and Strobe Receiver.  None
        # of them creates a simulation event (the receiver runs from the
        # microstrobe's callback), so building a node at launch or up
        # front leaves the heap, and virtual time, unchanged.
        self.bs = BufferSender(self)
        self.br = BufferReceiver(self)
        self.dh = DmaHelper(self)
        self.ch = CollectiveHelper(self)
        self.rh = ReduceHelper(self)
        self.nm = NodeManager(self)
        self.sr = StrobeReceiver(self)

    # -- host-side posting (called from application processes) ---------------------

    def post_send(self, desc: SendDescriptor) -> None:
        """Append a send descriptor to the NIC FIFO (no system call)."""
        desc.posted_at = self.env.now
        self.posted_sends.append(desc)
        self._dem_set.add(self.node_id)
        self.runtime.stats["descriptors_posted"] += 1

    def post_recv(self, desc: RecvDescriptor) -> None:
        """Append a receive descriptor to the NIC FIFO."""
        desc.posted_at = self.env.now
        self.posted_recvs.append(desc)
        self._dem_set.add(self.node_id)
        self.runtime.stats["descriptors_posted"] += 1

    def post_collective(self, desc: CollectiveDescriptor) -> None:
        """Append a collective descriptor to the NIC FIFO."""
        desc.posted_at = self.env.now
        self.posted_colls.append(desc)
        self._dem_set.add(self.node_id)
        self.runtime.stats["descriptors_posted"] += 1

    def deliver_send(self, desc: SendDescriptor) -> None:
        """Accept a send descriptor shipped by a remote Buffer Sender."""
        self.arrived_sends.append(desc)
        self._arrived_set.add(self.node_id)

    def has_work(self) -> bool:
        """Anything for the next slice's microphases to do on this node?"""
        return bool(
            self.posted_sends
            or self.posted_recvs
            or self.posted_colls
            or self.arrived_sends
            or self.coll_state
        )

    @property
    def slice_start_time(self) -> int:
        """Start time of the current slice.

        Shared machine state written once per slice by the Strobe Sender
        (``runtime.slice_start_time``) — the per-node ``begin_slice``
        loop it replaces cost O(nodes) per slice on idle clusters.
        """
        return self.runtime.slice_start_time

    def _drain_posted(self, queue: list) -> list:
        """Remove and return descriptors posted before this slice's DEM."""
        n = posted_before(queue, self.slice_start_time)
        take = queue[:n]
        del queue[:n]
        return take

    # -- collective helpers ------------------------------------------------------------

    def _epoch(self, job_id: int, comm_id: int, epoch: int) -> CollEpoch:
        epochs = self.coll_state.setdefault((job_id, comm_id), {})
        ep = epochs.get(epoch)
        if ep is None:
            ep = epochs[epoch] = CollEpoch(epoch)
            self._coll_set.add(self.node_id)
        return ep

    def schedulable(self):
        """Which epoch does this node's master schedule next?  Yields
        ``(info, epoch)`` for each communicator whose master this node
        hosts and whose epoch after ``go`` has been posted here."""
        runtime = self.runtime
        gas = runtime.core.gas
        for (job_id, comm_id), epochs in self.coll_state.items():
            info = runtime.comm_info(job_id, comm_id)
            if info.root_node == self.node_id:
                epoch = gas.read(self.node_id, ("go", job_id, comm_id), 0) + 1
                if epoch in epochs:
                    yield info, epoch

    def released(self, kinds: tuple, root_only: bool = False):
        """Which epochs of ``kinds`` are released here?  Yields ``(info,
        ep)`` for each epoch at or below its communicator's ``go``; with
        ``root_only``, only those whose root this node hosts.  A released
        epoch executes within its slice, so each communicator has at
        most one."""
        runtime = self.runtime
        gas = runtime.core.gas
        node = self.node_id
        for (job_id, comm_id), epochs in self.coll_state.items():
            for epoch, ep in epochs.items():
                if ep.kind in kinds and epoch <= gas.read(node, ("go", job_id, comm_id), 0):
                    info = runtime.comm_info(job_id, comm_id)
                    if not root_only or info.node_of(ep.root or 0) == node:
                        yield info, ep

    def complete_collective(self, job_id: int, comm_id: int, epoch: int, value) -> None:
        """Finish every local request of one collective epoch.

        Invoked at data-commit time (broadcast payload writer, or the
        reduce finalization): each blocked local rank's request gets its
        result and its process becomes eligible for restart at the next
        slice boundary.  The epoch record is dropped, and with the
        communicator's last one its entry, so state stays bounded.
        """
        key = (job_id, comm_id)
        epochs = self.coll_state.get(key)
        ep = epochs.pop(epoch, None) if epochs else None
        if ep is None:
            return
        if not epochs:
            del self.coll_state[key]
        for desc in ep.descs:
            if desc.kind == "reduce":
                # Only the MPI root receives the reduced value.
                result = value if desc.rank == (desc.root or 0) else None
            else:
                result = value
            desc.request.payload = _copy_payload(result)
            desc.request._finish()
        self.runtime.stats["collectives_completed"] += 1
        obs = self.runtime.obs
        if obs is not None:
            obs.events.append((
                self.env.now,
                "collective",
                self.node_id,
                comm_id,
                epoch,
                self.runtime.job_index[job_id],
            ))

    def __repr__(self) -> str:
        return f"<NodeRuntime node={self.node_id}>"


# ---------------------------------------------------------------------------------
# NIC threads
# ---------------------------------------------------------------------------------


class BufferSender:
    """BS: ships posted send descriptors to destination BRs (DEM)."""

    def __init__(self, nrt: NodeRuntime):
        self.nrt = nrt

    def dem_phase(self):
        """Deliver each send descriptor posted in the previous slice."""
        nrt = self.nrt
        node = nrt.node_id
        runtime = nrt.runtime
        fabric = runtime.cluster.fabric
        cost = nrt.config.nic_descriptor_cost
        size = nrt.config.descriptor_bytes
        obs = runtime.obs
        for desc in nrt._drain_posted(nrt.posted_sends):
            dst_node = desc.dst_node
            if dst_node == node:
                yield fabric.local_copy(nrt.nic, cost, size, "desc")
            else:
                yield from nrt.nic.compute(cost)
                yield fabric.transfer(node, dst_node, size, "desc")
            runtime.node_runtimes[dst_node].deliver_send(desc)
            runtime.stats["descriptors_exchanged"] += 1
            if obs is not None:
                obs.events.append(
                    (nrt.env.now, "exchange", desc.desc_id, node, dst_node)
                )


class BufferReceiver:
    """BR: drains local recv/collective descriptors (DEM) and matches (MSM)."""

    def __init__(self, nrt: NodeRuntime):
        self.nrt = nrt

    def dem_phase(self):
        """Pre-process local receive and collective descriptors.

        Under the fast engine the slice's descriptors are processed as
        one batch: a single NIC hold covers the whole run (``n``
        back-to-back holds of ``cost`` end at the same instant as one
        of ``n × cost``) and the matcher takes the receives as one
        batch, matched as if one at a time.  The reference engine's
        per-descriptor loop below is the differential oracle.
        """
        nrt = self.nrt
        cost = nrt.config.nic_descriptor_cost
        if nrt.runtime.fast:
            recvs = nrt._drain_posted(nrt.posted_recvs)
            if recvs:
                yield from nrt.nic.compute(cost, len(recvs))
                self._match(nrt.matcher.add_recv_batch, recvs, nrt.env.now)
            colls = nrt._drain_posted(nrt.posted_colls)
            if colls:
                yield from nrt.nic.compute(cost, len(colls))
                for desc in colls:
                    ep = nrt._epoch(desc.job_id, desc.comm_id, desc.epoch)
                    ep.absorb(desc)
            self._advance_local_flags()
            return

        for desc in nrt._drain_posted(nrt.posted_recvs):
            yield from nrt.nic.compute(cost)
            match = nrt.matcher.add_recv(desc)
            if match is not None:
                self._register_match(match, nrt.env.now)

        # Collectives: absorb descriptors; when all local ranks of a job
        # have posted an epoch, advance the node's local flag in global
        # memory (the variable the root's Compare-And-Write will test).
        for desc in nrt._drain_posted(nrt.posted_colls):
            yield from nrt.nic.compute(cost)
            ep = nrt._epoch(desc.job_id, desc.comm_id, desc.epoch)
            ep.absorb(desc)
        self._advance_local_flags()

    def _advance_local_flags(self):
        nrt = self.nrt
        node = nrt.node_id
        runtime = nrt.runtime
        gas = runtime.core.gas
        for (job_id, comm_id), epochs in nrt.coll_state.items():
            info = runtime.comm_info(job_id, comm_id)
            n_local = len(info.node_ranks.get(node, ()))
            addr = ("cflag", job_id, comm_id)
            posted = flag = gas.read(node, addr, 0)
            while flag + 1 in epochs and len(epochs[flag + 1].descs) == n_local:
                flag += 1
            if flag != posted:
                gas.write(node, addr, flag)

    def msm_phase(self):
        """Match remote sends vs local recvs; CaW-schedule collectives."""
        nrt = self.nrt
        runtime = nrt.runtime

        arrived, nrt.arrived_sends = nrt.arrived_sends, []
        if arrived:
            if nrt.runtime.fast:
                # Batched leg: one NIC hold, one matcher send batch.
                yield from nrt.nic.compute(nrt.config.nic_descriptor_cost, len(arrived))
                self._match(nrt.matcher.add_send_batch, arrived, nrt.env.now)
            else:
                for send in arrived:
                    yield from nrt.nic.compute(nrt.config.nic_descriptor_cost)
                    match = nrt.matcher.add_send(send)
                    if match is not None:
                        self._register_match(match, nrt.env.now)

        # Collective scheduling: only the node hosting the communicator's
        # master process issues the query broadcast (paper §4.4).
        for info, next_epoch in nrt.schedulable():
            job_id, comm_id = info.job.id, info.comm_id
            ready = yield from runtime.core.compare_and_write(
                nrt.node_id,
                info.nodes,
                ("cflag", job_id, comm_id),
                ">=",
                next_epoch,
                write_addr=("go", job_id, comm_id),
                write_value=next_epoch,
                default=0,
            )
            if ready:
                runtime.stats["collectives_scheduled"] += 1
                obs = runtime.obs
                if obs is not None:
                    obs.events.append((
                        nrt.env.now,
                        "coll_sched",
                        runtime.job_index[job_id],
                        comm_id,
                        next_epoch,
                    ))

    def _match(self, add_batch, batch: list, t: int) -> None:
        """Feed ``batch`` (receives or arrived sends) to the matcher's
        ``add_batch`` after a batched NIC hold that ended at ``t``."""
        cost = self.nrt.config.nic_descriptor_cost
        last = len(batch) - 1
        for i, match in add_batch(batch):
            self._register_match(match, t - (last - i) * cost)

    def _register_match(self, match: Match, t: int) -> None:
        """Hand a fresh match to the scheduler.

        ``t`` is when the descriptor that completed it finished its NIC
        hold: a batched hold matches its whole batch at its end, while
        each match belongs to the end of its own descriptor's share, the
        instant the per-descriptor loop matches it.
        """
        nrt = self.nrt
        nrt.new_matches.append(match)
        nrt.runtime._match_set.add(nrt.node_id)
        nrt.runtime.stats["matches_created"] += 1
        obs = nrt.runtime.obs
        if obs is not None:
            obs.events.append((
                t,
                "match",
                match.send.desc_id,
                match.recv.desc_id,
                match.src_node,
                match.dst_node,
                match.matched_via,
            ))


class DmaHelper:
    """DH: executes the point-to-point gets scheduled for this slice."""

    def __init__(self, nrt: NodeRuntime):
        self.nrt = nrt

    def p2p_phase(self, mine: List[Match]):
        """Move every chunk granted to this node (in parallel), in grant
        order.

        Every chunk's descriptor-cost hold is reserved on the NIC thread
        processor now, at the SR's turn of the microstrobe fan-out, in
        chunk order.  The first chunk then runs in this body, which the
        SR steps.  Each later chunk is a chain of callbacks, hold then
        transfer, that counts down one latch when its data has landed;
        the body waits on that latch only if some chunk is still in
        flight.  A loopback chunk's copy rides in its hold's entry
        (:meth:`Fabric.local_copy`).
        """
        nrt = self.nrt
        env = nrt.env
        t0 = env.now
        first, rest = mine[0], mine[1:]
        held = self._hold(first)
        if rest:
            moved = Latch(env, len(rest), name=f"dh{nrt.node_id}")
            for match in rest:
                self._chain(match, t0, moved)
        yield held
        if first.src_node != first.dst_node:
            yield self._transfer(first)
        self._chunk_done(first, t0)
        if rest and moved.remaining:
            yield moved

    def _hold(self, match: Match):
        """Reserve ``match``'s NIC hold; for a loopback chunk the returned
        timeout also covers the copy."""
        nrt = self.nrt
        cost = nrt.config.nic_descriptor_cost
        if match.src_node == match.dst_node:
            fabric = nrt.runtime.cluster.fabric
            return fabric.local_copy(nrt.nic, cost, match.scheduled_now, "p2p")
        return nrt.nic.reserve(cost)

    def _transfer(self, match: Match):
        # One-sided get: data flows src -> dst with no host involvement.
        return self.nrt.runtime.cluster.fabric.transfer(
            match.src_node, match.dst_node, match.scheduled_now, "p2p"
        )

    def _chain(self, match: Match, t0: int, moved: Latch) -> None:
        """Run a later chunk as callbacks: hold, transfer, bookkeeping."""

        def landed(_event) -> None:
            self._chunk_done(match, t0)
            moved.count_down()

        held = self._hold(match)
        if match.src_node == match.dst_node:
            held.callbacks.append(landed)
        else:
            held.callbacks.append(
                lambda _held: self._transfer(match).callbacks.append(landed)
            )

    def _chunk_log(self, match: Match, t0: int, t: int) -> list:
        """The log entries of ``match``'s chunk landing at ``t``."""
        send = match.send
        chunk = match.scheduled_now
        entries = [(t, "chunk", send.desc_id, t0, chunk)]
        if match.bytes_done + chunk >= match.total_bytes:
            entries.append((
                t,
                "deliver",
                self.nrt.node_id,
                send.src_rank,
                send.dst_rank,
                send.tag,
                send.size,
                send.desc_id,
            ))
        return entries

    def _chunk_done(self, match: Match, t0: int, logged: bool = False) -> None:
        """Account for a chunk whose last byte has landed (already logged
        when a planned slice moved it)."""
        runtime = self.nrt.runtime
        obs = runtime.obs
        if obs is not None and not logged:
            obs.events.extend(self._chunk_log(match, t0, self.nrt.env.now))
        chunk = match.scheduled_now
        match.bytes_done += chunk
        match.scheduled_now = 0
        runtime.stats["bytes_transferred"] += chunk
        runtime.stats["chunks_moved"] += 1
        if match.finished:
            self._deliver(match)

    def _deliver(self, match: Match) -> None:
        send, recv = match.send, match.recv
        recv.request.payload = _copy_payload(send.payload)
        recv.request.source = send.src_rank
        recv.request.tag = send.tag
        recv.request.size = send.size
        recv.request._finish()
        if not send.request.complete:  # strict (non-buffered) sends
            send.request._finish()
        self.nrt.runtime.stats["messages_delivered"] += 1


class CollectiveHelper:
    """CH: performs scheduled barriers and broadcasts (BBM)."""

    def __init__(self, nrt: NodeRuntime):
        self.nrt = nrt

    def bbm_phase(self):
        """Run every barrier/bcast epoch CaW-scheduled for this slice.

        Only the root node's CH drives the hardware multicast; the
        payload writer completes requests on every participating node at
        commit time.
        """
        # A snapshot: executing an epoch drops it from coll_state.
        for info, ep in list(self.nrt.released(BBM_KINDS, root_only=True)):
            yield from self._run_bcast(info, ep)

    def _run_bcast(self, info, ep: CollEpoch):
        nrt = self.nrt
        runtime = nrt.runtime
        job_id, comm_id = info.job.id, info.comm_id
        if ep.kind == "bcast":
            root_desc = next(d for d in ep.descs if d.rank == (ep.root or 0))
            value = root_desc.payload
            size = ep.size
        else:  # barrier: a broadcast with no data (paper §4.4)
            value = None
            size = 0
        yield from nrt.nic.compute(nrt.config.nic_descriptor_cost)

        done = f"ch:{job_id}:{comm_id}"
        runtime.core.xfer_and_signal(
            nrt.node_id,
            info.nodes,
            size=size,
            local_event=done,
            payload_writer=lambda node: runtime.node_runtimes[node].complete_collective(
                job_id, comm_id, ep.epoch, value
            ),
        )
        yield from runtime.core.test_event(nrt.node_id, done)


class ReduceHelper:
    """RH: performs scheduled reduces on the NIC via a binomial tree (RM)."""

    def __init__(self, nrt: NodeRuntime):
        self.nrt = nrt

    def rm_phase(self):
        """Participate in every reduce epoch scheduled for this slice."""
        # A snapshot: executing an epoch drops it from coll_state.
        for info, ep in list(self.nrt.released(RM_KINDS)):
            yield from self._reduce_part(info, ep)

    def _combine_cost(self, buf) -> int:
        n_elements = buf.size if isinstance(buf, np.ndarray) else 1
        return n_elements * self.nrt.config.nic_reduce_cost_per_element

    def _reduce_part(self, info, ep: CollEpoch):
        """This node's role in the binomial gather tree rooted at the
        MPI root's node, followed by the result/notification multicast."""
        nrt = self.nrt
        runtime = nrt.runtime
        job_id, comm_id = info.job.id, info.comm_id
        nodes = info.nodes
        n = len(nodes)
        root_node = info.node_of(ep.root or 0)
        my_idx = nodes.index(nrt.node_id)
        vidx = (my_idx - nodes.index(root_node)) % n

        # Fold local ranks' contributions first (rank order).
        locals_sorted = sorted(ep.descs, key=lambda d: d.rank)
        partial = _copy_payload(locals_sorted[0].payload)
        for desc in locals_sorted[1:]:
            yield from nrt.nic.compute(self._combine_cost(partial))
            partial = combine(ep.op, partial, desc.payload)

        # One event word and inbox slot per round of the communicator,
        # reused by its epochs: only one is in flight at a time.
        rnd = 0
        while (1 << rnd) < n:
            step = 1 << rnd
            key = (job_id, comm_id, rnd)
            word = f"rh:{job_id}:{comm_id}:{rnd}"
            if vidx % (step << 1) == 0:
                peer = vidx + step
                if peer < n:
                    yield from runtime.core.test_event(nrt.node_id, word)
                    incoming = nrt.reduce_inbox.pop(key)
                    yield from nrt.nic.compute(self._combine_cost(partial))
                    partial = combine(ep.op, partial, incoming)
            elif vidx % (step << 1) == step:
                dst_idx = vidx - step
                dst_node = nodes[(dst_idx + nodes.index(root_node)) % n]

                def deposit(node, buf=partial, k=key):
                    runtime.node_runtimes[node].reduce_inbox[k] = buf

                runtime.core.xfer_and_signal(
                    nrt.node_id,
                    dst_node,
                    size=payload_nbytes(partial, ep.size),
                    remote_event=word,
                    payload_writer=deposit,
                )
                return  # sent up the tree; our part is done
            rnd += 1

        # Only the root's RH reaches this point with the final result.
        yield from self._distribute(info, ep, partial)

    def _distribute(self, info, ep: CollEpoch, result):
        """Root RH: broadcast the result (allreduce) or a completion
        notification (reduce) and complete every node's requests."""
        nrt = self.nrt
        runtime = nrt.runtime
        job_id, comm_id = info.job.id, info.comm_id
        done = f"rhfin:{job_id}:{comm_id}"
        size = (
            payload_nbytes(result, ep.size)
            if ep.kind == "allreduce"
            else nrt.config.descriptor_bytes
        )
        runtime.core.xfer_and_signal(
            nrt.node_id,
            info.nodes,
            size=size,
            local_event=done,
            payload_writer=lambda node: runtime.node_runtimes[node].complete_collective(
                job_id, comm_id, ep.epoch, result
            ),
        )
        yield from runtime.core.test_event(nrt.node_id, done)
