"""The production-MPI baseline ("Quadrics MPI" model).

The paper compares BCS-MPI against Quadrics MPI (MPICH 1.2.4 over
qsnetlibs).  This backend models that class of library on the same
simulated cluster:

- **eager protocol** below a threshold: data travels immediately with the
  message into a bounce buffer at the receiver, and every match copies it
  out, whether the receive was posted first or not;
- **rendezvous protocol** above it: RTS control message, CTS once the
  receive is posted, then the bulk DMA;
- **host involvement**: every MPI call costs host CPU time (the overhead
  BCS-MPI's NIC offload avoids);
- **hardware collectives**: barrier on the network conditional, broadcast
  on the hardware multicast, reduce as a host-side binomial tree over
  point-to-point messages (same tree shape as the BCS Reduce Helper, so
  floating-point results are comparable);
- **no global quantization**: completions wake processes immediately —
  this is what gives the baseline its point-to-point latency advantage;
  each message advances as a chain of callbacks on the fabric's
  completion events, like a progress engine;
- **no asynchronous rendezvous progress**: like MPICH-era libraries
  without a progress thread, a rendezvous transfer only advances while
  the *receiver* is inside an MPI call.  A non-blocking large receive
  posted before a long computation therefore moves its data during the
  final MPI_Wait — whereas BCS-MPI's NIC threads move it during the
  computation.  This asymmetry is the overlap advantage the paper
  credits for SAGE and non-blocking SWEEP3D (§5.3–5.4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Dict, Generator, List, Optional, Sequence

import numpy as np

from ..bcs.descriptors import (
    ANY_SOURCE,
    ANY_TAG,
    UNLIMITED,
    BcsRequest,
    RecvDescriptor,
    SendDescriptor,
    _copy_payload,
    payload_nbytes,
)
from ..bcs.matching import Matcher
from ..network import Cluster
from ..sim import Event, Signal, Timeout
from ..storm.job import CommInfo, Job, JobHost, JobSpec
from ..units import KiB, bw_time, seconds, us
from .communicator import Communicator
from .ops import combine, resolve


@dataclass(frozen=True)
class BaselineConfig:
    """Timing model of the production MPI library."""

    #: Host CPU cost of a blocking send/recv call and of entering a
    #: collective.  isend/irecv post at no cost; the program pays
    #: ``wait_overhead`` when it waits on them.
    call_overhead: int = us(1.6)
    #: Host CPU cost of MPI_Wait/Waitall per call.
    wait_overhead: int = us(0.9)
    #: Eager/rendezvous switchover.
    eager_threshold: int = 32 * KiB
    #: Size of RTS/CTS control messages.
    control_bytes: int = 96
    #: Memory bandwidth for copying a matched eager message out of the
    #: bounce buffer, bytes/s (every eager match pays the copy).
    copy_bandwidth: float = 900e6
    #: Extra latency of the hardware barrier beyond the network
    #: conditional itself.
    barrier_overhead: int = us(4)
    #: Host reduce arithmetic, ns per element (P-III with PCI crossings).
    host_reduce_cost_per_element: int = 30
    #: MPI_Init + job launch cost (production MPI starts fast; the
    #: paper's BCS prototype pays much more, which is what hurts IS).
    init_cost: int = seconds(0.15)

    def with_(self, **kw) -> "BaselineConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kw)


class _CollectiveState:
    """Per-(comm, epoch) rendezvous point for barriers and broadcasts."""

    def __init__(self, env, n: int):
        self.arrived = 0
        self.n = n
        self.done = env.event(name="coll")
        self.value: Any = None


class _Waitall(Event):
    """A rank blocked in :meth:`BaselineCommunicator.waitall`.

    Each pending request holds this record as its ``blocked`` and
    releases it once on completion, so a waited request's completion
    takes no heap entry.  The last release succeeds the record, whose
    entry relays to ``wake``, the event the rank yields.  The relay is
    what keeps the rank resuming behind the entries queued at its last
    completion's instant meanwhile: the match an eager landing starts,
    or a rendezvous match that checks whether the rank is still inside
    the library.
    """

    __slots__ = ("wake", "pending")

    def __init__(self, env, pending: int):
        super().__init__(env, name="waitall")
        self.wake = Event(env, name="waitall.wake")
        self.pending = pending
        self.callbacks.append(self._relay)

    def release(self) -> None:
        self.pending -= 1
        if not self.pending:
            self.succeed()

    def _relay(self, _event) -> None:
        self.wake.succeed()


class BaselineRuntime(JobHost):
    """Runtime for the production-MPI model on one cluster."""

    def __init__(self, cluster: Cluster, config: Optional[BaselineConfig] = None):
        super().__init__(cluster)
        self.config = config or BaselineConfig()
        #: One matcher per (job, comm, rank): baseline matching happens
        #: in the library at the receiving process.
        self.matchers: Dict[tuple, Matcher] = {}
        #: Barrier and broadcast instances not every rank has reached.
        self.coll_state: Dict[tuple, _CollectiveState] = {}
        self.stats: Counter = Counter()
        #: (job_id, world_rank) -> MPI-call nesting depth of that process;
        #: positive while it is inside the library (the only time the
        #: library can progress rendezvous).
        self._in_mpi: Dict[tuple, int] = {}
        #: (job_id, world_rank) -> Signal pulsed on MPI entry.
        self._mpi_entry: Dict[tuple, Signal] = {}

    # -- library state ------------------------------------------------------------

    def matcher(self, job_id: int, comm_id: int, rank: int) -> Matcher:
        key = (job_id, comm_id, rank)
        m = self.matchers.get(key)
        if m is None:
            m = Matcher(rank)
            self.matchers[key] = m
        return m

    # -- progress-engine gating -------------------------------------------------

    def _entry_signal(self, job_id: int, world_rank: int) -> Signal:
        key = (job_id, world_rank)
        sig = self._mpi_entry.get(key)
        if sig is None:
            sig = Signal(self.env, name=f"mpi_entry:{key}")
            self._mpi_entry[key] = sig
        return sig

    def enter_mpi(self, job_id: int, world_rank: int) -> None:
        """Mark a process as inside the MPI library (depth-counted)."""
        key = (job_id, world_rank)
        self._in_mpi[key] = self._in_mpi.get(key, 0) + 1
        # A pulse with no waiters schedules nothing.
        sig = self._mpi_entry.get(key)
        if sig is not None and sig.waiting:
            sig.pulse()

    def exit_mpi(self, job_id: int, world_rank: int) -> None:
        """Leave one nesting level of the MPI library."""
        key = (job_id, world_rank)
        self._in_mpi[key] = self._in_mpi.get(key, 1) - 1

    # -- job lifecycle -----------------------------------------------------------------

    def launch(self, spec: JobSpec, placement: Optional[List[int]] = None) -> Job:
        """Start a job under the production-MPI model."""
        world = self._start_job(spec, placement)
        job = world.job

        from .context import AppContext

        for rank in range(spec.n_ranks):
            comm = BaselineCommunicator(self, world, rank)
            node_id = job.placement[rank]
            ctx = AppContext(
                self.env,
                comm,
                node_id,
                compute_fn=self._make_compute(node_id),
                job=job,
                params=spec.params,
            )
            self.env.process(
                self._rank_body(job, rank, ctx), name=f"{spec.name}.r{rank}"
            )
        return job

    def _make_compute(self, node_id: int):
        node = self.cluster.node(node_id)

        def compute(_node_id: int, duration: int):
            yield from node.host_compute(duration)

        return compute

    def _rank_body(self, job: Job, rank: int, ctx):
        if self.config.init_cost:
            yield self.env.timeout(self.config.init_cost)
        result = yield from job.spec.app(ctx, **job.spec.params)
        job.rank_finished(rank, result)
        if job.complete:
            # The job's processes are gone: drop their library state.
            for table in (self._in_mpi, self._mpi_entry, self.matchers):
                for key in [k for k in table if k[0] == job.id]:
                    del table[key]

    # -- transport ----------------------------------------------------------------------

    def start_send(self, info: CommInfo, send: SendDescriptor) -> None:
        """Inject a message: eager ships data now, rendezvous ships RTS.

        Eager payloads are snapshotted here — the library copies them
        into its bounce buffer at injection, so the application may
        reuse the buffer as soon as the send completes.  Rendezvous
        payloads are read at transfer time (the buffer must stay valid
        until completion, as in real MPI).

        The message then advances as a chain of callbacks on its own
        entries and the fabric's, one stage per entry: the injection
        here, the landing, and the match (:meth:`_progress`).
        """
        if send.size <= self.config.eager_threshold:
            send.payload = _copy_payload(send.payload)
        send.src_node = info.node_of(send.src_rank)
        send.dst_node = info.node_of(send.dst_rank)
        Timeout(self.env, 0).callbacks.append(partial(self._inject, info, send))

    def _inject(self, info: CommInfo, send: SendDescriptor, _start) -> None:
        fabric = self.cluster.fabric
        if send.size <= self.config.eager_threshold:
            self.stats["eager"] += 1
            done = fabric.transfer(send.src_node, send.dst_node, send.size, "eager")
            done.callbacks.append(partial(self._eager_landed, info, send))
        else:
            # Rendezvous: RTS carries the descriptor only.
            self.stats["rendezvous"] += 1
            size = self.config.control_bytes
            done = fabric.transfer(send.src_node, send.dst_node, size, "rts")
            done.callbacks.append(partial(self._arrive, info, send))

    def _eager_landed(self, info: CommInfo, send: SendDescriptor, _done) -> None:
        send.request._finish()  # sender buffer reusable
        self._arrive(info, send)

    def _arrive(self, info: CommInfo, send: SendDescriptor, _done=None) -> None:
        matcher = self.matcher(send.job_id, send.comm_id, send.dst_rank)
        match = matcher.add_send(send)
        if match is not None:
            self._on_match(info, match)

    def post_recv(self, info: CommInfo, recv: RecvDescriptor) -> None:
        """Register a posted receive with the library matcher."""
        matcher = self.matcher(recv.job_id, recv.comm_id, recv.rank)
        match = matcher.add_recv(recv)
        if match is not None:
            self._on_match(info, match)

    def _on_match(self, info: CommInfo, match) -> None:
        start = Timeout(self.env, 0)
        start.callbacks.append(partial(self._progress, info, match.send, match.recv))

    def _progress(
        self, info: CommInfo, send: SendDescriptor, recv: RecvDescriptor, _event
    ) -> None:
        cfg = self.config
        if send.size <= cfg.eager_threshold:
            # Eager data is already on the node, in the bounce buffer:
            # every match copies it out.
            if send.size > 0:
                copied = Timeout(self.env, bw_time(send.size, cfg.copy_bandwidth))
                copied.callbacks.append(partial(self._deliver, send, recv))
            else:
                self._deliver(send, recv)
            return
        # Rendezvous: without an async progress thread, nothing moves
        # until the receiving process re-enters the MPI library; each
        # entry's pulse re-checks.
        key = (send.job_id, info.world_ranks[send.dst_rank])
        if self._in_mpi.get(key, 0) <= 0:
            entered = Event(self.env, name="mpi_entry")
            entered.callbacks.append(partial(self._progress, info, send, recv))
            self._entry_signal(*key).enlist(entered)
            return
        # CTS back to the sender, then the bulk transfer.
        size = cfg.control_bytes
        cts = self.cluster.fabric.transfer(send.dst_node, send.src_node, size, "cts")
        cts.callbacks.append(partial(self._cleared, send, recv))

    def _cleared(self, send: SendDescriptor, recv: RecvDescriptor, _cts) -> None:
        data = self.cluster.fabric.transfer(send.src_node, send.dst_node, send.size, "rdv")
        data.callbacks.append(partial(self._rdv_landed, send, recv))

    def _rdv_landed(self, send: SendDescriptor, recv: RecvDescriptor, _data) -> None:
        send.request._finish()
        self._deliver(send, recv)

    def _deliver(self, send: SendDescriptor, recv: RecvDescriptor, _event=None) -> None:
        recv.request.payload = _copy_payload(send.payload)
        recv.request.source = send.src_rank
        recv.request.tag = send.tag
        recv.request.size = send.size
        recv.request._finish()
        self.stats["messages_delivered"] += 1

    # -- collectives ----------------------------------------------------------------------

    def sync_point(self, info: CommInfo, epoch_key: tuple) -> _CollectiveState:
        """Arrive at the rendezvous state of one collective instance.

        The last of the communicator's ranks to arrive takes the state
        out of the table: every rank already holds it, and no later call
        asks for the same instance.
        """
        state = self.coll_state.get(epoch_key)
        if state is None:
            state = self.coll_state[epoch_key] = _CollectiveState(self.env, info.size)
        state.arrived += 1
        if state.arrived == state.n:
            del self.coll_state[epoch_key]
        return state


class _LibrarySection:
    """``with`` block marking one process as inside the MPI library.

    While the depth is up the runtime may progress rendezvous transfers
    destined to this process.  One per communicator; sections nest.
    """

    __slots__ = ("_runtime", "_job_id", "_world_rank")

    def __init__(self, runtime: BaselineRuntime, job_id: int, world_rank: int):
        self._runtime = runtime
        self._job_id = job_id
        self._world_rank = world_rank

    def __enter__(self) -> None:
        self._runtime.enter_mpi(self._job_id, self._world_rank)

    def __exit__(self, *exc) -> None:
        self._runtime.exit_mpi(self._job_id, self._world_rank)


class BaselineCommunicator(Communicator):
    """An MPI communicator backed by the production-MPI model."""

    _TREE_TAG = -2001

    def __init__(self, runtime: BaselineRuntime, info: CommInfo, comm_rank: int):
        self._runtime = runtime
        self._info = info
        self._rank = comm_rank
        self._job_id = info.job.id
        self._cpu = runtime.cluster.node(info.node_of(comm_rank)).cpu
        self._lib = _LibrarySection(runtime, self._job_id, info.world_ranks[comm_rank])
        self._send_seq: Dict[int, int] = {}
        self._epochs: Dict[str, int] = {}

    def _on(self, info: CommInfo, comm_rank: int) -> "BaselineCommunicator":
        return BaselineCommunicator(self._runtime, info, comm_rank)

    @property
    def env(self):
        return self._runtime.env

    # -- helpers -----------------------------------------------------------------

    def _overhead(self, cost: int) -> Generator:
        yield from self._cpu.held(cost)

    def _next_seq(self, dst: int) -> int:
        seq = self._send_seq.get(dst, 0)
        self._send_seq[dst] = seq + 1
        return seq

    def _next_epoch(self, kind: str) -> int:
        # All ranks call collectives in the same order, so a local
        # counter names the instance consistently across ranks.
        epoch = self._epochs.get(kind, 0) + 1
        self._epochs[kind] = epoch
        return epoch

    def _make_send(self, data, dest, tag, size) -> SendDescriptor:
        self._check_rank(dest, "destination")
        req = BcsRequest(self.env, "send")
        return SendDescriptor(
            job_id=self._job_id,
            comm_id=self._info.comm_id,
            src_rank=self._rank,
            dst_rank=dest,
            tag=tag,
            size=payload_nbytes(data, size),
            request=req,
            payload=data,
            seq=self._next_seq(dest),
        )

    def _make_recv(self, source, tag, size) -> RecvDescriptor:
        self._check_rank(source, "source")
        req = BcsRequest(self.env, "recv")
        return RecvDescriptor(
            job_id=self._job_id,
            comm_id=self._info.comm_id,
            rank=self._rank,
            src_rank=source,
            tag=tag,
            capacity=UNLIMITED if size is None else size,
            request=req,
        )

    # -- point-to-point --------------------------------------------------------------

    def isend(self, data: Any = None, dest: int = 0, tag: int = 0, size=None) -> BcsRequest:
        send = self._make_send(data, dest, tag, size)
        self._runtime.start_send(self._info, send)
        return send.request

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, size=None) -> BcsRequest:
        recv = self._make_recv(source, tag, size)
        self._runtime.post_recv(self._info, recv)
        return recv.request

    def send(self, data: Any = None, dest: int = 0, tag: int = 0, size=None) -> Generator:
        with self._lib:
            yield from self._overhead(self._runtime.config.call_overhead)
            req = self.isend(data, dest, tag, size)
            if not req.complete:
                yield req

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, size=None) -> Generator:
        with self._lib:
            yield from self._overhead(self._runtime.config.call_overhead)
            req = self.irecv(source, tag, size)
            if not req.complete:
                yield req
        return req.payload

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Check the unexpected queue for a matching arrival."""
        self._check_rank(source, "source")
        job, comm, rank = self._job_id, self._info.comm_id, self._rank
        return self._runtime.matcher(job, comm, rank).probe(job, comm, rank, source, tag)

    # -- completion ---------------------------------------------------------------------

    def wait(self, req: BcsRequest) -> Generator:
        with self._lib:
            yield from self._overhead(self._runtime.config.wait_overhead)
            if not req.complete:
                yield req
        return req.payload

    def waitall(self, reqs: Sequence[BcsRequest]) -> Generator:
        with self._lib:
            yield from self._overhead(self._runtime.config.wait_overhead)
            # Distinct requests only: a handle listed twice completes once.
            pending = [r for r in dict.fromkeys(reqs) if not r.complete]
            if pending:
                blocked = _Waitall(self.env, len(pending))
                for r in pending:
                    r.blocked = blocked
                yield blocked.wake
        return [r.payload for r in reqs]

    # -- collectives -----------------------------------------------------------------------

    def barrier(self) -> Generator:
        """Hardware barrier: network conditional over the comm's nodes."""
        runtime = self._runtime
        with self._lib:
            yield from self._barrier_body()
        runtime.stats["barriers"] += 1

    def _barrier_body(self) -> Generator:
        runtime = self._runtime
        yield from self._overhead(runtime.config.call_overhead)
        key = (self._job_id, self._info.comm_id, "bar", self._next_epoch("bar"))
        state = runtime.sync_point(self._info, key)
        if state.arrived == state.n:
            yield runtime.cluster.fabric.conditional(len(self._info.nodes))
            yield self.env.timeout(runtime.config.barrier_overhead)
            state.done.succeed(None)
        else:
            yield state.done

    def bcast(self, data: Any = None, root: int = 0, size=None) -> Generator:
        """Hardware-multicast broadcast from the root's node."""
        self._check_rank(root, "root")
        with self._lib:
            result = yield from self._bcast_body(data, root, size)
        return result

    def _bcast_body(self, data, root, size) -> Generator:
        runtime = self._runtime
        yield from self._overhead(runtime.config.call_overhead)
        key = (self._job_id, self._info.comm_id, "bc", self._next_epoch("bc"))
        state = runtime.sync_point(self._info, key)
        if self._rank == root:
            state.value = data
            yield runtime.cluster.fabric.multicast(
                self._info.node_of(root),
                self._info.nodes,
                payload_nbytes(data, size),
            )
            state.done.succeed(None)
        elif not state.done.triggered:
            yield state.done
        runtime.stats["bcasts"] += 1
        return _copy_payload(state.value)

    def reduce(self, data: Any, op, root: int = 0) -> Generator:
        """Host-side binomial tree over point-to-point messages."""
        self._check_rank(root, "root")
        with self._lib:
            result = yield from self._tree_reduce(data, op, root)
        return result if self._rank == root else None

    def allreduce(self, data: Any, op) -> Generator:
        """Reduce to rank 0 then hardware broadcast."""
        with self._lib:
            partial = yield from self._tree_reduce(data, op, 0)
            result = yield from self._bcast_body(partial, 0, None)
        return result

    def _tree_reduce(self, data: Any, op, root: int) -> Generator:
        """Binomial gather tree (same shape as the BCS Reduce Helper)."""
        runtime = self._runtime
        kernel = resolve(op).kernel
        yield from self._overhead(runtime.config.call_overhead)
        n = self.size
        epoch = self._next_epoch("red")
        tag = self._TREE_TAG - epoch % 1000
        vidx = (self._rank - root) % n
        partial = _copy_payload(data)

        rnd = 0
        while (1 << rnd) < n:
            step = 1 << rnd
            if vidx % (step << 1) == 0:
                peer = vidx + step
                if peer < n:
                    incoming = yield from self.recv(
                        source=(peer + root) % n, tag=tag
                    )
                    cost = (
                        incoming.size
                        if isinstance(incoming, np.ndarray)
                        else 1
                    ) * runtime.config.host_reduce_cost_per_element
                    yield self.env.timeout(cost)
                    partial = combine(kernel, partial, incoming)
            elif vidx % (step << 1) == step:
                yield from self.send(partial, dest=(vidx - step + root) % n, tag=tag)
                return None
            rnd += 1
        return partial
