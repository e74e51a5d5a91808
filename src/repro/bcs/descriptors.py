"""Communication descriptors and requests.

When an application process invokes a communication primitive, it posts a
*descriptor* to NIC memory (paper §3) and, if the call is blocking,
suspends.  Descriptors carry everything the NIC threads need to complete
the operation without further host involvement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..sim import Event

#: Wildcards for receive matching (MPI_ANY_SOURCE / MPI_ANY_TAG).
ANY_SOURCE = -1
ANY_TAG = -1

#: Ids of descriptors built outside a :class:`DescriptorPools` (the
#: baseline MPI's, probes').
_desc_ids = itertools.count()


class BcsRequest:
    """Completion handle for one posted operation (paper's BCS_Request).

    The NIC signals completion by triggering :attr:`done`; processes poll
    it (``bcs_test``) or block on it (``bcs_test(blocking)``), in which
    case the Node Manager restarts them at the next slice boundary: the
    rank's :attr:`blocked` record is released on completion, and the last
    release enlists the rank on its node's slice signal.
    """

    __slots__ = (
        "env",
        "kind",
        "done",
        "payload",
        "source",
        "tag",
        "size",
        "error",
        "posted_at",
        "completed_at",
        "blocked",
        "ref",
    )

    def __init__(self, env, kind: str):
        self.env = env
        self.kind = kind
        self.done: Event = env.event(name=f"req:{kind}")
        #: Delivered payload (receives and value-returning collectives).
        self.payload: Any = None
        #: Matched source rank (receives).
        self.source: Optional[int] = None
        #: Matched tag (receives).
        self.tag: Optional[int] = None
        #: Matched message size in bytes (receives).
        self.size: Optional[int] = None
        self.error: Optional[BaseException] = None
        self.posted_at: int = env.now
        self.completed_at: Optional[int] = None
        #: The Node Manager's record of a rank blocked on this request
        #: (see :meth:`NodeManager.block_on`), if any.
        self.blocked = None
        #: The posted operation this request completes, by value:
        #: ``("msg", send id)``, ``("recv", recv id)`` or ``("coll", (job,
        #: comm, epoch))``.  Set at each post of an instrumented run, so a
        #: wait entry in the protocol log names what it waited on.
        self.ref: Optional[tuple] = None

    @property
    def complete(self) -> bool:
        """Whether the operation has finished (NIC-visible state)."""
        return self.done.triggered

    def _finish(self) -> None:
        self.completed_at = self.env.now
        # A completion nobody yields (a buffered send, or one whose rank
        # blocks through the Node Manager) needs no heap entry.
        self.done.settle(self)
        blocked = self.blocked
        if blocked is not None:
            self.blocked = None
            blocked.release()

    def __repr__(self) -> str:
        state = "done" if self.complete else "pending"
        return f"<BcsRequest {self.kind} {state}>"


def payload_nbytes(payload: Any, declared: Optional[int] = None) -> int:
    """Size in bytes of a message payload.

    numpy arrays and scalars report their buffer size; ``bytes`` its
    length; None falls back to the declared size (pure-timing messages);
    any other Python object is sized by its pickled representation (the
    mpi4py lowercase-method convention).
    """
    if declared is not None:
        return declared
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, np.generic):
        return payload.dtype.itemsize
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if payload is None:
        return 0
    if isinstance(payload, (int, float, bool)):
        return 8
    import pickle

    return len(pickle.dumps(payload))


@dataclass
class SendDescriptor:
    """A posted send (blocking or not — the NIC treats them alike)."""

    job_id: int
    comm_id: int
    src_rank: int
    dst_rank: int
    tag: int
    size: int
    request: BcsRequest
    payload: Any = None
    #: Per (job, comm, src, dst) monotonic counter: MPI non-overtaking order.
    seq: int = 0
    posted_at: int = 0
    desc_id: int = field(default_factory=lambda: next(_desc_ids))

    def __repr__(self) -> str:
        return (
            f"<Send j{self.job_id} {self.src_rank}->{self.dst_rank} "
            f"tag={self.tag} size={self.size} seq={self.seq}>"
        )


@dataclass
class RecvDescriptor:
    """A posted receive with (source, tag) matching criteria."""

    job_id: int
    comm_id: int
    rank: int
    src_rank: int  # may be ANY_SOURCE
    tag: int  # may be ANY_TAG
    capacity: int
    request: BcsRequest
    posted_at: int = 0
    desc_id: int = field(default_factory=lambda: next(_desc_ids))

    def matches(self, send: "SendDescriptor") -> bool:
        """MPI matching rule against an arrived send descriptor."""
        if send.job_id != self.job_id or send.comm_id != self.comm_id:
            return False
        if send.dst_rank != self.rank:
            return False
        if self.src_rank != ANY_SOURCE and send.src_rank != self.src_rank:
            return False
        if self.tag != ANY_TAG and send.tag != self.tag:
            return False
        return True

    def __repr__(self) -> str:
        return (
            f"<Recv j{self.job_id} rank={self.rank} from={self.src_rank} "
            f"tag={self.tag}>"
        )


@dataclass
class CollectiveDescriptor:
    """A posted collective operation (barrier / bcast / reduce)."""

    job_id: int
    comm_id: int
    kind: str  # "barrier" | "bcast" | "reduce" | "allreduce"
    rank: int
    root: int
    #: Per (job, comm) collective sequence number; drives the CaW flag check.
    epoch: int
    request: BcsRequest
    op: Optional[str] = None
    size: int = 0
    payload: Any = None
    posted_at: int = 0
    desc_id: int = field(default_factory=lambda: next(_desc_ids))

    def __repr__(self) -> str:
        return (
            f"<Coll {self.kind} j{self.job_id} rank={self.rank} "
            f"epoch={self.epoch} root={self.root}>"
        )


@dataclass
class Match:
    """A matched send/recv pair being moved by the DMA Helper.

    Built by the Buffer Receiver in the Message Scheduling Microphase; if
    the message exceeds the slice budget it is *chunked* and carried over
    multiple slices (paper §4.3).
    """

    send: SendDescriptor
    recv: RecvDescriptor
    src_node: int
    dst_node: int
    total_bytes: int
    bytes_done: int = 0
    #: Bytes granted for the current slice by the MSM scheduler.
    scheduled_now: int = 0
    #: True for system-level traffic (parallel file system, migration):
    #: scheduled into whatever budget user traffic leaves over — the
    #: QoS guarantee a single global scheduler provides (paper §1).
    system: bool = False
    #: Which descriptor completed the pair: "send" (an arrival met a
    #: posted receive) or "recv" (a post drained an unexpected send).
    #: Causal attribution for span tracing; empty for system matches
    #: built outside the matchers.
    matched_via: str = ""

    @property
    def remaining(self) -> int:
        """Bytes not yet transferred."""
        return self.total_bytes - self.bytes_done

    @property
    def finished(self) -> bool:
        """True once every byte has moved."""
        return self.bytes_done >= self.total_bytes

    def __repr__(self) -> str:
        return (
            f"<Match {self.send.src_rank}->{self.recv.rank} "
            f"{self.bytes_done}/{self.total_bytes}B>"
        )


class _FreeList:
    """A bounded LIFO free list of recyclable objects."""

    __slots__ = ("_free", "cap")

    def __init__(self, cap: int = 8192):
        self._free: list = []
        self.cap = cap

    def get(self):
        return self._free.pop() if self._free else None

    def put(self, obj) -> None:
        if len(self._free) < self.cap:
            self._free.append(obj)

    def __len__(self) -> int:
        return len(self._free)


class DescriptorPools:
    """Free-list pools for the per-message hot-path objects.

    Steady-state slices churn through Send/Recv/Collective descriptors
    and :class:`BcsRequest` handles at a rate proportional to message
    count; pooling them makes those slices allocate near zero (the
    fast slice engine, ``BcsConfig(engine="fast")``).

    Safety rules:

    - ``acquire`` reinitializes **every** field and draws a **fresh**
      ``desc_id``, so any stale index keyed by descriptor id (matcher
      buckets, span tables) can never alias a recycled object.  Ids
      come from a counter per pool set, so two same-seed runs number
      their descriptors alike however many runs preceded them;
    - ``release`` is only called from sites where the runtime can prove
      no live reference remains (retired matches, completed collective
      epochs, provably-private barrier requests);
    - a recycled ``BcsRequest`` gets a **fresh** :class:`Event` — done
      events are one-shot and are never re-armed.

    Pools are best-effort and bounded; an empty pool simply constructs.
    """

    __slots__ = ("_sends", "_recvs", "_colls", "_reqs", "_ids")

    def __init__(self):
        self._sends = _FreeList()
        self._recvs = _FreeList()
        self._colls = _FreeList()
        self._reqs = _FreeList()
        self._ids = itertools.count()

    # -- acquire ---------------------------------------------------------------

    def send(
        self, job_id, comm_id, src_rank, dst_rank, tag, size, request,
        payload=None, seq=0, posted_at=0,
    ) -> SendDescriptor:
        d = self._sends.get()
        if d is None:
            return SendDescriptor(
                job_id, comm_id, src_rank, dst_rank, tag, size, request,
                payload=payload, seq=seq, posted_at=posted_at,
                desc_id=next(self._ids),
            )
        d.job_id = job_id
        d.comm_id = comm_id
        d.src_rank = src_rank
        d.dst_rank = dst_rank
        d.tag = tag
        d.size = size
        d.request = request
        d.payload = payload
        d.seq = seq
        d.posted_at = posted_at
        d.desc_id = next(self._ids)
        return d

    def recv(
        self, job_id, comm_id, rank, src_rank, tag, capacity, request,
        posted_at=0,
    ) -> RecvDescriptor:
        d = self._recvs.get()
        if d is None:
            return RecvDescriptor(
                job_id, comm_id, rank, src_rank, tag, capacity, request,
                posted_at=posted_at, desc_id=next(self._ids),
            )
        d.job_id = job_id
        d.comm_id = comm_id
        d.rank = rank
        d.src_rank = src_rank
        d.tag = tag
        d.capacity = capacity
        d.request = request
        d.posted_at = posted_at
        d.desc_id = next(self._ids)
        return d

    def coll(
        self, job_id, comm_id, kind, rank, root, epoch, request,
        op=None, size=0, payload=None, posted_at=0,
    ) -> CollectiveDescriptor:
        d = self._colls.get()
        if d is None:
            return CollectiveDescriptor(
                job_id, comm_id, kind, rank, root, epoch, request,
                op=op, size=size, payload=payload, posted_at=posted_at,
                desc_id=next(self._ids),
            )
        d.job_id = job_id
        d.comm_id = comm_id
        d.kind = kind
        d.rank = rank
        d.root = root
        d.epoch = epoch
        d.request = request
        d.op = op
        d.size = size
        d.payload = payload
        d.posted_at = posted_at
        d.desc_id = next(self._ids)
        return d

    def request(self, env, kind: str) -> BcsRequest:
        r = self._reqs.get()
        if r is None:
            return BcsRequest(env, kind)
        r.env = env
        r.kind = kind
        r.done = env.event(name=f"req:{kind}")
        r.payload = None
        r.source = None
        r.tag = None
        r.size = None
        r.error = None
        r.posted_at = env.now
        r.completed_at = None
        r.blocked = None
        r.ref = None
        return r

    # -- release ---------------------------------------------------------------

    def release_send(self, d: SendDescriptor) -> None:
        d.request = None
        d.payload = None
        self._sends.put(d)

    def release_recv(self, d: RecvDescriptor) -> None:
        d.request = None
        self._recvs.put(d)

    def release_coll(self, d: CollectiveDescriptor) -> None:
        d.request = None
        d.payload = None
        self._colls.put(d)

    def release_request(self, r: BcsRequest) -> None:
        r.payload = None
        r.error = None
        self._reqs.put(r)
