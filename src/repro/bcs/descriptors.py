"""Communication descriptors and requests.

When an application process invokes a communication primitive, it posts a
*descriptor* to NIC memory (paper §3) and, if the call is blocking,
suspends.  Descriptors carry everything the NIC threads need to complete
the operation without further host involvement.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..mpi.status import Status
from ..sim import Event

#: Wildcards for receive matching (MPI_ANY_SOURCE / MPI_ANY_TAG).
ANY_SOURCE = -1
ANY_TAG = -1

#: Receive capacity used when the caller does not bound the buffer.
UNLIMITED = 1 << 62

#: Ids of descriptors built without a runtime's ``desc_ids`` counter (the
#: baseline MPI's, probes').
_desc_ids = itertools.count()


class BcsRequest(Event):
    """Completion handle for one posted operation (paper's BCS_Request).

    The request is itself the event the NIC triggers on completion, with
    no value: processes poll it (``bcs_test``) or block on it
    (``bcs_test(blocking)``), in which case the Node Manager restarts
    them at the next slice boundary: the rank's :attr:`blocked` record
    is released on completion, and the last release enlists the rank on
    its node's slice signal.  Both MPI backends return it from
    ``isend``/``irecv`` as the MPI request.
    """

    __slots__ = (
        "kind",
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
        super().__init__(env, f"req:{kind}")
        self.kind = kind
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
        #: The record of a rank blocked on this request, released once on
        #: completion: the Node Manager's (see :meth:`NodeManager.block_on`)
        #: or the baseline MPI's ``waitall`` countdown, if any.
        self.blocked = None
        #: The posted operation this request completes, by value:
        #: ``("msg", send id)``, ``("recv", recv id)`` or ``("coll", (job,
        #: comm, epoch))``.  Set at each post of an instrumented run, so a
        #: wait entry in the protocol log names what it waited on.
        self.ref: Optional[tuple] = None

    @property
    def complete(self) -> bool:
        """Whether the operation has finished (NIC-visible state)."""
        return self.triggered

    def status(self) -> Optional[Status]:
        """Receive metadata (MPI_Status), or None if not complete / not a
        receive."""
        if not self.complete or self.source is None:
            return None
        return Status(source=self.source, tag=self.tag, count_bytes=self.size or 0)

    def _finish(self) -> None:
        self.completed_at = self.env.now
        # A completion nobody yields (a buffered send, or one whose rank
        # blocks through the Node Manager or a baseline waitall) needs no
        # heap entry.
        self.settle()
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


def _copy_payload(payload):
    """Deep-enough copy of a message payload (arrays and bytes)."""
    if payload is None:
        return None
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, (bytes, bytearray)):
        return bytes(payload)
    return copy.deepcopy(payload)


def posted_before(queue: list, cutoff: int) -> int:
    """How many descriptors at the head of ``queue`` were posted at or
    before ``cutoff``.

    A descriptor posted exactly at the slice boundary (a process
    restarted by the NM posts immediately) still precedes the DEM, which
    starts one strobe latency later, so the comparison is inclusive.
    ``posted_at`` is monotone nondecreasing along the FIFO (posts stamp
    ``env.now``; purges preserve order), so the common whole queue /
    empty cases are O(1) checks at the ends and the mixed case is a
    binary search.
    """
    if not queue or queue[0].posted_at > cutoff:
        return 0
    if queue[-1].posted_at <= cutoff:
        return len(queue)
    lo, hi = 0, len(queue)
    while lo < hi:
        mid = (lo + hi) // 2
        if queue[mid].posted_at <= cutoff:
            lo = mid + 1
        else:
            hi = mid
    return lo


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
    #: Nodes hosting the source and destination ranks, resolved once at
    #: post by either MPI backend (-1 where nothing resolved them).
    src_node: int = -1
    dst_node: int = -1

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
