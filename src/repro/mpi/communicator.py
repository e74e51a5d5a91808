"""The backend-neutral MPI communicator interface.

Applications are written once against this interface and run unchanged on
either backend:

- :class:`repro.mpi.bcs_backend.BcsCommunicator` — BCS-MPI (the paper's
  system: descriptors, global scheduling, NIC threads); it is the BCS API
  of Appendix A bound to one rank, each MPI call one BCS call.
- :class:`repro.mpi.baseline.BaselineCommunicator` — a production-style
  "Quadrics MPI" model (eager/rendezvous, host-driven).

What sits above the two transports is written here once: identity,
``split``, the rank range checks, and the collectives composed from
point-to-point calls (paper Appendix A).

Call convention (mirrors the mpi4py split the ecosystem uses):

- *Blocking* operations are **sub-generators**: ``yield from comm.send(...)``.
- *Non-blocking* operations are **plain calls** returning the posted
  :class:`~repro.bcs.descriptors.BcsRequest` immediately:
  ``req = comm.isend(...)``; ``req.status()`` reads a completed receive's
  MPI_Status.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Generator, List, Optional, Sequence

import numpy as np

from .ops import Op, combine, resolve

if TYPE_CHECKING:  # pragma: no cover
    from ..bcs.descriptors import BcsRequest
    from ..storm.job import CommInfo, JobHost

#: Wildcards, re-exported at the MPI surface.
ANY_SOURCE = -1
ANY_TAG = -1


def _stack(chunks):
    """Stack per-destination chunks into one reducible array."""
    return np.stack([np.asarray(c, dtype=np.float64) for c in chunks])


class Communicator(abc.ABC):
    """Abstract MPI communicator bound to one rank of one job.

    A backend sets ``_runtime`` (its :class:`~repro.storm.job.JobHost`),
    ``_info`` (the :class:`~repro.storm.job.CommInfo`) and ``_rank``.
    """

    _runtime: JobHost
    _info: CommInfo
    _rank: int

    # -- identity ----------------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self._info.size

    # -- group operations (extension: the paper lists MPI groups as not
    # yet implemented; split lets the NPB codes that need groups run) ------

    def split(self, member_ranks: Sequence[int]) -> Optional["Communicator"]:
        """Create a sub-communicator over the given ranks of *this* comm.

        Returns the new communicator for members, None for non-members.
        All members must call with the same rank list.
        """
        world_ranks = [self._info.world_ranks[r] for r in member_ranks]
        if self._rank not in member_ranks:
            return None
        info = self._runtime.register_comm(self._info.job, world_ranks)
        return self._on(info, list(member_ranks).index(self._rank))

    @abc.abstractmethod
    def _on(self, info: CommInfo, comm_rank: int) -> "Communicator":
        """This process's communicator of the same backend over ``info``."""

    def _check_rank(self, rank: int, role: str) -> None:
        """Reject a ``role`` rank (destination, source, root) outside the
        communicator; ANY_SOURCE passes as a source."""
        if not 0 <= rank < self._info.size and not (
            rank == ANY_SOURCE and role == "source"
        ):
            raise ValueError(f"{role} rank {rank} outside communicator")

    # -- point-to-point, non-blocking ----------------------------------------------

    @abc.abstractmethod
    def isend(
        self,
        data: Any = None,
        dest: int = 0,
        tag: int = 0,
        size: Optional[int] = None,
    ) -> BcsRequest:
        """Post a non-blocking send of ``data`` (or ``size`` timing bytes)."""

    @abc.abstractmethod
    def irecv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        size: Optional[int] = None,
    ) -> BcsRequest:
        """Post a non-blocking receive with buffer capacity ``size``."""

    # -- point-to-point, blocking ---------------------------------------------------

    @abc.abstractmethod
    def send(
        self,
        data: Any = None,
        dest: int = 0,
        tag: int = 0,
        size: Optional[int] = None,
    ) -> Generator:
        """Blocking send; completes when the message has been delivered."""

    @abc.abstractmethod
    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        size: Optional[int] = None,
    ) -> Generator:
        """Blocking receive; returns the delivered payload."""

    # -- persistent requests (MPI_Send_init / MPI_Recv_init) -----------------------

    def send_init(
        self, data: Any = None, dest: int = 0, tag: int = 0, size: Optional[int] = None
    ):
        """Create a persistent send; activate rounds with ``.start()``."""
        from .request import PersistentRequest

        return PersistentRequest(
            lambda: self.isend(data, dest=dest, tag=tag, size=size), "send"
        )

    def recv_init(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        size: Optional[int] = None,
    ):
        """Create a persistent receive; activate rounds with ``.start()``."""
        from .request import PersistentRequest

        return PersistentRequest(
            lambda: self.irecv(source=source, tag=tag, size=size), "recv"
        )

    def startall(self, persistent_reqs: Sequence) -> List[BcsRequest]:
        """MPI_Startall: activate a set of persistent requests."""
        return [p.start() for p in persistent_reqs]

    # -- completion -------------------------------------------------------------------

    def test(self, req: BcsRequest) -> bool:
        """Non-blocking completion check."""
        return req.complete

    def testall(self, reqs: Sequence[BcsRequest]) -> bool:
        """Non-blocking check of a request set."""
        return all(r.complete for r in reqs)

    @abc.abstractmethod
    def wait(self, req: BcsRequest) -> Generator:
        """Block until ``req`` completes; returns its payload."""

    @abc.abstractmethod
    def waitall(self, reqs: Sequence[BcsRequest]) -> Generator:
        """Block until every request completes; returns their payloads."""

    # -- collectives ----------------------------------------------------------------------

    @abc.abstractmethod
    def barrier(self) -> Generator:
        """Synchronize all ranks."""

    @abc.abstractmethod
    def bcast(self, data: Any = None, root: int = 0, size: Optional[int] = None) -> Generator:
        """Broadcast from ``root``; every rank returns the payload."""

    @abc.abstractmethod
    def reduce(self, data: Any, op: Op, root: int = 0) -> Generator:
        """Reduce to ``root``; root returns the result, others None."""

    @abc.abstractmethod
    def allreduce(self, data: Any, op: Op) -> Generator:
        """Reduce; every rank returns the result."""

    # -- composed collectives (built on p2p, paper Appendix A) -------------------------------
    # Each plain form is its vectorial form (paper Fig. 12:
    # bcs_scatter(vectorial) etc.) without sizes.

    _SCATTER_TAG = -1001
    _GATHER_TAG = -1002
    _ALLTOALL_TAG = -1003
    _SCAN_TAG = -1005

    def scatter(self, chunks: Optional[Sequence[Any]] = None, root: int = 0) -> Generator:
        """Scatter one chunk per rank from ``root``; returns this rank's chunk."""
        return self.scatterv(chunks, root)

    def scatterv(
        self,
        chunks: Optional[Sequence[Any]] = None,
        root: int = 0,
        sizes: Optional[Sequence[int]] = None,
    ) -> Generator:
        """MPI_Scatterv: per-rank chunks of differing sizes.

        ``sizes`` (one entry per rank, known at every rank, as in MPI's
        recvcounts) bounds each receive; None derives sizes from the
        chunks at the root.
        """
        self._check_rank(root, "root")
        if self.rank == root:
            if chunks is None or len(chunks) != self.size:
                raise ValueError("scatter root needs one chunk per rank")
            reqs = [
                self.isend(chunks[r], dest=r, tag=self._SCATTER_TAG)
                for r in range(self.size)
                if r != root
            ]
            yield from self.waitall(reqs)
            return chunks[root]
        cap = None if sizes is None else sizes[self.rank]
        payload = yield from self.recv(source=root, tag=self._SCATTER_TAG, size=cap)
        return payload

    def gather(self, data: Any, root: int = 0) -> Generator:
        """Gather every rank's data at ``root`` (list indexed by rank)."""
        return self.gatherv(data, root)

    def gatherv(self, data: Any, root: int = 0) -> Generator:
        """MPI_Gatherv: gather variable-size contributions at ``root``
        (sizes ride with the payloads)."""
        self._check_rank(root, "root")
        if self.rank == root:
            reqs = {
                r: self.irecv(source=r, tag=self._GATHER_TAG)
                for r in range(self.size)
                if r != root
            }
            yield from self.waitall(list(reqs.values()))
            out: List[Any] = [None] * self.size
            out[root] = data
            for r, req in reqs.items():
                out[r] = req.payload
            return out
        yield from self.send(data, dest=root, tag=self._GATHER_TAG)
        return None

    def allgather(self, data: Any) -> Generator:
        """Gather everywhere: every rank returns the full list."""
        return self.allgatherv(data)

    def allgatherv(self, data: Any) -> Generator:
        """MPI_Allgatherv: variable-size allgather."""
        gathered = yield from self.gatherv(data, root=0)
        result = yield from self.bcast(gathered, root=0)
        return result

    def alltoall(self, chunks: Sequence[Any]) -> Generator:
        """Personalized exchange: rank i sends chunks[j] to rank j."""
        return self.alltoallv(chunks)

    def alltoallv(
        self, chunks: Sequence[Any], sizes: Optional[Sequence[int]] = None
    ) -> Generator:
        """MPI_Alltoallv: personalized exchange with per-pair sizes.

        ``sizes[j]`` bounds what rank j sends us; None leaves receives
        unbounded (the payload carries its own size).
        """
        if len(chunks) != self.size:
            raise ValueError("alltoall needs one chunk per rank")
        if sizes is not None and len(sizes) != self.size:
            raise ValueError("alltoallv needs one size per rank")
        sends = [
            self.isend(chunks[r], dest=r, tag=self._ALLTOALL_TAG)
            for r in range(self.size)
            if r != self.rank
        ]
        recvs = {
            r: self.irecv(
                source=r,
                tag=self._ALLTOALL_TAG,
                size=None if sizes is None else sizes[r],
            )
            for r in range(self.size)
            if r != self.rank
        }
        yield from self.waitall(sends + list(recvs.values()))
        out: List[Any] = [None] * self.size
        out[self.rank] = chunks[self.rank]
        for r, req in recvs.items():
            out[r] = req.payload
        return out

    def sendrecv(
        self,
        senddata: Any = None,
        dest: int = 0,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        size: Optional[int] = None,
        recvsize: Optional[int] = None,
    ) -> Generator:
        """MPI_Sendrecv: simultaneous send and receive (deadlock-free)."""
        send_req = self.isend(senddata, dest=dest, tag=sendtag, size=size)
        recv_req = self.irecv(source=source, tag=recvtag, size=recvsize)
        yield from self.waitall([send_req, recv_req])
        return recv_req.payload

    def scan(self, data: Any, op: Op) -> Generator:
        """MPI_Scan: inclusive prefix reduction over ranks 0..self."""
        return self._scan(data, op, inclusive=True)

    def exscan(self, data: Any, op: Op) -> Generator:
        """MPI_Exscan: exclusive prefix reduction (rank 0 returns None)."""
        return self._scan(data, op, inclusive=False)

    def _scan(self, data, op, inclusive):
        """Linear-chain prefix reduction (deterministic order).

        Rank r receives the prefix over 0..r-1 from rank r-1, combines,
        and forwards the prefix over 0..r to rank r+1.
        """
        kernel = resolve(op).kernel
        prefix_below = None
        if self.rank > 0:
            prefix_below = yield from self.recv(
                source=self.rank - 1, tag=self._SCAN_TAG
            )
        running = data if prefix_below is None else combine(kernel, prefix_below, data)
        if self.rank + 1 < self.size:
            yield from self.send(running, dest=self.rank + 1, tag=self._SCAN_TAG)
        if inclusive:
            return running
        return prefix_below  # None on rank 0, as MPI_Exscan leaves it

    def reduce_scatter_block(self, chunks: Sequence[Any], op: Op) -> Generator:
        """MPI_Reduce_scatter_block: reduce then scatter one chunk each."""
        if len(chunks) != self.size:
            raise ValueError("reduce_scatter needs one chunk per rank")
        reduced = yield from self.reduce(_stack(chunks), op, root=0)
        mine = yield from self.scatter(
            list(reduced) if self.rank == 0 else None, root=0
        )
        return mine
