"""MPI on top of the BCS API (paper Figure 13 correspondence).

Every MPI primitive maps to one BCS call:

===================  ==========================================
MPI                  BCS
===================  ==========================================
MPI_Send/Isend       bcs_send(blocking / non-blocking)
MPI_Recv/Irecv       bcs_recv(blocking / non-blocking)
MPI_Test/Wait        bcs_test(non-blocking / blocking)
MPI_Testall/Waitall  bcs_testall(non-blocking / blocking)
MPI_Barrier          bcs_barrier
MPI_Bcast            bcs_bcast
MPI_Reduce           bcs_reduce(non-all)
MPI_Allreduce        bcs_reduce(all)
scatter/gather/...   composed over the NIC p2p primitives
===================  ==========================================
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

from ..api.bcs_api import BcsApi
from .communicator import ANY_SOURCE, ANY_TAG, Communicator
from .ops import resolve
from .request import MpiRequest


class BcsCommunicator(Communicator):
    """An MPI communicator backed by the BCS-MPI runtime."""

    def __init__(self, runtime, handle, info, comm_rank: int):
        self._runtime = runtime
        self._api = BcsApi(runtime)
        self._handle = handle
        self._info = info
        self._rank = comm_rank

    # -- identity -------------------------------------------------------------

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._info.size

    # -- group operations (extension: the paper lists MPI groups as not
    # yet implemented; we provide split so NPB codes needing groups run) ----

    def split(self, member_world_comm_ranks: Sequence[int]) -> Optional["BcsCommunicator"]:
        """Create a sub-communicator over the given ranks of *this* comm.

        Returns the new communicator for members, None for non-members.
        All members must call with the same rank list.
        """
        world_ranks = [self._info.world_ranks[r] for r in member_world_comm_ranks]
        if self._rank not in member_world_comm_ranks:
            return None
        new_info = self._runtime.register_comm(self._info.job, world_ranks)
        new_rank = list(member_world_comm_ranks).index(self._rank)
        return BcsCommunicator(self._runtime, self._handle, new_info, new_rank)

    # -- point-to-point ----------------------------------------------------------

    def isend(self, data: Any = None, dest: int = 0, tag: int = 0, size=None) -> MpiRequest:
        req = self._api.post_send(
            self._handle, self._info, self._rank, dest, data, tag, size
        )
        return MpiRequest(req, "isend")

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, size=None) -> MpiRequest:
        req = self._api.post_recv(
            self._handle, self._info, self._rank, source, tag, size
        )
        return MpiRequest(req, "irecv")

    def send(self, data: Any = None, dest: int = 0, tag: int = 0, size=None) -> Generator:
        yield from self._api.send(
            self._handle, self._info, self._rank, dest, data, tag, size
        )

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, size=None) -> Generator:
        req = yield from self._api.recv(
            self._handle, self._info, self._rank, source, tag, size
        )
        return req.payload

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking probe of the unexpected-message queue."""
        return self._api.probe(self._handle, self._info, self._rank, source, tag)

    def cancel(self, req: MpiRequest) -> bool:
        """MPI_Cancel: withdraw an unmatched non-blocking receive.

        True if cancelled (the request completes with a None payload);
        False if the message was already matched and will arrive.
        """
        if req.kind != "irecv":
            raise ValueError("only receive requests can be cancelled")
        return self._api.cancel_recv(self._handle, req.backend_req)

    # -- completion ------------------------------------------------------------------

    def wait(self, req: MpiRequest) -> Generator:
        yield from self._api.wait(self._handle, [req.backend_req])
        return req.payload

    def waitall(self, reqs: Sequence[MpiRequest]) -> Generator:
        yield from self._api.wait(self._handle, [r.backend_req for r in reqs])
        return [r.payload for r in reqs]

    # -- collectives -------------------------------------------------------------------

    def barrier(self) -> Generator:
        yield from self._api.barrier(self._handle, self._info, self._rank)

    def bcast(self, data: Any = None, root: int = 0, size=None) -> Generator:
        result = yield from self._api.bcast(
            self._handle, self._info, self._rank, data, root, size
        )
        return result

    def reduce(self, data: Any, op, root: int = 0) -> Generator:
        result = yield from self._api.reduce(
            self._handle, self._info, self._rank, data, resolve(op).kernel, root
        )
        return result

    def allreduce(self, data: Any, op) -> Generator:
        result = yield from self._api.reduce(
            self._handle,
            self._info,
            self._rank,
            data,
            resolve(op).kernel,
            root=0,
            all_ranks=True,
        )
        return result
