"""MPI persistent requests (MPI_Send_init/MPI_Recv_init).

A non-blocking call on either backend returns the
:class:`repro.bcs.descriptors.BcsRequest` it posted; a persistent request
holds the one of its current round.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..bcs.descriptors import BcsRequest


class PersistentRequest:
    """MPI persistent communication request (MPI_Send_init/Recv_init).

    Captures the call's arguments once; each :meth:`start` posts a fresh
    instance of the operation through the owning communicator.  Between
    a completion and the next ``start`` the handle is *inactive*.
    """

    __slots__ = ("_post", "kind", "active")

    def __init__(self, post, kind: str):
        self._post = post
        self.kind = kind
        #: The in-flight request of the current round (None if inactive).
        self.active: Optional["BcsRequest"] = None

    def start(self) -> "BcsRequest":
        """Activate the operation; returns this round's request."""
        if self.active is not None and not self.active.complete:
            raise RuntimeError("persistent request already active")
        self.active = self._post()
        return self.active

    @property
    def complete(self) -> bool:
        """Whether the current round (if any) has finished."""
        return self.active is None or self.active.complete

    @property
    def payload(self):
        """The last round's delivered payload."""
        return None if self.active is None else self.active.payload

    def __repr__(self) -> str:
        state = "inactive" if self.active is None else (
            "done" if self.active.complete else "active"
        )
        return f"<PersistentRequest {self.kind} {state}>"
