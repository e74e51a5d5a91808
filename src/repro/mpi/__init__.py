"""MPI facade: one interface, two backends (BCS-MPI and baseline)."""

from . import datatypes, ops
from .communicator import ANY_SOURCE, ANY_TAG, Communicator
from .context import AppContext
from .status import Status

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "AppContext",
    "Communicator",
    "Status",
    "datatypes",
    "ops",
]
