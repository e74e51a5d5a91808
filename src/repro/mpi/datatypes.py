"""MPI datatypes.

Payloads in this system are numpy arrays (or raw sizes for timing-only
messages), so a datatype is a thin record tying an MPI name to a numpy
dtype and an element size — enough to size messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Datatype:
    """One MPI basic datatype."""

    name: str
    np_dtype: np.dtype
    #: True for floating-point types (SoftFloat on the paper's FPU-less
    #: NIC; the simulator models that by its cost only).
    is_float: bool

    @property
    def extent(self) -> int:
        """Size of one element in bytes."""
        return self.np_dtype.itemsize

    def __repr__(self) -> str:
        return f"<Datatype {self.name}>"


def _dt(name: str, np_type, is_float: bool) -> Datatype:
    return Datatype(name, np.dtype(np_type), is_float)


DOUBLE = _dt("MPI_DOUBLE", np.float64, True)
FLOAT = _dt("MPI_FLOAT", np.float32, True)
INT = _dt("MPI_INT", np.int32, False)
LONG = _dt("MPI_LONG", np.int64, False)
BYTE = _dt("MPI_BYTE", np.uint8, False)
CHAR = _dt("MPI_CHAR", np.uint8, False)

BY_NAME = {d.name: d for d in (DOUBLE, FLOAT, INT, LONG, BYTE, CHAR)}


def from_array(arr: np.ndarray) -> Datatype:
    """Infer the MPI datatype of a numpy array."""
    for d in BY_NAME.values():
        if d.np_dtype == arr.dtype:
            return d
    # Unknown dtypes still move as bytes; reduces will reject them.
    return Datatype(f"MPI_OPAQUE[{arr.dtype}]", arr.dtype, False)
