"""MPI reduction operations.

Maps the MPI op vocabulary onto numpy kernels, and :func:`combine`
applies one to two partials.  Every reduce in the simulator combines
through it: the baseline's host tree, the BCS Reduce Helper and the
scan chain.  The paper's Reduce Helper computes on the FPU-less Elan3
NIC with a SoftFloat library (§4.4); the simulator charges that work as
``BcsConfig.nic_reduce_cost_per_element`` and computes the value with
numpy, which gives the same IEEE-754 binary64 round-to-nearest-even
result (the tests of the softfloat reference package check that).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Op:
    """One MPI reduction operation."""

    name: str
    #: Kernel key understood by :func:`combine`.
    kernel: str
    commutative: bool = True

    def __repr__(self) -> str:
        return f"<Op {self.name}>"


SUM = Op("MPI_SUM", "sum")
PROD = Op("MPI_PROD", "prod")
MIN = Op("MPI_MIN", "min")
MAX = Op("MPI_MAX", "max")
LAND = Op("MPI_LAND", "land")
LOR = Op("MPI_LOR", "lor")
BAND = Op("MPI_BAND", "band")
BOR = Op("MPI_BOR", "bor")
BXOR = Op("MPI_BXOR", "bxor")

BY_NAME = {
    op.name: op for op in (SUM, PROD, MIN, MAX, LAND, LOR, BAND, BOR, BXOR)
}

#: Arithmetic kernels: numpy's type promotion picks the result dtype.
_ARITH = {"sum": np.add, "prod": np.multiply, "min": np.minimum, "max": np.maximum}
#: Logical and bitwise kernels: the result keeps the first operand's dtype.
_BITWISE = {
    "land": np.logical_and,
    "lor": np.logical_or,
    "band": np.bitwise_and,
    "bor": np.bitwise_or,
    "bxor": np.bitwise_xor,
}


def resolve(op) -> Op:
    """Accept an :class:`Op`, an MPI name, or a bare kernel key."""
    if isinstance(op, Op):
        return op
    if op in BY_NAME:
        return BY_NAME[op]
    for candidate in BY_NAME.values():
        if candidate.kernel == op:
            return candidate
    raise ValueError(f"unknown reduce op {op!r}")


def combine(kernel: str, a, b):
    """``a`` combined with ``b`` by ``kernel``, as a new value.

    Arrays give an array that aliases neither input; scalars ride
    through 0-d arrays and come back as Python scalars.  Overflow to
    infinity is well-defined IEEE behaviour, so numpy's warning is
    silenced.
    """
    if not isinstance(a, np.ndarray):
        return combine(kernel, np.asarray(a), np.asarray(b)).item()
    if kernel in _ARITH:
        with np.errstate(over="ignore", invalid="ignore"):
            return _ARITH[kernel](a, b)
    if kernel in _BITWISE:
        return _BITWISE[kernel](a, b).astype(a.dtype, copy=False)
    raise ValueError(f"unknown reduce op {kernel!r}")
