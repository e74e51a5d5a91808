"""The NIC's reduction arithmetic in software, against the host's.

Two evaluation paths:

- ``host``: :func:`repro.mpi.ops.combine`, the numpy combine every
  reduce in the simulator uses.
- ``nic``: element-wise softfloat on bit patterns — what BCS-MPI's Reduce
  Helper thread does on the FPU-less NIC (paper §4.4).

Since both implement IEEE-754 round-to-nearest-even, results are
bit-identical for the same reduction order; tests assert exactly that.
That identity is why the simulator models NIC reduces by their cost
alone and computes the value on the host path.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..mpi.ops import combine
from .arith import f64_add, f64_max, f64_min, f64_mul
from .bits import bits_to_float, float_to_bits

#: Softfloat binary kernels by op name (float64 path).
_SOFT_KERNELS: dict[str, Callable[[int, int], int]] = {
    "sum": f64_add,
    "prod": f64_mul,
    "min": f64_min,
    "max": f64_max,
}

#: Integer kernels (NIC integer ALU; exact on both paths).
_INT_KERNELS: dict[str, Callable[[int, int], int]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "min": min,
    "max": max,
    "land": lambda a, b: int(bool(a) and bool(b)),
    "lor": lambda a, b: int(bool(a) or bool(b)),
    "band": lambda a, b: a & b,
    "bor": lambda a, b: a | b,
    "bxor": lambda a, b: a ^ b,
}

OP_NAMES = tuple(sorted(set(_SOFT_KERNELS) | set(_INT_KERNELS)))


def combine_host(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Combine two buffers the way the simulator does (host path)."""
    return combine(op, a, b)


def combine_nic(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Combine two buffers element-wise the way the NIC does.

    float64 buffers go through the softfloat kernels on raw bit
    patterns; integer buffers use the NIC's integer ALU.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.dtype == np.float64:
        try:
            kern = _SOFT_KERNELS[op]
        except KeyError:
            raise ValueError(f"op {op!r} undefined for float64") from None
        out = np.empty_like(a)
        flat_a, flat_b, flat_o = a.ravel(), b.ravel(), out.ravel()
        for i in range(flat_a.size):
            bits = kern(float_to_bits(float(flat_a[i])), float_to_bits(float(flat_b[i])))
            flat_o[i] = bits_to_float(bits)
        return flat_o.reshape(a.shape)
    if np.issubdtype(a.dtype, np.integer):
        try:
            kern = _INT_KERNELS[op]
        except KeyError:
            raise ValueError(f"op {op!r} undefined for integers") from None
        out = np.array(
            [kern(int(x), int(y)) for x, y in zip(a.ravel(), b.ravel())],
            dtype=a.dtype,
        )
        return out.reshape(a.shape)
    raise TypeError(f"unsupported reduce dtype {a.dtype}")


def reduce_buffers(
    op: str, buffers: Sequence[np.ndarray], path: str = "nic"
) -> np.ndarray:
    """Fold ``buffers`` pairwise left-to-right with op via the given path.

    Order matters for floats; both MPI backends use the same ascending-
    rank order so results are comparable bit-for-bit.
    """
    if not buffers:
        raise ValueError("nothing to reduce")
    combine = combine_nic if path == "nic" else combine_host
    acc = np.array(buffers[0], copy=True)
    for buf in buffers[1:]:
        acc = combine(op, acc, np.asarray(buf))
    return acc
