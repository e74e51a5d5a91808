"""Software IEEE-754 binary64: the FPU-less NIC's reduce arithmetic.

No run imports it.  The simulator models NIC reduces by their cost and
computes the value with :func:`repro.mpi.ops.combine`; this package is
the reference whose tests show the two agree bit for bit.
"""

from .arith import (
    f64_add,
    f64_div,
    f64_sqrt,
    f64_cmp,
    f64_from_int,
    f64_lt,
    f64_max,
    f64_min,
    f64_mul,
    f64_neg,
    f64_sub,
)
from .bits import (
    NEG_INF,
    NEG_ZERO,
    POS_INF,
    POS_ZERO,
    QNAN,
    bits_to_float,
    float_to_bits,
    is_inf,
    is_nan,
    is_subnormal,
    is_zero,
)
from .ops import OP_NAMES, combine_host, combine_nic, reduce_buffers

__all__ = [
    "NEG_INF",
    "NEG_ZERO",
    "OP_NAMES",
    "POS_INF",
    "POS_ZERO",
    "QNAN",
    "bits_to_float",
    "combine_host",
    "combine_nic",
    "f64_add",
    "f64_cmp",
    "f64_div",
    "f64_sqrt",
    "f64_from_int",
    "f64_lt",
    "f64_max",
    "f64_min",
    "f64_mul",
    "f64_neg",
    "f64_sub",
    "float_to_bits",
    "is_inf",
    "is_nan",
    "is_subnormal",
    "is_zero",
    "reduce_buffers",
]
