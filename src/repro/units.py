"""Time and size units.

All simulation time is kept in **integer nanoseconds** so that runs are
bit-deterministic: floating-point time accumulates rounding that differs
between summation orders, which would make the globally-coscheduled
protocol (whose whole point is determinism) nondeterministic.

All sizes are in **bytes**.
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------

NS = 1
US = 1_000
MS = 1_000_000
S = 1_000_000_000


def ns(t: float) -> int:
    """Convert a nanosecond quantity to integer time."""
    return int(round(t))


def us(t: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return int(round(t * US))


def ms(t: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return int(round(t * MS))


def seconds(t: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return int(round(t * S))


def to_seconds(t: int) -> float:
    """Convert integer nanoseconds to float seconds (reporting only)."""
    return t / S


def to_us(t: int) -> float:
    """Convert integer nanoseconds to float microseconds (reporting only)."""
    return t / US


def fmt_time(t: int) -> str:
    """Render a time span with an appropriate unit for humans."""
    if t < 10 * US:
        return f"{t} ns"
    if t < 10 * MS:
        return f"{t / US:.2f} us"
    if t < 10 * S:
        return f"{t / MS:.2f} ms"
    return f"{t / S:.3f} s"


# --- sizes -----------------------------------------------------------------

B = 1
KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * 1024 * 1024


def kib(n: float) -> int:
    """Convert KiB to bytes."""
    return int(round(n * KiB))


def mib(n: float) -> int:
    """Convert MiB to bytes."""
    return int(round(n * MiB))


def fmt_size(n: int) -> str:
    """Render a byte count with an appropriate unit for humans."""
    if n < 2 * KiB:
        return f"{n} B"
    if n < 2 * MiB:
        return f"{n / KiB:.1f} KiB"
    return f"{n / MiB:.2f} MiB"


def bw_time(size_bytes: int, bytes_per_second: float) -> int:
    """Time (ns) to move ``size_bytes`` at ``bytes_per_second``.

    Rounds up so that zero-cost transfers can only come from zero sizes.
    """
    if size_bytes <= 0:
        return 0
    ns_float = size_bytes * S / bytes_per_second
    t = int(ns_float)
    if ns_float > t:
        t += 1
    return t
