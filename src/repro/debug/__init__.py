"""Deterministic-replay debugging tools (paper §1)."""

from .diagnostics import diagnose
from .recorder import Divergence, FlightRecorder, assert_replayable, diff_logs

__all__ = [
    "Divergence",
    "FlightRecorder",
    "assert_replayable",
    "diagnose",
    "diff_logs",
]
