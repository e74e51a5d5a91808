"""Discrete-event simulation kernel.

A from-scratch, deterministic, integer-time DES engine in the SimPy style:
processes are generator coroutines that yield :class:`Event` objects.
"""

from .engine import Engine
from .errors import Deadlock, EventAlreadyTriggered, Interrupt, SimError
from .events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Latch,
    Timeout,
)
from .process import Process
from .resources import Gate, Link, Resource, Signal
from .rng import RngRegistry, derive_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Deadlock",
    "Engine",
    "Event",
    "EventAlreadyTriggered",
    "Gate",
    "Interrupt",
    "Latch",
    "Link",
    "Process",
    "Resource",
    "RngRegistry",
    "Signal",
    "SimError",
    "Timeout",
    "derive_seed",
]
