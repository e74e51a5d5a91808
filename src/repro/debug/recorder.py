"""Deterministic-replay debugging.

Paper §1: "the communication state of all processes is known at the
beginning of every time slice [which] facilitates the implementation of
checkpointing and debugging mechanisms."  Because this runtime is
bit-deterministic, the strongest debugging primitive is *replay
comparison*: record the communication log of a run, re-run, and diff.
Any divergence pinpoints the first nondeterministic (or changed) event
— the debugging workflow a SIMD-style global OS makes possible.

The log is the telemetry hub's whole protocol log
(:attr:`repro.obs.Observability.events`), every entry of every kind, in
canonical order: sorted by ``(t, repr(entry))``.  Neither slice engine
appends in time order, and the two write same-instant entries in
different host orders, so the canonical log is what two runs can be
compared by: one per-instant multiset.  Event aggregation goes through
a :class:`repro.obs.MetricsRegistry` (one counter per event kind, a
bytes counter per transfer kind), so the recorder's statistics render
with the same machinery as the runtime's slice telemetry.

Usage::

    recorder = FlightRecorder()
    runtime.attach_observability(recorder.obs)
    ... run ...
    log = recorder.log()

    divergence = diff_logs(log_a, log_b)   # [] when runs are identical
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional

from ..obs import MetricsRegistry, Observability


@dataclass(frozen=True)
class Divergence:
    """First point where two communication logs disagree."""

    index: int
    left: Optional[tuple]
    right: Optional[tuple]

    def __str__(self) -> str:
        return (
            f"logs diverge at event {self.index}:\n"
            f"  run A: {self.left}\n"
            f"  run B: {self.right}"
        )


class FlightRecorder:
    """Captures a run's ordered communication log."""

    def __init__(self):
        #: The hub to attach to the runtime under test.
        self.obs = Observability()
        #: Aggregated event statistics (``replay.events``/``replay.bytes``
        #: counters, labeled by event kind), rebuilt by :meth:`log`.
        self.registry = MetricsRegistry()

    def log(self) -> List[tuple]:
        """The protocol log in canonical order: sorted by ``(t, repr(entry))``.

        Each entry is a plain tuple (hashable, diffable):
        ``(time, kind, details...)``.  As a side effect the recorder's
        :attr:`registry` is rebuilt with per-kind event/byte counters.
        """
        log = sorted(self.obs.events, key=lambda e: (e[0], repr(e)))
        kinds = Counter(entry[1] for entry in log)
        nbytes = Counter()
        for entry in log:
            kind = entry[1]
            if kind == "unicast":
                nbytes[kind] += entry[4]
            elif kind == "multicast":
                nbytes[kind] += entry[4] * len(entry[3])
        registry = self.registry
        registry.reset()
        for kind, n in kinds.items():
            registry.counter("replay.events", kind=kind).inc(n)
        for kind, n in nbytes.items():
            if n:
                registry.counter("replay.bytes", kind=kind).inc(n)
        return log

    def summary(self) -> str:
        """Deterministic text summary of the recorded event mix."""
        self.log()
        return self.registry.render()


def diff_logs(a: List[tuple], b: List[tuple]) -> List[Divergence]:
    """Compare two communication logs; empty list means identical.

    Reports the first divergence (different event, or one log ending
    early) — with a deterministic runtime that is exactly where the two
    executions started to differ.
    """
    for i, (ea, eb) in enumerate(zip(a, b)):
        if ea != eb:
            return [Divergence(i, ea, eb)]
    if len(a) != len(b):
        i = min(len(a), len(b))
        return [
            Divergence(
                i,
                a[i] if i < len(a) else None,
                b[i] if i < len(b) else None,
            )
        ]
    return []


def assert_replayable(run_fn) -> List[tuple]:
    """Run ``run_fn(obs)`` twice and assert identical logs.

    ``run_fn`` must accept an :class:`~repro.obs.Observability` hub and
    perform a complete run on a *fresh* runtime it is attached to.
    Returns the (verified) log.
    """
    logs = []
    for _ in range(2):
        recorder = FlightRecorder()
        run_fn(recorder.obs)
        logs.append(recorder.log())
    divergences = diff_logs(logs[0], logs[1])
    if divergences:
        raise AssertionError(f"run is not replayable:\n{divergences[0]}")
    return logs[0]
