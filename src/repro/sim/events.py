"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence with a value (or an exception).
Processes (see :mod:`repro.sim.process`) suspend by yielding events; the
engine resumes them when the event triggers.

The design follows the classic SimPy shape but is implemented from scratch
and specialized for this project: integer time, deterministic callback
order, and a small surface.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional

from .errors import EventAlreadyTriggered

PENDING = object()


class Event:
    """A one-shot event.

    States: *pending* (value is ``PENDING``), *triggered* (scheduled to
    fire; value set), *processed* (callbacks have run).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "name")

    def __init__(self, env, name: str = ""):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok = True
        self._defused = False
        self.name = name

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise AttributeError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is PENDING:
            raise AttributeError("event not yet triggered")
        return self._value

    # -- triggering -----------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger successfully with ``value`` and schedule callbacks now."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered(repr(self))
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger as failed with ``exception``."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered(repr(self))
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def settle(self, value: Any = None) -> "Event":
        """Succeed with ``value``; with no callback registered yet, the
        event is processed at once instead of through a heap entry.

        Exact for an event nobody watches: its entry would only mark it
        processed.  A party that yields it later resumes through the
        process's ``carry`` path at that instant, and a condition built
        over it later counts it at construction, as it would once the
        entry had fired.
        """
        if self.callbacks:
            return self.succeed(value)
        if self._value is not PENDING:
            raise EventAlreadyTriggered(repr(self))
        self._ok = True
        self._value = value
        self.callbacks = None
        return self

    def trigger(self, event: "Event") -> None:
        """Copy another event's outcome onto this one (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- misc -----------------------------------------------------------------

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine won't crash."""
        self._defused = True

    def __repr__(self) -> str:
        state = (
            "pending"
            if not self.triggered
            else ("ok" if self._ok else "failed")
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that triggers ``delay`` ns after creation."""

    __slots__ = ("delay",)

    def __init__(self, env, delay: int, value: Any = None, name: str = ""):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay}")
        # The most frequent event by far: Event.__init__ and
        # Engine.schedule are inlined.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.name = name
        self.delay = delay = int(delay)
        env._seq += 1
        heapq.heappush(env._queue, (env.now + delay, env._seq, self))


class Latch(Event):
    """Countdown event: triggers after ``count`` calls to :meth:`count_down`.

    A barrier where the waiters' values don't matter.  Compared to the
    (one event per party + :class:`AllOf`) pattern it allocates a single
    event, registers no fan-in callbacks, and fires the moment the last
    party counts down — at the same timestamp, one event hop earlier.
    A latch created with ``count == 0`` succeeds immediately.  One that
    completes with no completion delay and no callback registered is
    processed at once, like :meth:`Event.settle`: a party that yields
    it later resumes at that instant.

    A *completion delay* folds a fixed cost that follows the barrier
    into the latch's own heap entry: with ``delay`` and ``not_before``,
    the latch fires at ``max(t_last + delay, not_before)``, where
    ``t_last`` is the instant of the last count-down.  The Strobe Sender
    charges each microphase's Compare-And-Write latency and its minimum
    duration this way, instead of waking to start a timeout.
    """

    __slots__ = ("remaining", "delay", "not_before")

    def __init__(
        self, env, count: int, name: str = "", delay: int = 0, not_before: int = 0
    ):
        if count < 0:
            raise ValueError(f"negative latch count {count}")
        if delay < 0:
            raise ValueError(f"negative latch delay {delay}")
        super().__init__(env, name=name)
        self.remaining = count
        self.delay = delay
        self.not_before = not_before
        if count == 0:
            self._complete()

    def count_down(self, n: int = 1) -> "Latch":
        """Decrement the count by ``n``; triggers when it reaches zero."""
        if n < 1:
            raise ValueError(f"count_down amount must be >= 1, got {n}")
        if self.remaining < n:
            raise EventAlreadyTriggered(repr(self))
        self.remaining -= n
        if self.remaining == 0:
            self._complete()
        return self

    def _complete(self) -> None:
        # Completion delay: fire ``delay`` ns after the last count-down,
        # but never before the absolute time ``not_before``.  A latch that
        # fires now with nobody watching settles (see Event.settle).
        env = self.env
        self._ok = True
        self._value = None
        delay = max(self.delay, self.not_before - env.now)
        if delay or self.callbacks:
            env.schedule(self, delay=delay)
        else:
            self.callbacks = None


class FanOut(Event):
    """Heap carrier of :meth:`Engine.trigger_all`: processes its members.

    ``key`` is the carrier's (time, seq) heap key.  If a
    member's callback raises (``run(until=member)`` stops the engine
    that way), the members not yet processed are re-queued under the
    same key, so they still fire where their own entries would have.
    """

    __slots__ = ("members", "key")

    def __init__(self, env, members: List[Event]):
        super().__init__(env, name="fanout")
        self._value = None
        self.members = members
        self.key = None
        self.callbacks.append(self._fire)

    def _fire(self, _event: "FanOut") -> None:
        members = self.members
        for i, ev in enumerate(members):
            callbacks = ev.callbacks
            ev.callbacks = None
            try:
                for cb in callbacks:
                    cb(ev)
            except BaseException:
                if i + 1 < len(members):
                    rest = FanOut(self.env, members[i + 1 :])
                    rest.key = self.key
                    heapq.heappush(self.env._queue, (*self.key, rest))
                raise


class Condition(Event):
    """Composite event over a fixed set of sub-events.

    ``evaluate`` receives (events, done_count) and returns True when the
    condition is satisfied.  The condition value is an ordered dict of the
    triggered sub-events' values (insertion order = given order).
    """

    __slots__ = ("events", "_evaluate", "_done")

    def __init__(self, env, evaluate, events: Iterable[Event], name: str = ""):
        super().__init__(env, name=name)
        self.events = tuple(events)
        self._evaluate = evaluate
        self._done = 0

        for ev in self.events:
            if ev.env is not env:
                raise ValueError("conditions cannot mix engines")

        if not self.events:
            self.succeed({})
            return

        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _collect_values(self) -> dict:
        # Only *processed* events count: a Timeout carries its value from
        # creation (so ``triggered`` is immediately true), but it hasn't
        # "happened" until its callbacks run.
        return {
            ev: ev._value
            for ev in self.events
            if ev.processed and ev._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defuse()
            return
        self._done += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self.events, self._done):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events, done) -> bool:
        """Evaluate: every sub-event has triggered."""
        return len(events) == done

    @staticmethod
    def any_events(events, done) -> bool:
        """Evaluate: at least one sub-event has triggered."""
        return done > 0 or len(events) == 0


class AllOf(Condition):
    """Triggers once all given events have triggered."""

    __slots__ = ()

    def __init__(self, env, events, name: str = ""):
        super().__init__(env, Condition.all_events, events, name=name)


class AnyOf(Condition):
    """Triggers once any one of the given events has triggered."""

    __slots__ = ()

    def __init__(self, env, events, name: str = ""):
        super().__init__(env, Condition.any_events, events, name=name)
