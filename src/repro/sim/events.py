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
        super().__init__(env, name=name)
        self.delay = int(delay)
        self._ok = True
        self._value = value
        env.schedule(self, delay=self.delay)


class Latch(Event):
    """Countdown event: triggers after ``count`` calls to :meth:`count_down`.

    A barrier where the waiters' values don't matter.  Compared to the
    (one event per party + :class:`AllOf`) pattern it allocates a single
    event, registers no fan-in callbacks, and fires the moment the last
    party counts down — at the same timestamp, one event hop earlier.
    A latch created with ``count == 0`` succeeds immediately.
    """

    __slots__ = ("remaining",)

    def __init__(self, env, count: int, name: str = ""):
        if count < 0:
            raise ValueError(f"negative latch count {count}")
        super().__init__(env, name=name)
        self.remaining = count
        if count == 0:
            self.succeed(None)

    def count_down(self, n: int = 1) -> "Latch":
        """Decrement the count by ``n``; triggers when it reaches zero."""
        if n < 1:
            raise ValueError(f"count_down amount must be >= 1, got {n}")
        if self.remaining < n:
            raise EventAlreadyTriggered(repr(self))
        self.remaining -= n
        if self.remaining == 0:
            self.succeed(None)
        return self


class ReusableLatch(Latch):
    """A :class:`Latch` the same owner can re-arm once it has been processed.

    The Strobe Sender runs five microphase barriers per active slice for
    the whole simulation; allocating a fresh latch for each is pure churn
    when nobody keeps a reference past the barrier.  A reusable latch is
    born *processed* (it never enters the event queue at construction)
    and :meth:`rearm` returns it to the pending state with a new count.

    Re-arming is only legal once the previous cycle's callbacks have run
    (``processed`` is true) — exactly the guarantee a ``yield latch``
    gives the process that owns it.  Handing the latch to parties that
    may hold it across cycles forfeits that guarantee; use a plain
    :class:`Latch` there.
    """

    __slots__ = ()

    def __init__(self, env, name: str = ""):
        Event.__init__(self, env, name=name)
        self.remaining = 0
        # Born processed: triggered (value None) with callbacks done.
        self._value = None
        self.callbacks = None

    def rearm(self, count: int, name: str = "") -> "ReusableLatch":
        """Reset to pending with ``count`` outstanding parties."""
        if self.callbacks is not None:
            raise EventAlreadyTriggered(f"rearm of in-flight {self!r}")
        if count < 0:
            raise ValueError(f"negative latch count {count}")
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.remaining = count
        self.name = name
        if count == 0:
            self.succeed(None)
        return self


class ReusableTimeout(Timeout):
    """A :class:`Timeout` the same owner can re-schedule after it fired.

    Like :class:`ReusableLatch`: born processed, and :meth:`rearm`
    schedules it ``delay`` ns from now exactly as constructing a fresh
    :class:`Timeout` would.  Only legal once the previous cycle has been
    processed, i.e. for the strictly sequential ``yield`` pattern.
    """

    __slots__ = ()

    def __init__(self, env, name: str = ""):
        Event.__init__(self, env, name=name)
        self.delay = 0
        self._value = None
        self.callbacks = None

    def rearm(self, delay: int, value: Any = None) -> "ReusableTimeout":
        """Reset to pending and schedule ``delay`` ns from now."""
        if self.callbacks is not None:
            raise EventAlreadyTriggered(f"rearm of in-flight {self!r}")
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay}")
        self.callbacks = []
        self._ok = True
        self._defused = False
        self._value = value
        self.delay = int(delay)
        self.env.schedule(self, delay=self.delay)
        return self


class FanOut(Event):
    """Heap carrier of :meth:`Engine.trigger_all`: processes its members.

    ``key`` is the carrier's (time, priority, seq) heap key.  If a
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
