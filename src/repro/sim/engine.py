"""The discrete-event engine.

A deterministic event loop over integer-nanosecond timestamps.  Ties are
broken by a monotonically increasing sequence number so two runs of the
same program always process events in the same order.
"""

from __future__ import annotations

import heapq
from typing import Any, Generator, Iterable, Optional

from .errors import Deadlock, StopEngine
from .events import PENDING, AllOf, AnyOf, Event, FanOut, Timeout
from .process import Process


class Engine:
    """Discrete-event simulation engine ("environment")."""

    __slots__ = ("_now", "_queue", "_seq", "_active_proc", "trace")

    def __init__(self, trace=None):
        self._now = 0
        self._queue: list = []  # heap of (time, priority, seq, event)
        self._seq = 0
        self._active_proc: Optional[Process] = None
        #: Optional :class:`repro.sim.trace.Trace` sink.
        self.trace = trace

    # -- time -----------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in integer nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    # -- event factories --------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: int, value: Any = None, name: str = "") -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event], name: str = "") -> AllOf:
        """Event that fires when all ``events`` have fired."""
        return AllOf(self, events, name=name)

    def any_of(self, events: Iterable[Event], name: str = "") -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events, name=name)

    # -- scheduling --------------------------------------------------------------

    def schedule(
        self, event: Event, delay: int = 0, priority: int = 0, _heappush=heapq.heappush
    ) -> None:
        """Queue a triggered event's callbacks to run ``delay`` ns from now.

        ``priority`` orders events scheduled for the same instant (lower
        runs first); within one (time, priority) bucket, insertion order
        wins.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        _heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def trigger_all(self, events: Iterable[Event], value: Any = None) -> int:
        """Succeed every pending event in ``events`` through one heap entry.

        Exactly equivalent to calling ``succeed(value)`` on each pending
        member back to back: those calls would take consecutive sequence
        numbers at the same (time, priority 0), so nothing else could run
        between them (no entry here uses a lower priority that could cut
        in).  Here one carrier entry takes that slot; when it fires, each
        member in turn is marked processed and its callbacks run.  A
        member's ``callbacks`` list stays live until its turn, so
        a process that yields a later member from an earlier member's
        callback resumes at that member's turn, as it would have.
        Already-triggered members are skipped; an empty set schedules
        nothing.  Returns the number of members triggered.
        """
        members = []
        for ev in events:
            if ev._value is PENDING:
                ev._ok = True
                ev._value = value
                members.append(ev)
        if members:
            carrier = FanOut(self, members)
            self.schedule(carrier)
            carrier.key = (self._now, 0, self._seq)
        return len(members)

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the queue is empty."""
        return self._queue[0][0] if self._queue else None

    def step(self, _heappop=heapq.heappop) -> None:
        """Process the next scheduled event."""
        when, _prio, _seq, event = _heappop(self._queue)
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            # An unhandled failure escaped every waiter: crash the run so
            # bugs don't silently vanish.
            raise event._value

    # -- run loops ----------------------------------------------------------------

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be: None (run to exhaustion), an integer time, or an
        :class:`Event` (run until it triggers; returns its value).
        Running until a time/event that is never reached raises
        :class:`Deadlock`.
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[int] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is not None:
                stop_event.callbacks.append(self._stop_on_event)
        elif isinstance(until, int):
            if until < self._now:
                raise ValueError(f"until={until} is in the past (now={self._now})")
            stop_time = until
        else:
            raise TypeError(f"until must be None, int, or Event, not {type(until)!r}")

        try:
            queue = self._queue
            step = self.step
            if stop_time is None:
                while queue:
                    step()
            else:
                while queue:
                    if queue[0][0] > stop_time:
                        self._now = stop_time
                        return None
                    step()
        except StopEngine:
            assert stop_event is not None
            if not stop_event._ok:
                stop_event.defuse()
                raise stop_event._value from None
            return stop_event._value

        if stop_event is not None:
            if stop_event.triggered:
                if stop_event._ok:
                    return stop_event._value
                stop_event.defuse()
                raise stop_event._value
            raise Deadlock(
                f"no more events at t={self._now} but {stop_event!r} never triggered"
            )
        if stop_time is not None:
            self._now = stop_time
        return None

    @staticmethod
    def _stop_on_event(event: Event) -> None:
        raise StopEngine() from None

    def __repr__(self) -> str:
        return f"<Engine t={self._now} queued={len(self._queue)}>"
