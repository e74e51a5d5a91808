"""Network interface card model.

Each node owns one NIC.  The NIC models what the BCS runtime relies on in
the Quadrics Elan3:

- full-duplex link halves (``tx``/``rx``) with bandwidth serialization,
- *NIC events*: counters that can be signaled locally or remotely and
  waited on (the Elan event mechanism behind ``Test-Event``),
- a thread processor that runs NIC threads (BS/BR/DH/CH/RH); their
  per-operation compute costs serialize on it, FIFO.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Generator

from ..sim import Engine, Event, Link, Timeout


class NicEvent:
    """A counting event word in NIC memory (Elan event).

    ``signal()`` increments the counter and wakes one waiter per count;
    ``wait()`` (generator) blocks until a count is available and consumes
    it; ``poll()`` consumes one count if available without blocking.
    """

    __slots__ = ("env", "name", "_count", "_waiters")

    def __init__(self, env: Engine, name: str = "nic-event"):
        self.env = env
        self.name = name
        self._count = 0
        self._waiters: list[Event] = []

    @property
    def count(self) -> int:
        """Number of pending (unconsumed) signals."""
        return self._count

    def signal(self, n: int = 1) -> None:
        """Add ``n`` signals, waking up to ``n`` waiters."""
        if n < 1:
            raise ValueError("signal count must be >= 1")
        self._count += n
        while self._count > 0 and self._waiters:
            waiter = self._waiters.pop(0)
            if waiter.triggered:
                continue
            self._count -= 1
            waiter.succeed(None)

    def poll(self) -> bool:
        """Consume one signal if present; never blocks."""
        if self._count > 0 and not self._waiters:
            self._count -= 1
            return True
        return False

    def peek(self) -> bool:
        """True if at least one signal is pending (non-consuming)."""
        return self._count > 0

    def wait(self) -> Generator:
        """Block until signaled, consuming one signal."""
        if self._count > 0 and not self._waiters:
            self._count -= 1
            if False:  # pragma: no cover - keep generator shape
                yield
            return
        ev = Event(self.env, name=f"wait:{self.name}")
        self._waiters.append(ev)
        yield ev

    def __repr__(self) -> str:
        return f"<NicEvent {self.name!r} count={self._count} waiters={len(self._waiters)}>"


class Nic:
    """One node's network interface."""

    def __init__(self, env: Engine, node_id: int, thread_op_cost: int = 0):
        self.env = env
        self.node_id = node_id
        #: Transmit half of the link (bandwidth serialization).
        self.tx = Link(env, name=f"nic{node_id}.tx")
        #: Receive half of the link.
        self.rx = Link(env, name=f"nic{node_id}.rx")
        #: The Elan thread processor's clock: the instant its queued NIC
        #: thread work ends (see :meth:`reserve`).
        self.busy_until = 0
        #: Default per-operation cost of NIC thread work, ns.
        self.thread_op_cost = thread_op_cost
        #: Telemetry hub (set by ``BcsRuntime.attach_observability``);
        #: when present, :meth:`reserve` logs thread occupancy spans.
        self.obs = None
        self._events: Dict[str, NicEvent] = {}

    def event(self, name: str) -> NicEvent:
        """Get (creating on first use) the NIC event word ``name``."""
        ev = self._events.get(name)
        if ev is None:
            ev = NicEvent(self.env, name=f"nic{self.node_id}:{name}")
            self._events[name] = ev
        return ev

    def drop_events(self, prefixes: tuple) -> None:
        """Forget the event words whose names start with one of
        ``prefixes`` (a later :meth:`event` creates a fresh word)."""
        for name in [name for name in self._events if name.startswith(prefixes)]:
            del self._events[name]

    def reserve(self, duration: int = -1, n: int = 1, then: int = 0) -> Timeout:
        """Book ``n`` back-to-back NIC thread operations of ``duration`` ns.

        Defaults to one operation of :attr:`thread_op_cost`.  The thread
        processor serves work FIFO: the booking starts at ``max(now,
        busy_until)`` and ends ``n * duration`` ns later.  Because every
        hold has a fixed length and is never interrupted, this clock
        grants exactly what a FIFO resource would.  The returned timeout
        fires ``then`` ns after the hold ends, so work that follows the
        hold without needing the processor (a loopback copy) rides in the
        same heap entry.  Zero-duration work does not touch the clock.
        With a telemetry hub, each operation logs the interval it actually
        occupied the processor, never the time it queued, as a ``(t1,
        "nic", node, t0)`` entry when the booking completes.
        """
        if duration < 0:
            duration = self.thread_op_cost
        total = duration * n
        env = self.env
        now = env.now
        if not total:
            return Timeout(env, then)
        start = self.busy_until if self.busy_until > now else now
        self.busy_until = start + total
        done = Timeout(env, start + total + then - now)
        if self.obs is not None:
            done.callbacks.append(partial(self._report, start, duration, n))
        return done

    def _report(self, start: int, duration: int, n: int, _done: Timeout) -> None:
        self.obs.events.extend(self.spans(start, duration, n))

    def spans(self, start: int, duration: int, n: int = 1) -> list:
        """The ``nic`` log entries of ``n`` back-to-back operations of
        ``duration`` ns booked from ``start``."""
        node = self.node_id
        return [
            (t + duration, "nic", node, t)
            for t in range(start, start + n * duration, duration)
        ]

    def compute(self, duration: int = -1, n: int = 1) -> Generator:
        """Generator form of :meth:`reserve`; zero-duration work is free."""
        if n * (self.thread_op_cost if duration < 0 else duration):
            yield self.reserve(duration, n)

    def __repr__(self) -> str:
        return f"<Nic node={self.node_id}>"
