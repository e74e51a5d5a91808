"""Synchronization and resource primitives built on events.

- :class:`Resource` — counted resource with FIFO queueing (links, CPUs,
  DMA engines).
- :class:`Store` — unbounded FIFO of items with blocking ``get`` (mailboxes,
  descriptor queues).
- :class:`Signal` — re-armable broadcast: every waiter registered before a
  ``pulse`` is woken by it (microstrobes, slice boundaries).
- :class:`Gate` — level-triggered condition: ``wait`` completes immediately
  while open.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from .engine import Engine
from .events import Event


class Request(Event):
    """A pending claim on a :class:`Resource`; triggers when granted."""

    __slots__ = ("resource", "amount")

    def __init__(self, resource: "Resource", amount: int):
        super().__init__(resource.env, name=f"req:{resource.name}")
        self.resource = resource
        self.amount = amount

    def cancel(self) -> None:
        """Withdraw the claim (called when the waiter is interrupted).

        If the request was already granted the units go straight back;
        otherwise it is removed from the wait queue.
        """
        if self.triggered:
            self.resource.release(self.amount)
        else:
            try:
                self.resource._waiting.remove(self)
            except ValueError:  # pragma: no cover - already granted/raced
                pass
            self.resource._grant()


class Resource:
    """Counted resource with FIFO grant order.

    ``capacity`` units exist; a request for ``amount`` units blocks until
    that many are free *and* all earlier requests have been granted (strict
    FIFO: a large request at the head blocks smaller later ones, which
    keeps grant order deterministic and starvation-free).
    """

    __slots__ = ("env", "capacity", "name", "_in_use", "_waiting")

    def __init__(self, env: Engine, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Units currently granted."""
        return self._in_use

    @property
    def available(self) -> int:
        """Units currently free."""
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting."""
        return len(self._waiting)

    def request(self, amount: int = 1) -> Request:
        """Claim ``amount`` units; returns an event granted FIFO."""
        if amount < 1 or amount > self.capacity:
            raise ValueError(
                f"request of {amount} units on {self.name!r} "
                f"with capacity {self.capacity}"
            )
        req = Request(self, amount)
        self._waiting.append(req)
        self._grant()
        return req

    def try_acquire(self, amount: int = 1) -> bool:
        """Claim ``amount`` units synchronously, or do nothing.

        Succeeds only when no request is waiting *and* the units are
        free — exactly the situation where a ``request`` would be granted
        at the same instant — so the fast path cannot overtake a queued
        claimant.  Returns True on success; the caller must ``release``.
        """
        if amount < 1 or amount > self.capacity:
            raise ValueError(
                f"request of {amount} units on {self.name!r} "
                f"with capacity {self.capacity}"
            )
        if self._waiting or amount > self.capacity - self._in_use:
            return False
        self._in_use += amount
        return True

    def release(self, amount: int = 1) -> None:
        """Return ``amount`` units."""
        if amount > self._in_use:
            raise RuntimeError(
                f"release of {amount} exceeds in-use {self._in_use} on {self.name!r}"
            )
        self._in_use -= amount
        self._grant()

    def _grant(self) -> None:
        while self._waiting:
            head = self._waiting[0]
            if head.triggered:
                # Cancelled/interrupted externally; just drop it.
                self._waiting.popleft()
                continue
            if head.amount > self.capacity - self._in_use:
                break
            self._waiting.popleft()
            self._in_use += head.amount
            head.succeed(None)

    def acquire(self, amount: int = 1) -> Generator:
        """Sub-generator form: ``yield from res.acquire()``."""
        yield self.request(amount)

    def held(self, duration: int, amount: int = 1) -> Generator:
        """Acquire, hold for ``duration`` ns, release (common pattern).

        An uncontended claim is taken synchronously (:meth:`try_acquire`)
        instead of through a grant event; a contended one queues FIFO.
        """
        if not self.try_acquire(amount):
            yield self.request(amount)
        try:
            yield self.env.timeout(duration)
        finally:
            self.release(amount)

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name!r} {self._in_use}/{self.capacity} "
            f"queue={len(self._waiting)}>"
        )


class StoreGet(Event):
    """A pending ``get`` on a :class:`Store`; cancellable on interrupt."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        super().__init__(store.env, name=f"get:{store.name}")
        self.store = store

    def cancel(self) -> None:
        """Withdraw from the getter queue (no item is consumed)."""
        try:
            self.store._getters.remove(self)
        except ValueError:  # pragma: no cover - already served
            pass


class Store:
    """Unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that triggers with the
    next item; concurrent getters are served FIFO.
    """

    __slots__ = ("env", "name", "_items", "_getters")

    def __init__(self, env: Engine, name: str = "store"):
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[Any]:
        """Snapshot of queued items (oldest first)."""
        return list(self._items)

    def put(self, item: Any) -> None:
        """Append an item, waking the oldest pending getter if any."""
        self._items.append(item)
        self._dispatch()

    def get(self) -> Event:
        """Event that triggers with the next available item."""
        ev = StoreGet(self)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def try_get(self) -> Optional[Any]:
        """Pop an item immediately, or None if empty or getters are queued."""
        if self._items and not self._getters:
            return self._items.popleft()
        return None

    def drain(self) -> List[Any]:
        """Remove and return all queued items (oldest first)."""
        out = list(self._items)
        self._items.clear()
        return out

    def _dispatch(self) -> None:
        while self._items and self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(self._items.popleft())

    def __repr__(self) -> str:
        return f"<Store {self.name!r} items={len(self._items)} getters={len(self._getters)}>"


class Signal:
    """Re-armable broadcast event.

    ``wait()`` returns a fresh event; the next ``pulse(value)`` triggers
    every event handed out since the previous pulse.  Used for strobes and
    slice boundaries, where many parties wait for the same edge.
    """

    __slots__ = ("env", "name", "_waiters", "_pulses")

    def __init__(self, env: Engine, name: str = "signal"):
        self.env = env
        self.name = name
        self._waiters: List[Event] = []
        self._pulses = 0

    @property
    def pulse_count(self) -> int:
        """Number of pulses issued so far."""
        return self._pulses

    def wait(self) -> Event:
        """Event triggered by the next pulse."""
        ev = Event(self.env, name=f"wait:{self.name}")
        self._waiters.append(ev)
        return ev

    def take_waiters(self) -> List[Event]:
        """Count a pulse and hand back its waiters for the caller to wake.

        Waking the returned events with :meth:`Engine.trigger_all` is
        :meth:`pulse`; a caller pulsing many signals at one instant
        concatenates their waiters into a single ``trigger_all``.
        """
        waiters, self._waiters = self._waiters, []
        self._pulses += 1
        return waiters

    def pulse(self, value: Any = None) -> int:
        """Wake all current waiters with ``value``; returns how many."""
        return self.env.trigger_all(self.take_waiters(), value)

    def __repr__(self) -> str:
        return f"<Signal {self.name!r} waiters={len(self._waiters)} pulses={self._pulses}>"


class Gate:
    """Level-triggered condition.

    While *open*, ``wait()`` completes immediately; while *closed*, waiters
    queue until the next ``open()``.
    """

    __slots__ = ("env", "name", "_open", "_waiters")

    def __init__(self, env: Engine, is_open: bool = False, name: str = "gate"):
        self.env = env
        self.name = name
        self._open = is_open
        self._waiters: List[Event] = []

    @property
    def is_open(self) -> bool:
        """Current gate state."""
        return self._open

    def open(self) -> None:
        """Open the gate, releasing all waiters."""
        self._open = True
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed(None)

    def close(self) -> None:
        """Close the gate; subsequent waiters block."""
        self._open = False

    def wait(self) -> Event:
        """Event that triggers when the gate is (or becomes) open."""
        ev = Event(self.env, name=f"wait:{self.name}")
        if self._open:
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev

    def __repr__(self) -> str:
        state = "open" if self._open else "closed"
        return f"<Gate {self.name!r} {state} waiters={len(self._waiters)}>"
