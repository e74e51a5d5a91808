"""Synchronization and resource primitives built on events.

- :class:`Resource` — counted resource with FIFO queueing (CPUs).
- :class:`Link` — one-unit resource whose fixed-length holds release
  lazily (fabric link halves).
- :class:`Signal` — re-armable broadcast: every waiter registered before a
  ``pulse`` is woken by it (microstrobes, slice boundaries).
- :class:`Gate` — level-triggered condition: ``wait`` completes immediately
  while open.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Generator, List, Optional

from .engine import Engine
from .events import PENDING, Event


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


class Link(Resource):
    """A one-unit :class:`Resource` whose fixed-length holds release lazily.

    A holder that knows how long it holds takes its :meth:`idle` links,
    or turns its granted units, into such a hold with :meth:`hold`,
    right after scheduling its own completion entry.  The link then
    stays busy until the hold's end with no release entry of its own.

    The release takes the place an eager release would have had: the
    heap entry that ended the hold, keyed at the hold's end instant and
    at the sequence number of the completion entry, which is scheduled
    at the same point of the run.  Nothing needs that entry unless a
    claimant queues: then a release carrier is pushed under exactly that
    key, and it grants the FIFO head of every link of the hold, in hold
    order, through a grant entry of its own, as the eager release did.
    A claimant that runs at the end instant but before that key still
    finds the link busy.  So every grant happens at the same instant and
    in the same order as with an eager release, and an uncontended hold
    costs no entry.
    """

    __slots__ = ("busy_until", "hold_seq", "group", "_release")

    def __init__(self, env: Engine, name: str = "link"):
        super().__init__(env, capacity=1, name=name)
        #: End instant of the current lazy hold.
        self.busy_until = 0
        #: Sequence number of the holder's completion entry: the release
        #: sits right after it among the entries of ``busy_until``.
        self.hold_seq = -1
        #: The links the same hold releases together, in release order.
        self.group: tuple = ()
        self._release: Optional[Event] = None

    def _released(self) -> bool:
        env = self.env
        end = self.busy_until
        return end < env.now or (end == env.now and env._step_seq > self.hold_seq)

    @property
    def in_use(self) -> int:
        """1 while a unit is granted or a lazy hold has not been released."""
        return 0 if not self._in_use and self._released() else 1

    @property
    def available(self) -> int:
        return 1 - self.in_use

    def idle(self) -> bool:
        """True when a claim made now would be granted at once."""
        if self._in_use or self._waiting:
            return False
        # _released(), inlined: this runs twice per transfer.
        env = self.env
        end = self.busy_until
        return end < env.now or (end == env.now and env._step_seq > self.hold_seq)

    def free_before(self, t: int) -> bool:
        """True when nothing holds or claims the link and its lazy hold
        ends strictly before instant ``t``: a claim made at ``t`` is
        granted at once whatever entry makes it."""
        return not self._in_use and not self._waiting and self.busy_until < t

    @staticmethod
    def hold(group: tuple, t: int) -> None:
        """Hold every link of ``group`` until instant ``t``; they release
        together, in ``group`` order.  Call right after scheduling the
        holder's completion entry.  Each link is either :meth:`idle` or
        granted to the holder, whose unit becomes the lazy hold."""
        seq = group[0].env._seq
        for link in group:
            link.busy_until = t
            link.hold_seq = seq
            link.group = group
            link._in_use = 0
        for link in group:
            if link._waiting:
                link._grant()

    def try_acquire(self, amount: int = 1) -> bool:
        return self._released() and Resource.try_acquire(self, amount)

    def _grant(self) -> None:
        waiting = self._waiting
        env = self.env
        while waiting and not self._in_use:
            head = waiting[0]
            if head._value is not PENDING:
                # Cancelled/interrupted externally; just drop it.
                waiting.popleft()
                continue
            end = self.busy_until
            if end > env.now or (end == env.now and env._step_seq <= self.hold_seq):
                # Not released yet (_released(), inlined).
                if self._release is None:
                    # The eager release's entry, pushed under its key.
                    release = Event(env, name="release")
                    release.callbacks.append(self._grant_group)
                    for link in self.group:
                        link._release = release
                    env._seq += 1
                    heapq.heappush(
                        env._queue, (self.busy_until, self.hold_seq + 0.5, release)
                    )
                return
            waiting.popleft()
            self._in_use = 1
            head.succeed(None)

    def _grant_group(self, _release: Event) -> None:
        for link in self.group:
            link._release = None
            link._grant()


class Signal:
    """Re-armable broadcast event.

    ``wait()`` returns a fresh event; the next ``pulse(value)`` triggers
    every event handed out since the previous pulse.  Used for strobes and
    slice boundaries, where many parties wait for the same edge.
    """

    __slots__ = ("env", "name", "_waiters")

    def __init__(self, env: Engine, name: str = "signal"):
        self.env = env
        self.name = name
        self._waiters: List[Event] = []

    def wait(self) -> Event:
        """Event triggered by the next pulse."""
        ev = Event(self.env, name=f"wait:{self.name}")
        self.enlist(ev)
        return ev

    def enlist(self, ev: Event) -> None:
        """Make the pending ``ev`` one of the next pulse's waiters.

        Lets a party hand out its wake event first and join the pulse
        later, without a heap entry of its own in between.
        """
        self._waiters.append(ev)

    @property
    def waiting(self) -> bool:
        """Whether the next pulse has anyone to wake."""
        return bool(self._waiters)

    def take_waiters(self) -> List[Event]:
        """Hand back a pulse's waiters for the caller to wake.

        Waking the returned events with :meth:`Engine.trigger_all` is
        :meth:`pulse`; a caller pulsing many signals at one instant
        concatenates their waiters into a single ``trigger_all``.
        """
        waiters, self._waiters = self._waiters, []
        return waiters

    def pulse(self, value: Any = None) -> int:
        """Wake all current waiters with ``value``; returns how many."""
        return self.env.trigger_all(self.take_waiters(), value)

    def __repr__(self) -> str:
        return f"<Signal {self.name!r} waiters={len(self._waiters)}>"


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
