"""Network interface card model.

Each node owns one NIC.  The NIC models what the BCS runtime relies on in
the Quadrics Elan3:

- full-duplex link halves (``tx``/``rx``) with bandwidth serialization,
- *NIC events*: counters that can be signaled locally or remotely and
  waited on (the Elan event mechanism behind ``Test-Event``),
- a thread processor that runs NIC threads (BS/BR/DH/CH/RH); their
  per-operation compute costs serialize on it,
- named descriptor FIFOs in NIC memory, where host processes post
  communication descriptors without a system call (paper §4.5).
"""

from __future__ import annotations

from typing import Dict, Generator

from ..sim import Engine, Event, Resource, Store


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
        self.tx = Resource(env, capacity=1, name=f"nic{node_id}.tx")
        #: Receive half of the link.
        self.rx = Resource(env, capacity=1, name=f"nic{node_id}.rx")
        #: The Elan thread processor: NIC thread compute serializes here.
        self.thread_processor = Resource(
            env, capacity=1, name=f"nic{node_id}.tproc"
        )
        #: Default per-operation cost of NIC thread work, ns.
        self.thread_op_cost = thread_op_cost
        #: Telemetry hub (set by ``BcsRuntime.attach_observability``);
        #: when present, :meth:`compute` reports thread occupancy spans.
        self.obs = None
        self._events: Dict[str, NicEvent] = {}
        self._fifos: Dict[str, Store] = {}

    def event(self, name: str) -> NicEvent:
        """Get (creating on first use) the NIC event word ``name``."""
        ev = self._events.get(name)
        if ev is None:
            ev = NicEvent(self.env, name=f"nic{self.node_id}:{name}")
            self._events[name] = ev
        return ev

    def fifo(self, name: str) -> Store:
        """Get (creating on first use) the descriptor FIFO ``name``.

        These model the shared-memory FIFO queues the paper uses to post
        descriptors without a system call.
        """
        q = self._fifos.get(name)
        if q is None:
            q = Store(self.env, name=f"nic{self.node_id}:{name}")
            self._fifos[name] = q
        return q

    def compute(self, duration: int = -1) -> Generator:
        """Run ``duration`` ns of NIC thread work on the thread processor.

        Defaults to :attr:`thread_op_cost`.  Zero-duration work is free
        (no serialization round-trip), which keeps disabled cost models
        cheap.
        """
        if duration < 0:
            duration = self.thread_op_cost
        if duration == 0:
            return
        if self.obs is not None:
            t0 = self.env.now
            yield from self.thread_processor.held(duration)
            self.obs.nic_busy(self.node_id, t0, self.env.now, duration)
            return
        yield from self.thread_processor.held(duration)

    def compute_batch(self, duration: int, n: int) -> Generator:
        """Run ``n`` back-to-back thread operations of ``duration`` ns each.

        Virtual time is identical to ``n`` sequential :meth:`compute`
        calls — the thread processor is held for exactly
        ``n * duration`` ns — but the simulator pays for one hold instead
        of ``n`` event/heap round-trips.  This is the batched slice
        engine's NIC leg (``BcsConfig.batched_matching``).

        Once granted, a hold occupies the processor contiguously, so the
        per-operation telemetry windows are synthesized by slicing the
        actual busy interval — byte-identical to the sequential path
        whenever the processor was uncontended (the only case on the
        DEM/MSM paths, where each node's NIC threads run one at a time).
        """
        if duration < 0:
            duration = self.thread_op_cost
        total = duration * n
        if total == 0:
            return
        yield from self.thread_processor.held(total)
        if self.obs is not None:
            t1 = self.env.now
            t0 = t1 - total
            nic_busy = self.obs.nic_busy
            for k in range(n):
                nic_busy(
                    self.node_id, t0 + k * duration, t0 + (k + 1) * duration, duration
                )

    def __repr__(self) -> str:
        return f"<Nic node={self.node_id}>"
