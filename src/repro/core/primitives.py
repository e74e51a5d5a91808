"""The three BCS core primitives (paper §2).

- :meth:`BcsCore.xfer_and_signal` — non-blocking atomic put of a block of
  data to the global memory of a set of nodes, optionally signaling a
  local and/or remote NIC event on completion.  The only way to observe
  completion is Test-Event.
- :meth:`BcsCore.test_event` — poll (or block on) a local NIC event.
- :meth:`BcsCore.compare_and_write` — blocking global conditional: compare
  a global variable on a set of nodes against a local value; if the
  condition holds on *all* nodes, optionally write a value to a (possibly
  different) global variable on those nodes.

Atomicity and sequential consistency (paper §2, points 2): the engine is
a single deterministic event loop, and each primitive commits its global
writes at a single instant, so all nodes observe the same final value of
any global variable — the Lamport condition the paper requires.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Generator, Hashable, Iterable, Optional

from ..network import Cluster
from ..sim import Timeout
from .global_memory import GlobalAddressSpace

#: Comparison operators Compare-And-Write supports (paper §2).
COMPARE_OPS: dict[str, Callable[[Any, Any], bool]] = {
    ">=": operator.ge,
    "<": operator.lt,
    "==": operator.eq,
    "!=": operator.ne,
}


def _compare_op(op: str) -> Callable[[Any, Any], bool]:
    try:
        return COMPARE_OPS[op]
    except KeyError:
        raise ValueError(
            f"unsupported comparison {op!r}; choose from {sorted(COMPARE_OPS)}"
        ) from None


class BcsCore:
    """The BCS core primitive layer bound to one cluster."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.env = cluster.env
        self.fabric = cluster.fabric
        self.gas = GlobalAddressSpace(len(cluster.nodes))

    # -- Xfer-And-Signal ---------------------------------------------------------

    def xfer_and_signal(
        self,
        src: int,
        dests: int | Iterable[int],
        size: int,
        addr: Optional[Hashable] = None,
        value: Any = None,
        local_event: Optional[str] = None,
        remote_event: Optional[str] = None,
        payload_writer: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Start a non-blocking global put.

        ``size`` drives timing; ``addr``/``value`` is the global-memory
        effect (optional: pure-signal transfers carry no variable).  When
        ``payload_writer`` is given it is invoked once per destination at
        commit time with the destination node id — this is how higher
        layers deposit real payloads (e.g. message chunks) without the
        core knowing their structure.

        Completion is observable *only* through ``local_event`` (signaled
        at the source NIC) / ``remote_event`` (signaled at each
        destination NIC) — the paper's semantics, point 3.  As on the
        Elan, no thread runs the put: the transfer starts from a
        zero-delay entry of its own and commits from its completion
        event's callback.
        """
        dest_list = sorted({dests} if isinstance(dests, int) else set(dests))
        if not dest_list:
            raise ValueError("Xfer-And-Signal needs at least one destination")
        if size < 0:
            raise ValueError("negative size")
        fabric = self.fabric

        def start(_start: Timeout) -> None:
            if len(dest_list) == 1:
                done = fabric.transfer(src, dest_list[0], size, label="xfer")
            else:
                done = fabric.multicast(src, dest_list, size)
            done.callbacks.append(commit)

        def commit(_done) -> None:
            # Atomic across the destination set (all or nothing).
            if addr is not None:
                self.gas.write_all(dest_list, addr, value)
            if payload_writer is not None:
                for d in dest_list:
                    payload_writer(d)
            if remote_event is not None:
                for d in dest_list:
                    self.cluster.node(d).nic.event(remote_event).signal()
            if local_event is not None:
                self.cluster.node(src).nic.event(local_event).signal()

        Timeout(self.env, 0).callbacks.append(start)

    # -- Test-Event -----------------------------------------------------------------

    def test_event_poll(self, node: int, event_name: str) -> bool:
        """Non-blocking Test-Event: consume one signal if present."""
        return self.cluster.node(node).nic.event(event_name).poll()

    def test_event(self, node: int, event_name: str) -> Generator:
        """Blocking Test-Event: wait until the local event is signaled."""
        yield from self.cluster.node(node).nic.event(event_name).wait()

    # -- Compare-And-Write -------------------------------------------------------------

    def compare_and_write(
        self,
        src: int,
        dests: Iterable[int],
        addr: Hashable,
        op: str,
        value: Any,
        write_addr: Optional[Hashable] = None,
        write_value: Any = None,
        default: Any = None,
    ) -> Generator:
        """Blocking global conditional; yields, then returns the verdict.

        Compares global variable ``addr`` on every node in ``dests``
        against the local ``value`` using ``op`` (one of ``>= < == !=``).
        Returns True iff the condition holds on *all* nodes; in that case
        and if ``write_addr`` is given, atomically writes ``write_value``
        there on all of ``dests``.
        """
        cmp = _compare_op(op)
        dest_list = sorted(set(dests))
        if not dest_list:
            raise ValueError("Compare-And-Write needs at least one destination")
        yield self.fabric.conditional(len(dest_list))
        gas = self.gas
        verdict = all(cmp(gas.read(d, addr, default), value) for d in dest_list)
        if verdict and write_addr is not None:
            gas.write_all(dest_list, write_addr, write_value)
        return verdict
