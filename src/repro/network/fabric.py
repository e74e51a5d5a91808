"""The interconnect fabric: timed delivery of unicasts and multicasts.

The fabric knows nothing about MPI or BCS; it moves opaque payloads of a
given size between NICs with first-order contention: a transfer occupies
the sender's ``tx`` half and each receiver's ``rx`` half for the
serialization time, then pays wire latency.  Link halves are acquired in a
fixed global order (tx before rx, rx in ascending node id), which makes
the acquisition graph acyclic and the fabric deadlock-free by
construction.

Why endpoint-only contention is the right fidelity for QsNet: the
quaternary fat tree is a *full-bisection* network — every subtree has as
many up-links as leaves, so permutation traffic never contends inside
the switch stages; congestion materializes at the endpoints (many-to-one
fan-in saturating an rx link), which this model captures exactly.
Internal hot-spotting would only appear under adversarial adaptive-
routing collisions that QsNet's dispersive routing is built to avoid.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..sim import Engine, Event, Link, Timeout
from ..units import bw_time
from .model import NetworkModel
from .nic import Nic
from .topology import build_topology


class _ClaimedTransfer(Event):
    """A transfer that found a link half busy: it claims its link halves
    in the fabric's fixed order (the sender's tx half, then each
    receiver's rx half in ascending node id) through their grant
    entries, and at the last grant schedules itself at the last byte's
    arrival.

    Each grant entry calls back here instead of resuming a process, so
    the transfer costs the entries the sequential acquisition did.
    :meth:`cancel` (called by ``Process.interrupt`` on a waiter) hands
    back every half claimed or queued for.
    """

    __slots__ = ("halves", "held", "hold", "rest", "claim")

    def __init__(self, env: Engine, halves: tuple, hold: int, rest: int):
        super().__init__(env, name="transfer")
        #: The link halves in claim order: tx, then the rx halves.
        self.halves = halves
        #: How many of :attr:`halves` are granted.
        self.held = 0
        self.hold = hold
        self.rest = rest
        #: The pending claim, or None once every half is held.
        self.claim = halves[0].request()
        self.claim.callbacks.append(self._granted)

    def _granted(self, _grant: Event) -> None:
        self.held += 1
        halves = self.halves
        if self.held < len(halves):
            self.claim = halves[self.held].request()
            self.claim.callbacks.append(self._granted)
            return
        self.claim = None
        env = self.env
        self._value = None
        env.schedule(self, self.hold + self.rest)
        Link.hold(halves, env.now + self.hold)

    def cancel(self) -> None:
        """Withdraw from the acquisition; a transfer already on the wire
        keeps its lazily released halves to the end of its hold."""
        claim = self.claim
        if claim is None:
            return
        self.claim = None
        claim.callbacks.clear()
        claim.cancel()
        for half in self.halves[: self.held]:
            half.release()


class _Routes(dict):
    """``(src, dst, size)`` -> ``(hold, rest, link halves)``.

    An uncontended remote transfer holds its ``(tx, rx)`` link halves
    for the DMA startup and the wire time (``hold``), then its last byte
    pays the switch latency of the route (``rest``).  A loopback copy
    takes ``hold`` and claims no link.
    """

    __slots__ = ("_fabric",)

    def __init__(self, fabric: "Fabric"):
        super().__init__()
        self._fabric = fabric

    def __missing__(self, route: tuple) -> tuple:
        src, dst, size = route
        fabric = self._fabric
        if src == dst:
            times = (fabric.copy_time(size), 0, ())
        else:
            model = fabric.model
            times = (
                model.dma_startup + bw_time(size + model.header_bytes, model.link_bandwidth),
                model.latency(fabric.tree.hops(src, dst)),
                (fabric.nics[src].tx, fabric.nics[dst].rx),
            )
        self[route] = times
        return times


class Fabric:
    """Timed transport between a fixed set of NICs."""

    def __init__(self, env: Engine, model: NetworkModel, nics: Sequence[Nic]):
        self.env = env
        self.model = model
        # The cluster's lazy NIC view over its node directory: only len()
        # and indexing are used, so flyweight NICs stay unmaterialized
        # until a transfer actually touches them.
        self.nics = nics
        self.tree = build_topology(
            model.topology, len(self.nics), radix=model.radix
        )
        #: Telemetry hub (set by ``Observability.bind``); it records
        #: every completed transfer in its protocol log.
        self.obs = None
        #: True once a client other than the BCS slice machine may start
        #: moving data at any instant (STORM's heartbeat and launcher,
        #: either PFS): the Strobe Sender then simulates every active
        #: slice instead of planning it.
        self.shared = False
        #: Route cache of :meth:`transfer` and the slice planner.
        self.routes = _Routes(self)

    @property
    def n_nodes(self) -> int:
        """Number of NICs attached to the fabric."""
        return len(self.nics)

    # -- point-to-point ---------------------------------------------------------

    def transfer(self, src: int, dst: int, size: int, label: str = "") -> Event:
        """Move ``size`` payload bytes from node ``src`` to node ``dst``.

        The returned event succeeds when the last byte has arrived at
        ``dst``.  Loopback (src == dst) costs only the DMA startup and the
        copy: Elan local DMA does not enter the network.  Both kinds are
        logged.
        """
        if size < 0:
            raise ValueError("negative transfer size")
        env = self.env
        hold, rest, halves = self.routes[src, dst, size]
        if not halves:
            done = Timeout(env, hold)
        else:
            # Both link halves are held for the DMA startup and the wire
            # time, then the last byte pays the switch latency.  The
            # halves release lazily (:class:`~repro.sim.Link`), so an
            # uncontended transfer is one timeout.  When either half is
            # busy or has queued claimants, the halves are acquired in
            # the fixed order that keeps the fabric deadlock-free, and
            # held from the grant on.
            tx, rx = halves
            if tx.idle() and rx.idle():
                done = Timeout(env, hold + rest)
                Link.hold(halves, env.now + hold)
            else:
                done = _ClaimedTransfer(env, halves, hold, rest)
        if self.obs is not None:
            self._log(done, src, dst, size, label)
        return done

    def copy_time(self, size: int) -> int:
        """Duration (ns) of a loopback transfer of ``size`` bytes."""
        return self.model.dma_startup + bw_time(size, self.model.link_bandwidth)

    def local_copy(self, nic: Nic, cost: int, size: int, label: str = "") -> Timeout:
        """``cost`` ns of NIC thread work on ``nic``, then a loopback
        transfer of ``size`` bytes on its node, as one timeout.

        Exact because a loopback claims no link: nothing can start
        between the hold's end and the copy that the copy would observe.
        Only the completion's heap sequence number moves, from the hold's
        end to the reservation.
        """
        done = nic.reserve(cost, then=self.copy_time(size))
        if self.obs is not None:
            self._log(done, nic.node_id, nic.node_id, size, label)
        return done

    def _log(self, done: Event, src: int, dst: int, size: int, label: str) -> None:
        """Record the transfer in the protocol log when ``done`` fires."""
        events, env = self.obs.events, self.env
        done.callbacks.append(
            lambda _done: events.append((env.now, "unicast", src, dst, size, label))
        )

    # -- multicast -----------------------------------------------------------------

    def strobe_latency(self, size: int, n_dests: int) -> int:
        """Duration (ns) of one control multicast to ``n_dests`` nodes.

        Microstrobes are minimal packets on QsNet's prioritized virtual
        channel, so they are charged latency + startup only, without
        per-receiver link occupancy: DMA startup + serialization at the
        multicast bandwidth + the tree-shaped
        :meth:`NetworkModel.multicast_latency`.  Pure arithmetic, so the
        Strobe Sender caches it per active-set size and schedules each
        microstrobe fan-out that far ahead.
        """
        return (
            self.model.dma_startup
            + bw_time(size + self.model.header_bytes, self.model.mcast_bandwidth)
            + self.model.multicast_latency(n_dests)
        )

    def multicast(self, src: int, dests: Iterable[int], size: int) -> Event:
        """Deliver ``size`` bytes from ``src`` to every node in ``dests``.

        With hardware multicast the switch tree replicates the packet, so
        the source pays one serialization and every destination receives
        at :attr:`NetworkModel.mcast_bandwidth`.  Without it, a software
        binomial tree is emulated via the same per-destination bandwidth
        plus log2(n) store-and-forward latencies (captured in
        :meth:`NetworkModel.multicast_latency`).

        The returned event succeeds when the last destination has
        received the payload; the multicast is logged then.  As in
        :meth:`transfer`, the tx half and every receiver's rx half are
        held for the startup and wire time and release lazily, and any
        busy half sends the claims down the ordered path.
        """
        dest_list = tuple(sorted(set(dests)))
        if not dest_list:
            raise ValueError("multicast needs at least one destination")
        model = self.model
        hold = model.dma_startup + bw_time(size + model.header_bytes, model.mcast_bandwidth)
        rest = model.multicast_latency(len(dest_list))
        env = self.env
        nics = self.nics
        halves = (nics[src].tx, *(nics[d].rx for d in dest_list if d != src))
        if all(half.idle() for half in halves):
            done = Timeout(env, hold + rest)
            Link.hold(halves, env.now + hold)
        else:
            done = _ClaimedTransfer(env, halves, hold, rest)
        if self.obs is not None:
            events = self.obs.events
            done.callbacks.append(
                lambda _done: events.append((env.now, "multicast", src, dest_list, size))
            )
        return done

    # -- network conditional ----------------------------------------------------------

    def conditional(self, n_nodes: int) -> Timeout:
        """Timing of one network-conditional round over ``n_nodes`` nodes.

        The caller evaluates the predicate against global state once the
        returned timeout fires; the fabric only charges the Table 1
        latency.  The conditional uses dedicated switch logic (QsNet) or
        a tiny software reduction (emulated networks); either way it does
        not contend with bulk data on the links, so no link resources are
        held.
        """
        return Timeout(self.env, self.model.cw_latency(n_nodes))

    def __repr__(self) -> str:
        return f"<Fabric {self.model.name} n={self.n_nodes}>"
