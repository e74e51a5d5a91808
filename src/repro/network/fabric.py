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

from typing import Generator, Iterable, Sequence

from ..sim import Engine, Link
from ..units import bw_time
from .model import NetworkModel
from .nic import Nic
from .topology import build_topology


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
        #: Total payload bytes moved (excluding headers), for reporting.
        self.bytes_moved = 0
        self.transfers = 0

    @property
    def n_nodes(self) -> int:
        """Number of NICs attached to the fabric."""
        return len(self.nics)

    # -- point-to-point ---------------------------------------------------------

    def unicast(self, src: int, dst: int, size: int, label: str = "") -> Generator:
        """Move ``size`` payload bytes from node ``src`` to node ``dst``.

        Completes when the last byte has arrived at ``dst``.  Loopback
        (src == dst) costs only the DMA startup: Elan local DMA does not
        enter the network.
        """
        if size < 0:
            raise ValueError("negative transfer size")
        model = self.model
        self.transfers += 1
        self.bytes_moved += size

        if src == dst:
            yield self.env.timeout(model.dma_startup + bw_time(size, model.link_bandwidth))
            return

        wire = bw_time(size + model.header_bytes, model.link_bandwidth)
        hold = model.dma_startup + wire
        env = self.env
        # Both link halves are held for the DMA startup and the wire
        # time, then the last byte pays the switch latency.  The halves
        # release lazily (:class:`~repro.sim.Link`), so the transfer is
        # one timeout.  When either half is busy or has queued
        # claimants, the halves are acquired in the fixed order that
        # keeps the fabric deadlock-free, and held from the grant on.
        tx, rx = self.nics[src].tx, self.nics[dst].rx
        if not (tx.idle() and rx.idle()):
            yield tx.request()
            try:
                yield rx.request()
            except BaseException:
                # Interrupted while queued for rx: hand the tx half back.
                tx.release()
                raise
        done = env.timeout(hold + model.latency(self.tree.hops(src, dst)))
        Link.hold((tx, rx), env.now + hold)
        yield done
        if self.obs is not None:
            self.obs.unicast(env.now, src, dst, size, label)

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

    def multicast(self, src: int, dests: Iterable[int], size: int) -> Generator:
        """Deliver ``size`` bytes from ``src`` to every node in ``dests``.

        With hardware multicast the switch tree replicates the packet, so
        the source pays one serialization and every destination receives
        at :attr:`NetworkModel.mcast_bandwidth`.  Without it, a software
        binomial tree is emulated via the same per-destination bandwidth
        plus log2(n) store-and-forward latencies (captured in
        :meth:`NetworkModel.multicast_latency`).

        Completes when the last destination has received the payload.
        """
        dest_list = sorted(set(dests))
        if not dest_list:
            return
        model = self.model
        self.transfers += 1
        self.bytes_moved += size * len(dest_list)

        hold = model.dma_startup + bw_time(size + model.header_bytes, model.mcast_bandwidth)
        env = self.env
        # As in :meth:`unicast`: the tx half and every receiver's rx half
        # are held for the startup and wire time and release lazily.
        # Any busy half falls back to the ordered sequential acquisition
        # (tx first, rx in ascending node id).
        tx = self.nics[src].tx
        rxs = [self.nics[d].rx for d in dest_list if d != src]
        if not (tx.idle() and all(rx.idle() for rx in rxs)):
            yield tx.request()
            held = []
            try:
                for rx in rxs:
                    yield rx.request()
                    held.append(rx)
            except BaseException:
                tx.release()
                for rx in held:
                    rx.release()
                raise
        done = env.timeout(hold + model.multicast_latency(len(dest_list)))
        Link.hold((tx, *rxs), env.now + hold)
        yield done
        if self.obs is not None:
            self.obs.multicast(env.now, src, dest_list, size)

    # -- network conditional ----------------------------------------------------------

    def conditional(self, src: int, n_nodes: int | None = None) -> Generator:
        """Timing of one network-conditional round issued from ``src``.

        The caller evaluates the predicate against global state once this
        completes; the fabric only charges the Table 1 latency.  The
        conditional uses dedicated switch logic (QsNet) or a tiny
        software reduction (emulated networks); either way it does not
        contend with bulk data on the links, so no link resources are
        held.
        """
        n = self.n_nodes if n_nodes is None else n_nodes
        yield self.env.timeout(self.model.cw_latency(n))

    def __repr__(self) -> str:
        return f"<Fabric {self.model.name} n={self.n_nodes} transfers={self.transfers}>"
