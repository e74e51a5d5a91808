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

from ..sim import Engine, Trace
from ..units import bw_time
from .model import NetworkModel
from .nic import Nic
from .topology import build_topology


class Fabric:
    """Timed transport between a fixed set of NICs."""

    def __init__(
        self,
        env: Engine,
        model: NetworkModel,
        nics: Sequence[Nic],
        trace: Trace | None = None,
    ):
        self.env = env
        self.model = model
        # Kept as whatever sequence the cluster hands over: a plain list
        # (eager assembly) or a lazy NIC view over the node directory —
        # only len() and indexing are used, so flyweight NICs stay
        # unmaterialized until a transfer actually touches them.
        self.nics = nics
        self.tree = build_topology(
            model.topology, len(self.nics), radix=model.radix
        )
        self.trace = trace
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

        src_nic = self.nics[src]
        dst_nic = self.nics[dst]
        wire = bw_time(size + model.header_bytes, model.link_bandwidth)

        # Fast path: when both link halves are free with no queued
        # claimants, a request() pair would be granted right here at the
        # current instant — claim synchronously and skip two event hops.
        # Contended transfers fall back to the ordered acquisition that
        # keeps the fabric deadlock-free.
        tx, rx = src_nic.tx, dst_nic.rx
        claimed = tx.try_acquire()
        if claimed and not rx.try_acquire():
            tx.release()
            claimed = False
        if not claimed:
            yield tx.request()
            try:
                yield rx.request()
            except BaseException:
                # Interrupted while queued for rx: hand the tx half back.
                tx.release()
                raise
        start = self.env.now
        try:
            yield self.env.timeout(model.dma_startup + wire)
        finally:
            tx.release()
            rx.release()
        yield self.env.timeout(model.latency(self.tree.hops(src, dst)))
        if self.trace is not None:
            self.trace.emit(
                self.env.now,
                "fabric.unicast",
                src=src,
                dst=dst,
                size=size,
                start=start,
                label=label,
            )

    # -- multicast -----------------------------------------------------------------

    def control_multicast(
        self,
        src: int,
        dests: Iterable[int],
        size: int,
        n_dests: int | None = None,
    ) -> Generator:
        """Tiny control multicast (strobes): pays latency, skips link queues.

        Microstrobes are minimal packets on QsNet's prioritized virtual
        channel; modelling per-receiver link occupancy for them would add
        thousands of simulator events per slice for sub-microsecond
        serializations, so they are charged latency + startup only.

        Only the *number* of distinct destinations matters for timing.
        Callers that already know it (the Strobe Sender keeps a sorted,
        deduplicated active-node list) pass ``n_dests`` so the five
        microstrobes per slice don't rebuild a set each time.

        This generator is the aggregated strobe model's *oracle* path
        (``BcsConfig.aggregated_strobe=False``); the aggregated path
        charges the identical duration via :meth:`strobe_latency` with a
        reusable timeout, skipping the generator machinery per strobe.
        """
        n = len(set(dests)) if n_dests is None else n_dests
        if n == 0:
            return
        yield self.env.timeout(self.strobe_latency(size, n))

    def strobe_latency(self, size: int, n_dests: int) -> int:
        """Duration (ns) of one control multicast to ``n_dests`` nodes.

        Pure arithmetic — DMA startup + serialization at the multicast
        bandwidth + the tree-shaped :meth:`NetworkModel.multicast_latency`
        — so the Strobe Sender can cache it per active-set size and
        charge a single aggregated timeout per microphase.
        """
        return (
            self.model.dma_startup
            + bw_time(size + self.model.header_bytes, self.model.mcast_bandwidth)
            + self.model.multicast_latency(n_dests)
        )

    def multicast(
        self, src: int, dests: Iterable[int], size: int, label: str = ""
    ) -> Generator:
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

        src_nic = self.nics[src]
        remote = [d for d in dest_list if d != src]
        wire = bw_time(size + model.header_bytes, model.mcast_bandwidth)

        # Batched acquisition fast path: when the tx half and *every*
        # receiver's rx half are free with no queued claimants, the
        # sequential request chain below would grant them all at this
        # same instant — claim the whole set synchronously and skip
        # len(remote) + 1 event hops.  Any busy link falls back to the
        # ordered sequential acquisition (tx first, rx in ascending node
        # id), preserving the deadlock-freedom discipline.
        nics = self.nics
        held_rx = []
        if src_nic.tx.try_acquire():
            for d in remote:
                if nics[d].rx.try_acquire():
                    held_rx.append(d)
                else:
                    src_nic.tx.release()
                    for h in held_rx:
                        nics[h].rx.release()
                    held_rx = []
                    break
            else:
                try:
                    yield self.env.timeout(model.dma_startup + wire)
                finally:
                    src_nic.tx.release()
                    for d in held_rx:
                        nics[d].rx.release()
                yield self.env.timeout(model.multicast_latency(len(dest_list)))
                if self.trace is not None:
                    self.trace.emit(
                        self.env.now,
                        "fabric.multicast",
                        src=src,
                        dests=tuple(dest_list),
                        size=size,
                        label=label,
                    )
                return

        yield src_nic.tx.request()
        held_rx = []
        try:
            for d in remote:
                yield nics[d].rx.request()
                held_rx.append(d)
            yield self.env.timeout(model.dma_startup + wire)
        finally:
            src_nic.tx.release()
            for d in held_rx:
                nics[d].rx.release()
        yield self.env.timeout(model.multicast_latency(len(dest_list)))
        if self.trace is not None:
            self.trace.emit(
                self.env.now,
                "fabric.multicast",
                src=src,
                dests=tuple(dest_list),
                size=size,
                label=label,
            )

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
