"""Parametrized interconnect models.

One :class:`NetworkModel` instance per network family the paper discusses
(Table 1): Gigabit Ethernet, Myrinet, Infiniband, QsNet, BlueGene/L.  The
models expose exactly the quantities the BCS core primitives need:

- point-to-point link bandwidth and latency (per hop),
- hardware-multicast per-destination bandwidth (``Xfer-And-Signal`` row of
  Table 1: aggregate multicast bandwidth grows as ``bw_mcast * n``),
- ``Compare-And-Write`` latency as a function of node count (flat where the
  hardware has native network conditionals, ``c * log2(n)`` where a software
  emulation tree is required).

All constants are calibration inputs (see DESIGN.md §7), taken from the
paper's Table 1 and the Quadrics literature it cites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..units import KiB, MiB, us

#: 1 MB/s in bytes/second (networking MB = 1e6 bytes, as in the paper's table).
MB = 1_000_000


@dataclass(frozen=True)
class NetworkModel:
    """Timing parameters of one interconnect family."""

    name: str
    #: Point-to-point link bandwidth, bytes/s (what a single DMA stream gets).
    link_bandwidth: float
    #: Base wire/NIC latency for a minimal packet, ns.
    base_latency: int
    #: Additional latency per switch hop, ns.
    per_hop_latency: int
    #: Per-destination bandwidth of Xfer-And-Signal multicast, bytes/s.
    #: Aggregate delivered bandwidth is ``mcast_bandwidth * n`` (Table 1).
    mcast_bandwidth: float
    #: True when the network has a native ordered hardware multicast.
    hw_multicast: bool
    #: Compare-And-Write latency: flat component, ns.
    cw_base_latency: int
    #: Compare-And-Write latency: per-log2(n) component, ns (0 if flat).
    cw_log_latency: int
    #: Per-packet/DMA startup overhead charged once per transfer, ns.
    dma_startup: int = us(1)
    #: Protocol header bytes added to every transfer.
    header_bytes: int = 64
    #: Switch radix for the fat-tree topology (QsNet Elite is 4-ary).
    radix: int = 4
    #: Topology family the fabric routes over (``repro.network.topology``
    #: registry name): ``"fattree"`` or ``"torus3d"``.
    topology: str = "fattree"

    def latency(self, hops: int) -> int:
        """One-way latency (ns) across ``hops`` switch stages."""
        return self.base_latency + self.per_hop_latency * max(hops, 0)

    def cw_latency(self, n_nodes: int) -> int:
        """Compare-And-Write completion latency (ns) over ``n_nodes``.

        Matches the Table 1 shapes: ``46 log n`` µs for GigE,
        ``20 log n`` µs for Myrinet/Infiniband, < 10 µs flat for QsNet,
        < 2 µs for BlueGene/L.
        """
        if n_nodes <= 1:
            return self.cw_base_latency
        return self.cw_base_latency + int(
            self.cw_log_latency * math.log2(n_nodes)
        )

    def multicast_latency(self, n_nodes: int) -> int:
        """Latency (ns) for a multicast to reach all of ``n_nodes``.

        Hardware multicast pays tree depth in per-hop latencies; emulated
        multicast pays a software store-and-forward stage per tree level.
        This is the single tree-shaped cost the aggregated strobe model
        charges per microphase, whatever the destination count.
        """
        if n_nodes <= 1:
            return self.base_latency
        depth = max(1, math.ceil(math.log(n_nodes, self.radix)))
        if self.hw_multicast:
            return self.base_latency + 2 * depth * self.per_hop_latency
        # Software binomial tree: one full message latency per level.
        levels = math.ceil(math.log2(n_nodes))
        return levels * (self.base_latency + 2 * self.per_hop_latency)


def qsnet() -> NetworkModel:
    """Quadrics QsNet / Elan3 (the paper's testbed network).

    Elan3 over 66 MHz/64-bit PCI: ~300 MB/s sustained MPI bandwidth,
    ~5 µs MPI latency, hardware multicast > 150 MB/s per node, network
    conditionals < 10 µs.
    """
    return NetworkModel(
        name="qsnet",
        link_bandwidth=305 * MB,
        base_latency=us(2.2),
        per_hop_latency=us(0.35),
        mcast_bandwidth=160 * MB,
        hw_multicast=True,
        cw_base_latency=us(4.0),
        cw_log_latency=us(0.7),
        dma_startup=us(1.0),
        header_bytes=64,
        radix=4,
    )


def gigabit_ethernet() -> NetworkModel:
    """Gigabit Ethernet (EMP-style OS-bypass): Table 1 row 1."""
    return NetworkModel(
        name="gige",
        link_bandwidth=110 * MB,
        base_latency=us(20),
        per_hop_latency=us(5),
        mcast_bandwidth=25 * MB,
        hw_multicast=False,
        cw_base_latency=0,
        cw_log_latency=us(46),
        dma_startup=us(6),
        header_bytes=96,
        radix=8,
    )


def myrinet() -> NetworkModel:
    """Myrinet/GM with NIC-assisted multicast: Table 1 row 2."""
    return NetworkModel(
        name="myrinet",
        link_bandwidth=245 * MB,
        base_latency=us(7),
        per_hop_latency=us(0.5),
        mcast_bandwidth=15 * MB,
        hw_multicast=False,
        cw_base_latency=0,
        cw_log_latency=us(20),
        dma_startup=us(2),
        header_bytes=64,
        radix=8,
    )


def infiniband() -> NetworkModel:
    """Infiniband 4x (2003-era): Table 1 row 3."""
    return NetworkModel(
        name="infiniband",
        link_bandwidth=820 * MB,
        base_latency=us(6),
        per_hop_latency=us(0.3),
        mcast_bandwidth=120 * MB,
        hw_multicast=True,
        cw_base_latency=0,
        cw_log_latency=us(20),
        dma_startup=us(1.5),
        header_bytes=64,
        radix=8,
    )


def bluegene_l() -> NetworkModel:
    """BlueGene/L tree network: Table 1 row 4."""
    return NetworkModel(
        name="bluegene_l",
        link_bandwidth=350 * MB,
        base_latency=us(1.3),
        per_hop_latency=us(0.1),
        mcast_bandwidth=700 * MB,
        hw_multicast=True,
        cw_base_latency=us(1.2),
        cw_log_latency=us(0.05),
        dma_startup=us(0.5),
        header_bytes=32,
        radix=4,
    )


def bluegene_l_torus() -> NetworkModel:
    """BlueGene/L with its 3D-torus data network routed explicitly.

    The plain ``bluegene_l`` model treats the machine as its tree
    network; this variant moves point-to-point traffic over the 3D torus
    (175 MB/s per link direction, wraparound Manhattan routing) while
    collectives — hardware multicast and Compare-And-Write — keep the
    dedicated tree/interrupt networks' characteristics, which is how the
    real machine splits its traffic.
    """
    return NetworkModel(
        name="bluegene_l_torus",
        link_bandwidth=175 * MB,
        base_latency=us(1.5),
        per_hop_latency=us(0.1),
        mcast_bandwidth=350 * MB,
        hw_multicast=True,
        cw_base_latency=us(1.2),
        cw_log_latency=us(0.05),
        dma_startup=us(0.5),
        header_bytes=32,
        radix=4,
        topology="torus3d",
    )


#: Registry of all Table 1 network models by name.
MODELS = {
    "qsnet": qsnet,
    "gige": gigabit_ethernet,
    "myrinet": myrinet,
    "infiniband": infiniband,
    "bluegene_l": bluegene_l,
    "bluegene_l_torus": bluegene_l_torus,
}


def by_name(name: str) -> NetworkModel:
    """Look up a network model by its registry name."""
    try:
        return MODELS[name]()
    except KeyError:
        raise KeyError(
            f"unknown network model {name!r}; choose from {sorted(MODELS)}"
        ) from None
