"""Interconnect topologies: QsNet-style fat tree and BlueGene/L 3D torus.

QsNet builds quaternary fat trees: each Elite switch has 8 links, 4 down
and 4 up.  Nodes are leaves; the distance between two nodes is twice the
number of levels to their lowest common ancestor.  BlueGene/L moves bulk
data over a 3D torus where the distance is the wraparound Manhattan
metric.  We only need hop counts (for latency) and stage counts (for
multicast depth), so both topologies are computed arithmetically rather
than materialized as graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FatTree:
    """A ``radix``-ary fat tree over ``n_nodes`` leaves."""

    n_nodes: int
    radix: int = 4

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if self.radix < 2:
            raise ValueError("radix must be >= 2")
        # Route table built lazily: hop counts are pure functions of the
        # (unordered) node pair, and the fabric asks for the same pairs on
        # every transfer.  The cache is undeclared state on a frozen
        # dataclass, so it stays out of __eq__/__repr__.
        object.__setattr__(self, "_hop_cache", {})

    @property
    def levels(self) -> int:
        """Number of switch levels needed to connect all leaves."""
        if self.n_nodes == 1:
            return 1
        return max(1, math.ceil(math.log(self.n_nodes, self.radix)))

    def _ancestor_level(self, a: int, b: int) -> int:
        """Level (1-based) of the lowest common ancestor switch of a, b."""
        self._check(a)
        self._check(b)
        level = 1
        span = self.radix
        while a // span != b // span:
            level += 1
            span *= self.radix
        return level

    def hops(self, a: int, b: int) -> int:
        """Switch hops on the route from node ``a`` to node ``b``.

        Up to the lowest common ancestor and back down: ``2 * level``.
        Same node: 0 (loopback never enters the network).
        """
        if a == b:
            self._check(a)
            return 0
        key = (a, b) if a < b else (b, a)
        cached = self._hop_cache.get(key)
        if cached is None:
            cached = self._hop_cache[key] = 2 * self._ancestor_level(a, b)
        return cached

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} outside [0, {self.n_nodes})")

    def __repr__(self) -> str:
        return f"<FatTree n={self.n_nodes} radix={self.radix} levels={self.levels}>"


def _near_cubic_dims(n: int) -> tuple:
    """Smallest near-cubic ``(dx, dy, dz)`` with ``dx*dy*dz >= n``.

    Mirrors how BlueGene/L partitions are carved: as close to a cube as
    the node count allows (1024 nodes plus a management node fits in
    11 x 10 x 10).  Axes are sorted descending so the mapping is stable.
    """
    if n <= 1:
        return (1, 1, 1)
    dx = max(1, math.ceil(n ** (1.0 / 3.0)))
    # ceil can land one too high on exact cubes (floating error).
    while (dx - 1) ** 3 >= n:
        dx -= 1
    dy = max(1, math.ceil(math.sqrt(n / dx)))
    while dy > 1 and dx * (dy - 1) * (dy - 1) >= n:
        dy -= 1
    dz = max(1, math.ceil(n / (dx * dy)))
    return tuple(sorted((dx, dy, dz), reverse=True))


@dataclass(frozen=True)
class Torus3D:
    """A 3D torus (BlueGene/L style) over ``n_nodes`` row-major slots.

    ``dims`` defaults to the smallest near-cubic box covering all nodes;
    slots past ``n_nodes`` are simply unpopulated.  Distance is the
    wraparound Manhattan metric.  Routing state is precomputed once —
    node coordinates plus a per-axis circular-distance table — so
    ``hops`` is three table lookups with no per-pair cache to grow: the
    whole route table for a 1024-node machine is ~3k small integers.
    """

    n_nodes: int
    dims: tuple = ()

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        dims = self.dims or _near_cubic_dims(self.n_nodes)
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError(f"dims must be three positive extents: {dims!r}")
        if dims[0] * dims[1] * dims[2] < self.n_nodes:
            raise ValueError(
                f"dims {dims} hold {dims[0] * dims[1] * dims[2]} slots, "
                f"need {self.n_nodes}"
            )
        object.__setattr__(self, "dims", dims)
        dx, dy, dz = dims
        # Coordinates as three flat int32 arrays (SoA) instead of one
        # tuple per node: a 64k-node torus costs ~0.75 MiB of untracked
        # array storage rather than 64k GC-traced tuples.
        nodes = np.arange(self.n_nodes, dtype=np.int64)
        x, rem = np.divmod(nodes, dy * dz)
        y, z = np.divmod(rem, dz)
        # Undeclared caches on the frozen dataclass (as in FatTree):
        # stay out of __eq__/__repr__.
        object.__setattr__(self, "_cx", x.astype(np.int32))
        object.__setattr__(self, "_cy", y.astype(np.int32))
        object.__setattr__(self, "_cz", z.astype(np.int32))
        object.__setattr__(
            self,
            "_axis_dist",
            tuple(
                tuple(min(d, dim - d) for d in range(dim)) for dim in dims
            ),
        )

    def coords(self, node: int) -> tuple:
        """The ``(x, y, z)`` torus coordinate of ``node``."""
        self._check(node)
        return (int(self._cx[node]), int(self._cy[node]), int(self._cz[node]))

    def hops(self, a: int, b: int) -> int:
        """Wraparound Manhattan distance between nodes ``a`` and ``b``."""
        self._check(a)
        self._check(b)
        if a == b:
            return 0
        dist = self._axis_dist
        return (
            dist[0][abs(int(self._cx[a]) - int(self._cx[b]))]
            + dist[1][abs(int(self._cy[a]) - int(self._cy[b]))]
            + dist[2][abs(int(self._cz[a]) - int(self._cz[b]))]
        )

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} outside [0, {self.n_nodes})")

    def __repr__(self) -> str:
        dx, dy, dz = self.dims
        return f"<Torus3D n={self.n_nodes} dims={dx}x{dy}x{dz}>"


#: Topology constructors by registry name (NetworkModel.topology).
TOPOLOGIES = {
    "fattree": lambda n_nodes, radix: FatTree(n_nodes, radix=radix),
    "torus3d": lambda n_nodes, radix: Torus3D(n_nodes),
}


def build_topology(kind: str, n_nodes: int, radix: int = 4):
    """Construct the topology named ``kind`` over ``n_nodes`` nodes."""
    try:
        factory = TOPOLOGIES[kind]
    except KeyError:
        raise KeyError(
            f"unknown topology {kind!r}; choose from {sorted(TOPOLOGIES)}"
        ) from None
    return factory(n_nodes, radix)
