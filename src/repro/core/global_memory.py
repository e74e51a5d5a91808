"""Global memory: data at the same virtual address on all nodes.

The BCS core primitives operate on *global data*: "data at the same
virtual address on all nodes" (paper §2).  We model virtual addresses as
symbolic keys.  Each node has a :class:`MemoryRegion`; a
:class:`GlobalAddressSpace` groups the per-node regions of one machine so
primitives can write "the variable ``x`` on nodes {2,5,7}".

Lazy regions keep the address space flat at 64k nodes: a node's
:class:`MemoryRegion` is only materialized on its first write (or
explicit :meth:`~GlobalAddressSpace.region` access).  Reads of
never-written addresses return the default either way, so laziness is
observationally identical to eager construction while an idle node
costs nothing.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable


class MemoryRegion:
    """One node's slice of the global address space."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._mem: Dict[Hashable, Any] = {}

    def read(self, addr: Hashable, default: Any = None) -> Any:
        """Read the value at ``addr`` (default if never written)."""
        return self._mem.get(addr, default)

    def write(self, addr: Hashable, value: Any) -> None:
        """Write ``value`` at ``addr``."""
        self._mem[addr] = value

    def __repr__(self) -> str:
        return f"<MemoryRegion node={self.node_id} vars={len(self._mem)}>"


class GlobalAddressSpace:
    """The union of all nodes' memory regions."""

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        #: node_id -> region, created on first write (lazy flyweight).
        self._regions: Dict[int, MemoryRegion] = {}

    def __len__(self) -> int:
        return self.n_nodes

    def region(self, node_id: int) -> MemoryRegion:
        """The memory region of one node (materialized on demand)."""
        if not 0 <= node_id < self.n_nodes:
            raise IndexError(f"node {node_id} outside [0, {self.n_nodes})")
        region = self._regions.get(node_id)
        if region is None:
            region = self._regions[node_id] = MemoryRegion(node_id)
        return region

    def read(self, node_id: int, addr: Hashable, default: Any = None) -> Any:
        """Read ``addr`` on one node."""
        region = self._regions.get(node_id)
        if region is None:
            return default
        return region.read(addr, default)

    def write(self, node_id: int, addr: Hashable, value: Any) -> None:
        """Write ``addr`` on one node."""
        self.region(node_id).write(addr, value)

    def discard(self, node_id: int, addrs: Iterable[Hashable]) -> None:
        """Free ``addrs`` on one node: reads return the default again."""
        region = self._regions.get(node_id)
        if region is not None:
            for addr in addrs:
                region._mem.pop(addr, None)

    def write_all(self, node_ids: Iterable[int], addr: Hashable, value: Any) -> None:
        """Write the same value at ``addr`` on a set of nodes (atomically).

        This is the commit step of ``Xfer-And-Signal``/``Compare-And-Write``:
        either all nodes see the value or none do — we model network errors
        as absent, so "all".
        """
        for nid in node_ids:
            self.region(nid).write(addr, value)

    def gather(self, node_ids: Iterable[int], addr: Hashable, default: Any = None) -> list:
        """Read ``addr`` on each of ``node_ids`` (for conditionals)."""
        return [self.read(nid, addr, default) for nid in node_ids]
