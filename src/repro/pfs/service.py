"""A parallel file system substrate over the BCS transfer machinery.

The paper's §1 motivation: "most parallel systems cannot guarantee
quality of service for user-level traffic and system-level traffic in
the same interconnection network.  Low-priority, best-effort traffic
generated by the parallel file system can interfere with
higher-priority, latency-sensitive traffic generated at user level."

This module provides that file system in both regimes:

- :class:`PfsService` (the BCS way): striped reads/writes become
  *system-class* matches in the global slice scheduler, granted only the
  link budget user traffic leaves over; transfers execute in the regular
  point-to-point microphase, so user messages never queue behind PFS
  bulk data.
- :class:`UncoordinatedPfs` (the status quo): stripes go straight onto
  the fabric and contend head-of-line with application messages.

Both store real stripe maps so tests can verify placement and sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Sequence

from ..bcs.descriptors import BcsRequest, Match, RecvDescriptor, SendDescriptor
from ..sim import Timeout
from ..units import kib

if TYPE_CHECKING:  # pragma: no cover
    from ..bcs.runtime import BcsRuntime
    from ..network import Cluster

#: job_id used by PFS descriptors (never collides with real jobs).
PFS_JOB_ID = -1

_file_ids = itertools.count()


@dataclass
class StripeMap:
    """Where one file's stripes live."""

    name: str
    size: int
    stripe_bytes: int
    #: io-node of each stripe, in order.
    placement: List[int] = field(default_factory=list)


def _stripes(size: int, stripe_bytes: int) -> List[int]:
    """Split ``size`` into stripe sizes (last one may be short)."""
    if size <= 0:
        return []
    full, rest = divmod(size, stripe_bytes)
    return [stripe_bytes] * full + ([rest] if rest else [])


class PfsService:
    """Globally scheduled PFS: stripes ride the BCS slice machine."""

    def __init__(
        self,
        runtime: "BcsRuntime",
        io_nodes: Sequence[int],
        stripe_bytes: int = kib(256),
    ):
        if not io_nodes:
            raise ValueError("need at least one I/O node")
        self.runtime = runtime
        self.env = runtime.env
        self.io_nodes = list(io_nodes)
        # Stripes join the slice scheduler at any instant.
        runtime.cluster.fabric.shared = True
        self.stripe_bytes = stripe_bytes
        self.files: Dict[str, StripeMap] = {}
        self._next_io = 0

    # -- data path -------------------------------------------------------------

    def _make_match(self, src_node: int, dst_node: int, size: int) -> Match:
        self.runtime.use_nodes((src_node, dst_node))
        send_req = BcsRequest(self.env, "pfs-send")
        recv_req = BcsRequest(self.env, "pfs-recv")
        ids = self.runtime.desc_ids
        send = SendDescriptor(
            PFS_JOB_ID, 0, src_node, dst_node, 0, size, send_req,
            desc_id=next(ids),
        )
        recv = RecvDescriptor(
            PFS_JOB_ID, 0, dst_node, src_node, 0, size, recv_req,
            desc_id=next(ids),
        )
        return Match(
            send=send,
            recv=recv,
            src_node=src_node,
            dst_node=dst_node,
            total_bytes=size,
            system=True,
        )

    def write(self, client_node: int, name: str, size: int) -> List[BcsRequest]:
        """Stripe ``size`` bytes from ``client_node`` across I/O nodes.

        Returns one request per stripe; they complete as the slice
        scheduler finds leftover budget.  Non-blocking (system dæmons
        don't suspend application processes).
        """
        sizes = _stripes(size, self.stripe_bytes)
        stripe_map = StripeMap(name=name, size=size, stripe_bytes=self.stripe_bytes)
        matches = []
        for chunk in sizes:
            io_node = self.io_nodes[self._next_io % len(self.io_nodes)]
            self._next_io += 1
            stripe_map.placement.append(io_node)
            matches.append(self._make_match(client_node, io_node, chunk))
        self.files[name] = stripe_map
        self.runtime.scheduler.add_matches(matches)
        self.runtime.stats["pfs_stripes_written"] += len(matches)
        return [m.recv.request for m in matches]

    def read(self, client_node: int, name: str) -> List[BcsRequest]:
        """Fetch a previously written file back to ``client_node``."""
        stripe_map = self.files.get(name)
        if stripe_map is None:
            raise FileNotFoundError(name)
        sizes = _stripes(stripe_map.size, stripe_map.stripe_bytes)
        matches = [
            self._make_match(io_node, client_node, chunk)
            for io_node, chunk in zip(stripe_map.placement, sizes)
        ]
        self.runtime.scheduler.add_matches(matches)
        self.runtime.stats["pfs_stripes_read"] += len(matches)
        return [m.recv.request for m in matches]


class UncoordinatedPfs:
    """Status-quo PFS: stripes contend directly on the fabric."""

    def __init__(self, cluster: "Cluster", io_nodes: Sequence[int], stripe_bytes: int = kib(256)):
        if not io_nodes:
            raise ValueError("need at least one I/O node")
        self.cluster = cluster
        self.env = cluster.env
        self.io_nodes = list(io_nodes)
        cluster.fabric.shared = True
        self.stripe_bytes = stripe_bytes
        self.files: Dict[str, StripeMap] = {}
        self._next_io = 0

    def write(self, client_node: int, name: str, size: int) -> None:
        """Start the striped write: each stripe goes onto the fabric from
        a zero-delay entry of its own."""
        sizes = _stripes(size, self.stripe_bytes)
        stripe_map = StripeMap(name=name, size=size, stripe_bytes=self.stripe_bytes)
        for chunk in sizes:
            io_node = self.io_nodes[self._next_io % len(self.io_nodes)]
            self._next_io += 1
            stripe_map.placement.append(io_node)
            Timeout(self.env, 0).callbacks.append(
                partial(self._stripe, client_node, io_node, chunk)
            )
        self.files[name] = stripe_map

    def _stripe(self, client_node: int, io_node: int, chunk: int, _start: Timeout) -> None:
        """Put one stripe on the fabric: its start entry's callback."""
        self.cluster.fabric.transfer(client_node, io_node, chunk, label="pfs")
