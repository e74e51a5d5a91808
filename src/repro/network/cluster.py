"""Cluster assembly: nodes, NICs, fabric.

A :class:`Cluster` is the simulated analogue of the paper's "crescendo"
testbed: ``n_nodes`` compute nodes (dual-CPU by default) plus one
management node, all on one interconnect.  The management node is always
the *last* index (``cluster.management_node``), mirroring the paper's
separate Dell 2550; compute ranks use indices ``0..n_nodes-1``.

The per-node ``Node``/``Nic`` objects are flyweights materialized on
first access (:class:`NodeDirectory`): a 64k-node machine where one
small job runs only ever builds the node objects the job touches.
Construction of a ``Node`` creates no simulation events, so when a node
comes into being never changes simulated time; the BCS runtime's
reference engine (``BcsConfig(engine="reference")``) materializes every
node up front through the same directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List

from ..sim import Engine, Resource, RngRegistry
from .fabric import Fabric
from .model import NetworkModel, qsnet
from .nic import Nic


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a cluster."""

    n_nodes: int = 32
    cpus_per_node: int = 2
    model: NetworkModel = field(default_factory=qsnet)
    #: Per-operation NIC thread cost, ns (0 disables the cost model).
    nic_thread_op_cost: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("need at least one compute node")
        if self.cpus_per_node < 1:
            raise ValueError("need at least one CPU per node")


class Node:
    """One compute (or management) node."""

    def __init__(self, env: Engine, node_id: int, cpus: int, nic: Nic):
        self.env = env
        self.id = node_id
        self.nic = nic
        #: Host CPUs; computation and host-side MPI overhead serialize here.
        self.cpu = Resource(env, capacity=cpus, name=f"node{node_id}.cpu")
        #: When > 0, long computations release the CPU every this many ns
        #: so competing daemons (noise) can preempt.  Zero keeps compute
        #: monolithic and cheap; the noise injector turns this on.
        self.preempt_quantum = 0

    def host_compute(self, duration: int) -> Generator:
        """Occupy one host CPU for ``duration`` ns (quantized if enabled)."""
        if duration <= 0:
            return
        quantum = self.preempt_quantum
        if quantum <= 0 or duration <= quantum:
            yield from self.cpu.held(duration)
            return
        remaining = duration
        while remaining > 0:
            step = quantum if remaining > quantum else remaining
            yield from self.cpu.held(step)
            remaining -= step

    def __repr__(self) -> str:
        return f"<Node {self.id} cpus={self.cpu.capacity}>"


class NodeDirectory:
    """Lazy sequence of per-node objects (flyweight materialization).

    ``factory(node_id)`` builds a node's object on first access; the
    cluster keeps its nodes (and their NICs) in one, the BCS runtime its
    per-node runtimes.  Iteration and slicing materialize everything they
    touch, so code that genuinely walks the whole machine (diagnostics,
    full-scan oracles, fault-tolerance sweeps) still sees every node;
    :meth:`materialized` walks only the existing ones.  Indices follow
    list semantics: negative ones count from the end, and out-of-range
    ones raise :class:`IndexError`.
    """

    __slots__ = ("_factory", "_slots", "_count")

    def __init__(self, factory: Callable[[int], Any], total: int):
        self._factory = factory
        self._slots: List[Any] = [None] * total
        self._count = 0

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._slots)))]
        item = self._slots[index]  # list indexing raises when out of range
        if item is None:
            if index < 0:
                index += len(self._slots)
            item = self._slots[index] = self._factory(index)
            self._count += 1
        return item

    def __iter__(self):
        if self._count == len(self._slots):
            # Fully built: plain list iteration keeps full scans at list
            # speed.
            return iter(self._slots)
        return (self[i] for i in range(len(self._slots)))

    def materialized(self):
        """Existing entries in id order (no materialization)."""
        for item in self._slots:
            if item is not None:
                yield item

    @property
    def materialized_count(self) -> int:
        """How many entries exist as Python objects right now."""
        return self._count

    def __repr__(self) -> str:
        return f"<NodeDirectory {self._count}/{len(self._slots)} materialized>"


class _NicView:
    """The fabric's view of the node directory: NICs by node id."""

    __slots__ = ("_nodes",)

    def __init__(self, nodes):
        self._nodes = nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __getitem__(self, index) -> Nic:
        return self._nodes[index].nic


class Cluster:
    """A simulated cluster: engine + nodes + fabric + RNG."""

    def __init__(self, spec: ClusterSpec | None = None):
        self.spec = spec or ClusterSpec()
        self.env = Engine()
        self.rng = RngRegistry(self.spec.seed)

        # + 1: the management node.
        self.nodes = NodeDirectory(self._make_node, self.spec.n_nodes + 1)
        self.fabric = Fabric(self.env, self.spec.model, _NicView(self.nodes))

    def _make_node(self, node_id: int) -> Node:
        nic = Nic(
            self.env, node_id, thread_op_cost=self.spec.nic_thread_op_cost
        )
        return Node(self.env, node_id, self.spec.cpus_per_node, nic)

    @property
    def n_compute_nodes(self) -> int:
        """Number of compute nodes (excludes the management node)."""
        return self.spec.n_nodes

    @property
    def management_node(self) -> Node:
        """The management node (runs the MM / Strobe Sender)."""
        return self.nodes[-1]

    @property
    def compute_nodes(self) -> List[Node]:
        """All compute nodes, in id order (materializes every node)."""
        return self.nodes[: self.spec.n_nodes]

    def node(self, node_id: int) -> Node:
        """Node by id (compute ids first, management node last)."""
        return self.nodes[node_id]

    def run(self, until=None):
        """Run the underlying engine (convenience passthrough)."""
        return self.env.run(until=until)

    def __repr__(self) -> str:
        return (
            f"<Cluster n={self.spec.n_nodes}+mgmt model={self.spec.model.name} "
            f"t={self.env.now}>"
        )
