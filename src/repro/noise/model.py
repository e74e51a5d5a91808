"""OS noise injection.

The paper motivates global coordination partly by the damage that
uncoordinated system dæmons do to fine-grained parallel programs
("computational holes of several hundreds of ms", §1, citing [20]).  This
module injects that noise: per-node daemon processes that periodically
grab a CPU for a while, delaying whatever computation is queued behind
them.

Two modes:

- ``coordinated=False`` (default, the real-world situation): each node's
  daemon has a random phase, so across N nodes *some* node is almost
  always perturbed — the noise a bulk-synchronous app feels is the max
  over nodes.
- ``coordinated=True`` (what a BCS-style global OS achieves): all daemons
  fire in the same window on every node, so the app pays the cost once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..network import Cluster
from ..units import ms


@dataclass(frozen=True)
class NoiseConfig:
    """Daemon noise parameters."""

    #: Mean period between daemon wakeups per node, ns.
    period: int = ms(100)
    #: Mean CPU time consumed per wakeup, ns.
    duration: int = ms(2)
    #: All nodes fire together (True) or with independent phases (False).
    coordinated: bool = False
    #: Preemption quantum forced onto affected nodes (ns): long app
    #: computations release the CPU at this granularity so daemons can
    #: actually interleave (a non-preemptive resource would otherwise let
    #: a monolithic compute starve the daemon, hiding the noise).
    preempt_quantum: int = ms(1)

    def __post_init__(self):
        if self.period <= 0 or self.duration <= 0:
            raise ValueError("period and duration must be positive")
        if self.duration >= self.period:
            raise ValueError("noise duty cycle must be < 1")


class NoiseInjector:
    """Spawns daemon processes on a cluster's compute nodes."""

    def __init__(self, cluster: Cluster, config: Optional[NoiseConfig] = None):
        self.cluster = cluster
        self.env = cluster.env
        self.config = config or NoiseConfig()
        self.started = False
        #: Total CPU time stolen, per node id (for reporting).
        self.stolen: dict[int, int] = {}

    def start(self, nodes: Optional[List[int]] = None) -> None:
        """Begin injecting noise on the given nodes (default: all)."""
        if self.started:
            raise RuntimeError("noise injector already started")
        self.started = True
        node_ids = (
            [n.id for n in self.cluster.compute_nodes] if nodes is None else nodes
        )
        for node_id in node_ids:
            self.stolen[node_id] = 0
            self.cluster.node(node_id).preempt_quantum = self.config.preempt_quantum
            self.env.process(self._daemon(node_id), name=f"noise{node_id}")

    def _daemon(self, node_id: int):
        import numpy as np

        from ..sim.rng import derive_seed

        cfg = self.config
        node = self.cluster.node(node_id)
        # Coordinated daemons on different nodes draw the *same* random
        # sequence (same seed, distinct generator instances), so their
        # bursts land in the same windows everywhere; uncoordinated ones
        # get independent per-node streams.  Renaming a stream (even its
        # ``/0`` suffix) would reseed every noise run.
        stream_name = (
            "noise/coordinated/0" if cfg.coordinated else f"noise/{node_id}/0"
        )
        rng = np.random.default_rng(
            derive_seed(self.cluster.rng.root_seed, stream_name)
        )

        yield self.env.timeout(int(rng.uniform(0, cfg.period)))

        while True:
            burst = max(1, int(rng.exponential(cfg.duration)))
            yield from node.cpu.held(burst)
            self.stolen[node_id] += burst
            gap = max(1, int(rng.exponential(cfg.period - cfg.duration)))
            yield self.env.timeout(gap)

    @property
    def total_stolen(self) -> int:
        """CPU time stolen across all nodes, ns."""
        return sum(self.stolen.values())
