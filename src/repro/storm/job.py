"""Parallel jobs: specification, placement, lifecycle, communicators.

STORM (the paper's resource manager, [8]) owns job descriptions and
placement; both MPI runtimes launch :class:`JobSpec` instances and track
them as :class:`Job` objects.  What the two runtimes share above their
transports — the job and communicator registry, the launch preamble and
the run-until-done watchdog — is :class:`JobHost`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from ..sim import Engine, Event

_job_ids = itertools.count()


@dataclass(frozen=True)
class JobSpec:
    """Static description of a parallel job.

    ``app`` is a generator function ``app(ctx) -> Generator`` run once per
    rank; ``ctx`` is an :class:`repro.mpi.context.AppContext`.
    """

    app: Callable[..., Generator]
    n_ranks: int
    name: str = "job"
    #: Extra keyword arguments passed to every rank's ``app(ctx, **params)``.
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_ranks < 1:
            raise ValueError("a job needs at least one rank")


def block_placement(n_ranks: int, n_nodes: int, per_node: int) -> List[int]:
    """Paper-style placement: fill each node with ``per_node`` ranks.

    Rank r runs on node ``r // per_node`` (ranks 0,1 on node 0; 2,3 on
    node 1; ... — two ranks per dual-CPU node on the crescendo cluster).
    """
    if n_ranks > n_nodes * per_node:
        raise ValueError(
            f"{n_ranks} ranks exceed capacity {n_nodes} nodes x {per_node}"
        )
    return [r // per_node for r in range(n_ranks)]


class Job:
    """A launched job: placement, per-rank state, completion event."""

    def __init__(self, env: Engine, spec: JobSpec, placement: List[int]):
        if len(placement) != spec.n_ranks:
            raise ValueError("placement must list one node per rank")
        self.env = env
        self.spec = spec
        self.id = next(_job_ids)
        #: node id for each rank.
        self.placement = list(placement)
        #: ranks hosted on each node.
        self.node_ranks: Dict[int, List[int]] = {}
        for rank, node in enumerate(self.placement):
            self.node_ranks.setdefault(node, []).append(rank)
        self.done: Event = env.event(name=f"job{self.id}.done")
        #: Triggered if the job is torn down by a failure (fault tolerance).
        self.failed: Event = env.event(name=f"job{self.id}.failed")
        self.started_at: Optional[int] = None
        self.finished_at: Optional[int] = None
        self._remaining = spec.n_ranks
        #: Per-rank return values of the app generators.
        self.results: List[Any] = [None] * spec.n_ranks

    @property
    def n_ranks(self) -> int:
        """Number of ranks in the job."""
        return self.spec.n_ranks

    @property
    def nodes(self) -> List[int]:
        """Sorted list of nodes hosting at least one rank."""
        return sorted(self.node_ranks)

    @property
    def root_node(self) -> int:
        """The node hosting the job master process (rank 0)."""
        return self.placement[0]

    @property
    def complete(self) -> bool:
        """True once every rank has finished."""
        return self._remaining == 0

    @property
    def runtime(self) -> Optional[int]:
        """Wall-clock span from launch to last rank exit, ns."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def is_failed(self) -> bool:
        """True once the job has been torn down by a failure."""
        return self.failed.triggered

    @property
    def terminal(self) -> bool:
        """Completed or failed: no further progress possible."""
        return self.complete or self.is_failed

    def mark_failed(self, cause: Any = None) -> None:
        """Tear the job down (idempotent); fires ``failed``."""
        if not self.failed.triggered:
            self.failed.succeed(cause)

    def rank_finished(self, rank: int, result: Any) -> None:
        """Record one rank's completion; fires ``done`` on the last."""
        if self._remaining <= 0:
            raise RuntimeError(f"job {self.id}: too many rank completions")
        self.results[rank] = result
        self._remaining -= 1
        if self._remaining == 0:
            self.finished_at = self.env.now
            self.done.succeed(self)

    def __repr__(self) -> str:
        state = "done" if self.complete else "running"
        return f"<Job {self.id} {self.spec.name!r} ranks={self.n_ranks} {state}>"


class CommInfo:
    """One communicator's mapping onto the machine.

    Ranks inside descriptors are communicator-relative; this object maps
    them to world ranks and nodes.  The world communicator of a job is
    always ``comm_id == 0``.
    """

    def __init__(self, job: Job, comm_id: int, world_ranks: Sequence[int]):
        self.job = job
        self.comm_id = comm_id
        self.world_ranks = list(world_ranks)
        if len(set(self.world_ranks)) != len(self.world_ranks):
            raise ValueError("duplicate ranks in communicator")
        #: comm ranks hosted on each node.
        self.node_ranks: Dict[int, List[int]] = {}
        for crank, wrank in enumerate(self.world_ranks):
            node = job.placement[wrank]
            self.node_ranks.setdefault(node, []).append(crank)
        self.nodes = sorted(self.node_ranks)

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self.world_ranks)

    def node_of(self, comm_rank: int) -> int:
        """Node hosting a communicator-relative rank."""
        return self.job.placement[self.world_ranks[comm_rank]]

    @property
    def root_node(self) -> int:
        """Node of the communicator's rank 0 (its master process)."""
        return self.node_of(0)

    def __repr__(self) -> str:
        return f"<CommInfo job={self.job.id} comm={self.comm_id} size={self.size}>"


class JobHost:
    """An MPI runtime as STORM sees it: one cluster's jobs, their
    communicators, and the loop that runs a job to completion.

    Both MPI runtimes derive from it and supply ``launch``, which starts
    the rank processes of the job :meth:`_start_job` records.
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.env = cluster.env
        self.jobs: Dict[int, Job] = {}
        #: Job id -> comm id -> communicator.  Two levels, so the hot
        #: paths look a communicator up per descriptor without building
        #: a ``(job, comm)`` tuple.
        self.comms: Dict[int, Dict[int, CommInfo]] = {}
        self._comm_by_members: Dict[tuple, CommInfo] = {}

    def comm_info(self, job_id: int, comm_id: int) -> CommInfo:
        """Communicator metadata."""
        return self.comms[job_id][comm_id]

    def register_comm(self, job: Job, world_ranks: Sequence[int]) -> CommInfo:
        """Create (or fetch) the communicator over a subset of a job's ranks.

        Every member rank calls split() independently; deduplication by
        member set makes them all land on the same communicator, the way
        a real MPI_Comm_split agrees collectively.
        """
        member_key = (job.id, tuple(world_ranks))
        existing = self._comm_by_members.get(member_key)
        if existing is not None:
            return existing
        job_comms = self.comms.setdefault(job.id, {})
        comm_id = len(job_comms)
        info = job_comms[comm_id] = CommInfo(job, comm_id, world_ranks)
        self._comm_by_members[member_key] = info
        return info

    def _start_job(self, spec: JobSpec, placement: Optional[List[int]]) -> CommInfo:
        """Place and record a job starting now; returns its world
        communicator (comm 0), whose ``job`` is the new job."""
        if placement is None:
            placement = block_placement(
                spec.n_ranks,
                self.cluster.n_compute_nodes,
                self.cluster.spec.cpus_per_node,
            )
        job = Job(self.env, spec, placement)
        job.started_at = self.env.now
        self.jobs[job.id] = job
        return self.register_comm(job, range(spec.n_ranks))

    def run_job(
        self,
        spec: JobSpec,
        placement: Optional[List[int]] = None,
        max_time: Optional[int] = None,
    ) -> Job:
        """Launch a job and run the simulation until it completes.

        ``max_time`` (ns of simulated time) is a watchdog: an application
        deadlock (e.g. an unmatched blocking send) would otherwise run
        forever, or spin the BCS strobe loop forever.
        """
        job = self.launch(spec, placement)
        if max_time is None:
            self.env.run(until=job.done)
        else:
            self.env.run(until=self.env.any_of([job.done, self.env.timeout(max_time)]))
            if not job.complete:
                raise RuntimeError(
                    f"job {spec.name!r} did not finish within {max_time} ns "
                    f"(likely an application communication deadlock){self._stall_report()}"
                )
        return job

    def _stall_report(self) -> str:
        """Text a runtime appends to the watchdog's error."""
        return ""
