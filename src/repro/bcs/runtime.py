"""The BCS-MPI runtime: wiring the whole machine together.

A :class:`BcsRuntime` owns, for one cluster:

- the BCS core primitive layer (:class:`repro.core.BcsCore`),
- one :class:`~repro.bcs.threads.NodeRuntime` per compute node, which
  owns its BS/BR/DH/CH/RH NIC threads, Strobe Receiver and Node Manager,
- the Strobe Sender on the management node (the Machine Manager's NIC
  thread),
- the global slice scheduler;

and, as a :class:`~repro.storm.job.JobHost`, the job and communicator
registries it shares with the baseline MPI.

Jobs are launched with :meth:`launch`; each rank runs as a simulation
process whose MPI calls go through the BCS API.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import partial
from typing import Dict, List, Optional


from ..core import BcsCore
from ..network import Cluster
from ..network.cluster import NodeDirectory
from ..storm.job import Job, JobHost, JobSpec
from .config import BcsConfig
from .matching import MatcherTotals
from .scheduler import SliceScheduler
from .strobe import StrobeSender
from .threads import BBM_KINDS, RM_KINDS, NodeRuntime


# Retention predicates for the incrementally maintained active-node sets.
# A node *joins* a set when the corresponding state is created (descriptor
# post, remote delivery, epoch creation) and is *evicted lazily* when a
# query finds the predicate false.  Each predicate must be true whenever
# the set's query predicate is true (it may be a superset — e.g. a
# collective epoch can become schedulable without any new post, so the
# collective set retains nodes for as long as any epoch is in flight).


def _dem_pending(nrt) -> bool:
    return bool(nrt.posted_sends or nrt.posted_recvs or nrt.posted_colls)


def _arrived_pending(nrt) -> bool:
    return bool(nrt.arrived_sends)


def _coll_pending(nrt) -> bool:
    return bool(nrt.coll_state)


#: :attr:`RankHandle.quiet_until` of a rank that runs again only at a
#: slice boundary, or never.
QUIET_FOREVER = 1 << 62


class RankHandle:
    """Runtime-side state of one application process (one rank)."""

    def __init__(self, runtime: "BcsRuntime", job: Job, world_rank: int):
        self.runtime = runtime
        self.job = job
        self.world_rank = world_rank
        self.node_id = job.placement[world_rank]
        self.nrt = runtime.node_runtimes[self.node_id]
        self.nm = self.nrt.nm
        #: Per-(comm_id, dst) send sequence counters (non-overtaking order).
        self.send_seq: Dict[tuple, int] = {}
        #: Per-comm_id collective epoch counters.
        self.coll_seq: Dict[int, int] = {}
        #: Host-call overhead accumulated since the last yield point.
        self.pending_overhead = 0
        #: The rank cannot run before this instant (it computes, or waits
        #: for a slice boundary); 0 when it may run at any instant.
        self.quiet_until = 0

    def next_send_seq(self, comm_id: int, dst: int) -> int:
        key = (comm_id, dst)
        seq = self.send_seq.get(key, 0)
        self.send_seq[key] = seq + 1
        return seq

    def next_epoch(self, comm_id: int) -> int:
        epoch = self.coll_seq.get(comm_id, 0) + 1
        self.coll_seq[comm_id] = epoch
        return epoch

    def take_overhead(self) -> int:
        t, self.pending_overhead = self.pending_overhead, 0
        return t

    def __repr__(self) -> str:
        return f"<RankHandle job={self.job.id} rank={self.world_rank}>"


class BcsRuntime(JobHost):
    """The buffered-coscheduled MPI runtime for one cluster."""

    def __init__(self, cluster: Cluster, config: Optional[BcsConfig] = None):
        super().__init__(cluster)
        self.config = config or BcsConfig()
        self.core = BcsCore(cluster)
        self.scheduler = SliceScheduler(self.config, cluster.spec.model.link_bandwidth)

        #: ``config.engine`` resolved once: True runs the fast slice
        #: engine, False the reference oracle.  Hot paths test this bool.
        self.fast = self.config.engine == "fast"
        #: Descriptor ids of this runtime's posts and PFS matches: a
        #: counter per runtime, so two same-seed runs number alike.
        self.desc_ids = itertools.count()
        #: Machine-wide matcher aggregates, shared by every node matcher.
        self.matcher_totals = MatcherTotals()
        # Incrementally maintained active-node id sets (see the module-
        # level retention predicates).  Maintained under both engines —
        # the bookkeeping is O(1) per mutation — so the scan and
        # incremental query paths can be compared over the same state.
        self._dem_set: set = set()
        self._arrived_set: set = set()
        self._coll_set: set = set()
        self._match_set: set = set()
        #: Nodes with at least one process waiting on their slice signal.
        self._slice_waiters: set = set()
        #: Start time of the current slice (shared by every NodeRuntime;
        #: written once per slice by the Strobe Sender instead of an
        #: O(nodes) begin_slice loop).
        self.slice_start_time = 0
        #: Steps of :attr:`sr_idle_until`: ``(from, until)`` pairs in
        #: time order.
        self._sr_idle: tuple = ()

        # Flyweight nodes: one NodeRuntime (NIC threads, Node Manager,
        # Strobe Receiver) per compute node, built on first touch
        # (launch() builds a job's nodes).
        self.node_runtimes = NodeDirectory(
            partial(NodeRuntime, self), cluster.n_compute_nodes
        )
        if not self.fast:
            # The reference engine builds the whole machine up front, in
            # ascending id order: every cluster node, then every compute
            # node's runtime.  Building a node schedules nothing, so this
            # is virtual-time neutral.
            list(cluster.nodes)
            list(self.node_runtimes)
        self.ss = StrobeSender(self)

        #: Job id -> index in launch order.  Job ids come from a
        #: process-global counter; the protocol log names jobs by this
        #: index, so two same-seed runs log alike.
        self.job_index: Dict[int, int] = {}
        #: Per-job usage counters (cpu_ns, blocked_ns, messages, bytes,
        #: collectives) — STORM's accounting role (paper §1).
        self.job_stats: Dict[int, Counter] = {}
        #: Live rank processes: (job_id, rank) -> sim Process (for
        #: failure injection / fault tolerance).
        self.rank_procs: Dict[tuple, object] = {}
        #: Job id -> its ranks' handles, in world-rank order.
        self.rank_handles: Dict[int, List[RankHandle]] = {}
        self.slice_no = 0
        self.stopped = False
        self.stats: Counter = Counter()
        #: Nodes hosting at least one rank of any job (strobe targets).
        self.active_node_ids: List[int] = []
        #: Nodes in service: the active nodes and those a PFS stripe
        #: names (see :meth:`use_nodes`).
        self.nodes_in_use: set = set()
        #: Hooks invoked at every slice boundary with the new slice number
        #: (gang scheduler, instrumentation, ...).  A non-empty registry
        #: also disables slice planning: hooks may create work.
        self.on_slice_start: List = []
        #: Telemetry hub (:class:`repro.obs.Observability`) or None.
        #: Hot paths guard on this — a bare runtime pays one attribute
        #: read per hook point and nothing else.
        self.obs = None

    @property
    def sr_idle_until(self) -> int:
        """No Strobe Receiver runs before this instant.

        The Strobe Sender publishes it whenever it waits with no receiver
        at work: ahead of a microstrobe, through a microphase without
        participants and in the slice-end sleep.  A rank's blocking wait
        uses it to block before its host overhead has passed.  Assigning
        it starts a step now; a planned slice adds the steps of its
        microphases ahead of time.
        """
        now = self.env.now
        for since, value in reversed(self._sr_idle):
            if since <= now:
                return value
        return 0

    @sr_idle_until.setter
    def sr_idle_until(self, t: int) -> None:
        self._sr_idle = ((self.env.now, t),)

    def attach_observability(self, obs) -> "BcsRuntime":
        """Wire a telemetry hub into the runtime, fabric, and NICs.

        Instrumentation is passive (it never enters the event queue), so
        attaching observability does not change simulated timings.
        Returns the runtime for chaining.
        """
        self.obs = obs
        obs.bind(self)
        return self

    def use_nodes(self, node_ids) -> None:
        """Put nodes into service, logging a ``node`` entry for each new one.

        A node comes into service when a job is first launched onto it
        or a PFS stripe first names it; binding a hub logs the nodes
        already in service.  Which nodes an engine has built plays no
        part, so both engines log the same entries.
        """
        fresh = sorted(set(node_ids) - self.nodes_in_use)
        self.nodes_in_use.update(fresh)
        obs = self.obs
        if obs is not None:
            now = self.env.now
            obs.events.extend((now, "node", node_id) for node_id in fresh)

    # -- job lifecycle ------------------------------------------------------------------

    def launch(self, spec: JobSpec, placement: Optional[List[int]] = None) -> Job:
        """Start a job: STORM-style gang launch of one process per rank.

        Each rank pays the one-time BCS runtime initialization cost, then
        starts executing at a slice boundary.
        """
        world = self._start_job(spec, placement)
        job = world.job
        self.job_index[job.id] = len(self.job_index)
        self.job_stats[job.id] = Counter()
        self.active_node_ids = sorted(
            set(self.active_node_ids) | set(job.nodes)
        )
        self.use_nodes(job.nodes)
        # Build the NodeRuntime of every node the job touches, in
        # ascending id order, *before* the strobe loop and the rank
        # processes start.  Building a node schedules nothing, so
        # launch-time building keeps the event sequence, and therefore
        # virtual time, identical to the reference engine's.
        for node_id in job.nodes:
            self.node_runtimes[node_id]
        self.stopped = False
        self.ss.start()

        from ..mpi.bcs_backend import BcsCommunicator  # avoid import cycle
        from ..mpi.context import AppContext

        handles = self.rank_handles[job.id] = []
        for rank in range(spec.n_ranks):
            handle = RankHandle(self, job, rank)
            handles.append(handle)
            comm = BcsCommunicator(self, handle, world, rank)
            ctx = AppContext(
                self.env,
                comm,
                handle.node_id,
                compute_fn=self._make_compute(handle),
                job=job,
                params=spec.params,
            )
            proc = self.env.process(
                self._rank_body(job, rank, ctx, handle),
                name=f"{spec.name}.r{rank}",
            )
            self.rank_procs[(job.id, rank)] = proc
        return job

    def _make_compute(self, handle: RankHandle):
        env = self.env

        def compute(node_id: int, duration: int):
            overhead = handle.take_overhead()
            # The NM tax and CPU contention can only stretch it.
            handle.quiet_until = env.now + duration + overhead
            yield from handle.nm.compute(handle.job.id, duration + overhead)
            handle.quiet_until = 0

        return compute

    def _rank_body(self, job: Job, rank: int, ctx, handle: RankHandle):
        from ..sim.errors import Interrupt

        try:
            t_launch = self.env.now
            if self.config.init_cost:
                yield self.env.timeout(self.config.init_cost)
            # Processes start executing at a slice boundary (gang launch).
            yield handle.nrt.slice_start.wait()
            obs = self.obs
            if obs is not None:
                obs.events.append(
                    (self.env.now, "rank_start", self.job_index[job.id], rank, t_launch)
                )
            result = yield from job.spec.app(ctx, **job.spec.params)
        except Interrupt as intr:
            # Killed by failure injection: the job is torn down.
            self.stats["ranks_killed"] += 1
            job.mark_failed(intr.cause)
            return
        finally:
            self.rank_procs.pop((job.id, rank), None)
            handle.quiet_until = QUIET_FOREVER
        job.rank_finished(rank, result)
        if job.complete:
            self.free_collective_state(job.id)
        obs = self.obs
        if obs is not None:
            obs.events.append(
                (self.env.now, "rank_finish", self.job_index[job.id], rank)
            )

    def _stall_report(self) -> str:
        """The stall diagnosis, for the watchdog's error."""
        from ..debug.diagnostics import diagnose

        return f".\nstall diagnosis:\n{diagnose(self)}"

    def stop(self) -> None:
        """Ask the Strobe Sender to stop at the next slice boundary."""
        self.stopped = True

    def idle(self) -> bool:
        """Nothing left to do: no running jobs (failed count as
        terminal) and no backlog (e.g. system/PFS transfers)."""
        return (
            all(job.terminal for job in self.jobs.values()) and not self.any_work()
        )

    def kill_job(self, job: Job, cause: str = "failure") -> None:
        """Tear a job down: interrupt every live rank now, purge its
        runtime state at the next slice boundary.

        The deferral is the paper's checkpointing insight in action: in
        the middle of a slice, NIC threads may be blocked on partner
        events of an in-flight collective, and yanking that state would
        wedge the microphase barrier.  At the slice boundary the global
        communication state is consistent and can be dropped wholesale.
        """
        job.mark_failed(cause)
        for (job_id, rank), proc in list(self.rank_procs.items()):
            if job_id == job.id and proc.is_alive and proc.target is not None:
                proc.interrupt(cause)

        def purge_hook(_slice_no):
            self.purge_job(job.id)
            self.on_slice_start.remove(purge_hook)

        self.on_slice_start.append(purge_hook)

    def purge_job(self, job_id: int) -> None:
        """Drop every trace of a job from the runtime's queues.

        Used after a failure so a relaunched instance starts from clean
        communication state (the paper's checkpointing rationale: at a
        slice boundary the global communication state is known, so it
        can be discarded and rebuilt consistently).
        """

        def keep(desc) -> bool:
            return desc.job_id != job_id

        # Only materialized nodes can hold job state (descriptors are
        # posted and delivered through node runtimes), so the purge
        # never needs to force a lazy table.
        for nrt in self.node_runtimes.materialized():
            nrt.posted_sends = [d for d in nrt.posted_sends if keep(d)]
            nrt.posted_recvs = [d for d in nrt.posted_recvs if keep(d)]
            nrt.posted_colls = [d for d in nrt.posted_colls if keep(d)]
            nrt.arrived_sends = [d for d in nrt.arrived_sends if keep(d)]
            nrt.new_matches = [m for m in nrt.new_matches if keep(m.send)]
            nrt.matcher.purge_job(job_id)
            for key in [key for key in nrt.coll_state if key[0] == job_id]:
                del nrt.coll_state[key]
            nrt.reduce_inbox = {
                k: v for k, v in nrt.reduce_inbox.items() if k[0] != job_id
            }
        self.scheduler.in_flight = [
            m for m in self.scheduler.in_flight if keep(m.send)
        ]
        self.free_collective_state(job_id)
        self.stats["jobs_purged"] += 1

    def free_collective_state(self, job_id: int) -> None:
        """Drop what a finished or purged job's collectives leave behind:
        each communicator's ``cflag`` and ``go`` counters in global
        memory, and the ``ch:``, ``rh:`` and ``rhfin:`` NIC event words
        of its Collective and Reduce Helpers.  Nothing reads them once
        the job's ranks have finished or its state was purged, and
        without this a runtime that runs many jobs grows with the job
        count."""
        gas = self.core.gas
        words = tuple(f"{kind}:{job_id}:" for kind in ("ch", "rh", "rhfin"))
        for comm_id, info in self.comms.get(job_id, {}).items():
            flags = (("cflag", job_id, comm_id), ("go", job_id, comm_id))
            for node in info.nodes:
                gas.discard(node, flags)
                self.cluster.node(node).nic.drop_events(words)

    # -- slice coordination hooks (called by the Strobe Sender) -------------------------
    #
    # Every query below has two implementations returning identical
    # results: the fast engine's reads the lazily pruned active-node
    # sets (O(members) per slice), the reference engine's recomputes
    # from every node runtime (O(cluster) per slice; the public
    # ``*_scan`` oracles).  ``tests/bcs/test_active_sets.py`` pins them
    # against each other.

    def _prune_live(self, node_set: set, pred) -> bool:
        """Evict stale members of ``node_set``; True if any remain.

        Allocation-free in the steady state: the eviction list is only
        materialized when a stale member is actually found.
        """
        if not node_set:
            return False
        rts = self.node_runtimes
        dead = None
        for n in node_set:
            if not pred(rts[n]):
                if dead is None:
                    dead = [n]
                else:
                    dead.append(n)
        if dead is not None:
            node_set.difference_update(dead)
        return bool(node_set)

    def _live_sorted(self, node_set: set, pred) -> List[int]:
        """Sorted live members of ``node_set`` (stale ones evicted)."""
        self._prune_live(node_set, pred)
        return sorted(node_set)

    def any_work(self) -> bool:
        """Anything at all for this slice's microphases?"""
        if not self.fast:
            return self.any_work_scan()
        return bool(
            self.scheduler.in_flight
            or self._prune_live(self._dem_set, _dem_pending)
            or self._prune_live(self._arrived_set, _arrived_pending)
            or self._prune_live(self._coll_set, _coll_pending)
        )

    def any_work_scan(self) -> bool:
        """Full-scan oracle for :meth:`any_work`."""
        return bool(self.scheduler.in_flight) or any(
            nrt.has_work() for nrt in self.node_runtimes
        )

    def slice_work(self) -> tuple:
        """Combined per-slice query: ``(any_work(), dem_nodes())``.

        The Strobe Sender needs both answers back to back with no yield
        point in between, so one DEM-set prune can serve both instead of
        pruning it once for ``any_work`` and again for ``dem_nodes``.
        Results are identical to calling the two queries in sequence.
        """
        if not self.fast:
            return self.any_work_scan(), self.dem_nodes_scan()
        dem = self._live_sorted(self._dem_set, _dem_pending)
        if dem or self.scheduler.in_flight:
            return True, dem
        active = self._prune_live(
            self._arrived_set, _arrived_pending
        ) or self._prune_live(self._coll_set, _coll_pending)
        return active, dem

    def collectives_pending(self) -> bool:
        """Does any node hold an in-flight collective epoch?"""
        return self._prune_live(self._coll_set, _coll_pending)

    def dem_nodes(self) -> List[int]:
        """Nodes with descriptors to drain/exchange."""
        if not self.fast:
            return self.dem_nodes_scan()
        return self._live_sorted(self._dem_set, _dem_pending)

    def dem_nodes_scan(self) -> List[int]:
        """Full-scan oracle for :meth:`dem_nodes`."""
        return [
            nrt.node_id
            for nrt in self.node_runtimes
            if nrt.posted_sends or nrt.posted_recvs or nrt.posted_colls
        ]

    def msm_nodes(self) -> List[int]:
        """Nodes with arrived sends to match or collectives to schedule."""
        if not self.fast:
            return self.msm_nodes_scan()
        self._prune_live(self._arrived_set, _arrived_pending)
        out = set(self._arrived_set)
        if self._prune_live(self._coll_set, _coll_pending):
            rts = self.node_runtimes
            for node_id in self._coll_set:
                if node_id not in out and any(rts[node_id].schedulable()):
                    out.add(node_id)
        return sorted(out)

    def msm_nodes_scan(self) -> List[int]:
        """Full-scan oracle for :meth:`msm_nodes`."""
        out = []
        for nrt in self.node_runtimes:
            if nrt.arrived_sends or any(nrt.schedulable()):
                out.append(nrt.node_id)
        return out

    def _nodes_with_released(self, kinds: tuple, root_only: bool) -> List[int]:
        rts = self.node_runtimes
        if not self.fast:
            return [
                nrt.node_id for nrt in rts if any(nrt.released(kinds, root_only))
            ]
        if not self._prune_live(self._coll_set, _coll_pending):
            return []
        out = [
            node_id
            for node_id in self._coll_set
            if any(rts[node_id].released(kinds, root_only))
        ]
        out.sort()
        return out

    def bbm_nodes(self) -> List[int]:
        """Nodes driving a released barrier/broadcast this slice."""
        return self._nodes_with_released(BBM_KINDS, root_only=True)

    def rm_nodes(self) -> List[int]:
        """Nodes participating in a released reduce this slice."""
        return self._nodes_with_released(RM_KINDS, root_only=False)

    def global_schedule(self):
        """Collect MSM matches and grant this slice's chunks."""
        rts = self.node_runtimes
        if self.fast:
            matched = [rts[node_id] for node_id in sorted(self._match_set)]
        else:
            matched = rts
        for nrt in matched:
            if nrt.new_matches:
                self.scheduler.add_matches(nrt.new_matches)
                nrt.new_matches = []
        self._match_set.clear()
        return self.scheduler.schedule_slice()

    # -- telemetry accessors (read-only; never enter the event queue) -------------------

    def queue_depths(self) -> tuple:
        """Machine totals ``(posted_sends, posted_recvs, posted_colls,
        arrived_sends)`` — O(active nodes), read from the active sets."""
        rts = self.node_runtimes
        sends = recvs = colls = 0
        for node_id in self._live_sorted(self._dem_set, _dem_pending):
            nrt = rts[node_id]
            sends += len(nrt.posted_sends)
            recvs += len(nrt.posted_recvs)
            colls += len(nrt.posted_colls)
        arrived = sum(
            len(rts[n].arrived_sends)
            for n in self._live_sorted(self._arrived_set, _arrived_pending)
        )
        return sends, recvs, colls, arrived

    def matcher_pending_totals(self) -> tuple:
        """Machine totals ``(unexpected sends, posted receives)`` — O(1),
        read from the aggregate every node matcher shares."""
        totals = self.matcher_totals
        return totals.unexpected, totals.posted

    def __repr__(self) -> str:
        return (
            f"<BcsRuntime slice={self.slice_no} jobs={len(self.jobs)} "
            f"t={self.env.now}>"
        )
