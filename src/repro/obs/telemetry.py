"""Slice-level telemetry: the protocol log and the views folded from it.

An :class:`Observability` hub keeps one event stream,
:attr:`Observability.events`: the protocol log, one plain tuple
``(t, kind, ...)`` per instrumented action, in simulation order (see
docs/OBSERVABILITY.md for every kind and its fields).  The instrumented
runtime only appends to it.  Every view is a fold over it, replayed
when read: :attr:`~Observability.registry` (a
:class:`~repro.obs.registry.MetricsRegistry`),
:attr:`~Observability.perfetto` (a
:class:`~repro.obs.perfetto.PerfettoTrace`, message flow arrows
included), :attr:`~Observability.profiler` (an
:class:`~repro.obs.profiler.MpiProfiler`) and
:attr:`~Observability.spans` (a :class:`~repro.obs.spans.SpanTracker`
for the critical-path extractor).  The flight recorder, the protocol
validator and the slice timeline read the log directly.

Wiring: ``runtime.attach_observability(obs)`` stores the hub on the
runtime, the fabric and every NIC; every instrumented call site guards
with a single ``if obs is not None`` so a run without observability pays
one attribute read per site and nothing else.  Appending never yields
into the simulator, so instrumentation cannot perturb virtual time (the
golden-timings tests pin this).

Metric catalog (see docs/OBSERVABILITY.md):

=================================  =========  ================================
metric                             kind       meaning
=================================  =========  ================================
``bcs.slice.count``                counter    slices, labeled kind=active/idle
``bcs.slice.utilization``          histogram  busy_ns / timeslice per slice
``bcs.slice.overruns``             counter    slices exceeding the timeslice
``bcs.microphase.duration_ns``     histogram  per-phase duration (labeled)
``bcs.strobe.skew_ns``             histogram  per-phase node completion skew
``bcs.queue.depth``                histogram  descriptor queue depth per slice
``bcs.match.unexpected``           gauge      unexpected sends queued (matcher)
``bcs.match.posted``               gauge      posted receives queued (matcher)
``bcs.sched.granted_bytes``        histogram  bytes granted per active slice
``bcs.sched.link_utilization``     histogram  per-source tx budget fraction
``bcs.sched.backlog_bytes``        gauge      current scheduler backlog
``nic.thread.busy_ns``             counter    NIC thread busy time (per node)
=================================  =========  ================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .perfetto import PerfettoTrace
from .profiler import MpiProfiler
from .registry import MetricsRegistry, _label_key
from .spans import SpanTracker

if TYPE_CHECKING:  # pragma: no cover
    from ..bcs.runtime import BcsRuntime

__all__ = ["Observability", "PHASE_THREADS"]

#: Which NIC thread(s) a microphase wakes (paper §4.2, Figure 5) —
#: used to label NIC-thread occupancy spans.
PHASE_THREADS = {
    "DEM": "BS/BR",
    "MSM": "BR",
    "P2P": "DH",
    "BBM": "CH",
    "RM": "RH",
}

#: Thread-track ids inside each node's process group.
TID_MICROPHASES = 0
TID_NIC = 1


class Observability:
    """Telemetry hub: the protocol log, and every view folded from it."""

    def __init__(self):
        self.runtime: Optional["BcsRuntime"] = None
        #: The protocol log: one ``(t, kind, ...)`` tuple per
        #: instrumented action, in simulation order.
        self.events: List[tuple] = []
        self._views: Optional[_Views] = None

    def bind(self, runtime: "BcsRuntime") -> None:
        """Attach to a runtime: wire the fabric and the materialized NICs,
        and log the nodes already in service (:meth:`BcsRuntime.use_nodes`).

        Lazily materialized nodes inherit the hub at construction from
        ``runtime.obs``; binding never forces a 64k table into being.
        """
        self.runtime = runtime
        runtime.cluster.fabric.obs = self
        for nrt in runtime.node_runtimes.materialized():
            nrt.nic.obs = self
        now = runtime.env.now
        self.events.extend((now, "node", node) for node in sorted(runtime.nodes_in_use))

    def _fold(self) -> "_Views":
        views = self._views
        if views is None or views.n_events != len(self.events):
            views = self._views = _Views(self.runtime, self.events)
        return views

    @property
    def registry(self) -> MetricsRegistry:
        """Slice, microphase, scheduler and NIC metrics of the log."""
        return self._fold().registry

    @property
    def perfetto(self) -> PerfettoTrace:
        """The log as a Perfetto trace, message flow arrows included."""
        return self._fold().perfetto

    @property
    def profiler(self) -> MpiProfiler:
        """The log's posts and waits as an mpiP-style profile."""
        return self._fold().profiler

    @property
    def spans(self) -> SpanTracker:
        """The log's message and collective lifecycles and rank waits."""
        return self._fold().spans

    def nic_occupancy(self) -> Dict[int, float]:
        """Per-node NIC thread occupancy over the whole run."""
        if self.runtime is None or self.runtime.env.now == 0:
            return {}
        total = self.runtime.env.now
        out = {}
        for key, counter in sorted(self.registry.series("nic.thread.busy_ns").items()):
            node = int(dict(key)["node"])
            out[node] = counter.value / total
        return out

    def __repr__(self) -> str:
        bound = "bound" if self.runtime is not None else "unbound"
        return f"<Observability {bound} events={len(self.events)}>"


class _Views:
    """Every view of one log prefix, built in a single pass over it."""

    def __init__(self, runtime: Optional["BcsRuntime"], events: List[tuple]):
        self.n_events = len(events)
        self.registry = MetricsRegistry()
        self.perfetto = PerfettoTrace()
        self.profiler = MpiProfiler()
        self.spans = SpanTracker(self.perfetto)
        self._metrics: Dict[tuple, object] = {}
        self.timeslice = 0
        self.mgmt_pid = 0
        self.budget = 0
        if runtime is not None:
            self.timeslice = runtime.config.timeslice
            self.mgmt_pid = runtime.cluster.management_node.id
            self.budget = runtime.scheduler.budget_bytes
            self.perfetto.process_name(
                self.mgmt_pid, "slice machine (mgmt)", sort_index=-1
            )
            self.perfetto.thread_name(self.mgmt_pid, TID_MICROPHASES, "microphases")
        #: Microphase the Strobe Sender is driving (labels NIC occupancy
        #: spans with the thread that phase wakes) and its node count.
        self.current_phase: Optional[str] = None
        self.phase_nodes = 0
        #: (slice_no, phase) -> completion times of participating nodes.
        self.phase_done: Dict[Tuple[int, str], List[int]] = {}
        #: Busy nanoseconds accumulated in the current slice.
        self.slice_busy = 0
        spans = self.spans
        handlers = {
            "node": self.node,
            "slice_begin": self.slice_begin,
            "slice_end": self.slice_end,
            "phase_begin": self.phase_begin,
            "phase": self.phase_end,
            "node_phase": self.node_phase,
            "grant": self.grant,
            "nic": self.nic,
            "post": self.post,
            "wait": self.wait,
            "exchange": spans.msg_exchanged,
            "match": spans.msg_matched,
            "chunk": spans.msg_chunk,
            "deliver": spans.msg_delivered,
            "coll_sched": spans.coll_scheduled,
            "collective": spans.coll_completed,
            "rank_start": spans.rank_started,
            "rank_finish": spans.rank_finished,
        }
        for entry in events:
            handler = handlers.get(entry[1])
            if handler is not None:
                handler(entry[0], *entry[2:])

    def metric(self, instrument: str, name: str, /, **labels):
        """The registry's instrument ``name``, looked up once per fold.

        A label set the registry's cardinality cap refuses is looked up
        on every sample, so the registry counts each dropped one.
        """
        key = (name, *labels.values())
        inst = self._metrics.get(key)
        if inst is None:
            inst = getattr(self.registry, instrument)(name, **labels)
            if inst.labels == _label_key(labels):
                self._metrics[key] = inst
        return inst

    # -- one handler per entry kind ----------------------------------------------

    def node(self, t: int, node_id: int) -> None:
        """A node came into being: name its Perfetto tracks."""
        self.perfetto.process_name(node_id, f"node {node_id}")
        self.perfetto.thread_name(node_id, TID_MICROPHASES, "microphases (SR)")
        self.perfetto.thread_name(node_id, TID_NIC, "NIC threads")

    def slice_begin(
        self, t, slice_no, sends, recvs, colls, arrived, unexpected, posted
    ) -> None:
        """Start of a slice, with the descriptor queue and matcher depths."""
        metric = self.metric
        self.slice_busy = 0
        self.spans.slice_begin(t, slice_no)
        metric("histogram", "bcs.queue.depth", kind="posted_sends").observe(sends)
        metric("histogram", "bcs.queue.depth", kind="posted_recvs").observe(recvs)
        metric("histogram", "bcs.queue.depth", kind="posted_colls").observe(colls)
        metric("histogram", "bcs.queue.depth", kind="arrived_sends").observe(arrived)
        metric("gauge", "bcs.match.unexpected").set(unexpected)
        metric("gauge", "bcs.match.posted").set(posted)
        self.perfetto.counter(
            self.mgmt_pid,
            "descriptor queues",
            t,
            {
                "posted_sends": sends,
                "posted_recvs": recvs,
                "posted_colls": colls,
                "arrived_sends": arrived,
            },
        )

    def slice_end(self, t1, slice_no, t0, active, overrun) -> None:
        """End of a slice: utilization sample plus the slice span."""
        metric = self.metric
        metric("counter", "bcs.slice.count", kind="active" if active else "idle").inc()
        if overrun:
            metric("counter", "bcs.slice.overruns").inc()
        utilization = self.slice_busy / self.timeslice if self.timeslice else 0.0
        metric("histogram", "bcs.slice.utilization").observe(utilization)
        self.perfetto.complete(
            self.mgmt_pid,
            TID_MICROPHASES,
            f"slice {slice_no}",
            "slice",
            t0,
            t1 - t0,
            args={"utilization": utilization, "active": active},
        )

    def phase_begin(self, t, slice_no, phase, n_nodes) -> None:
        """The Strobe Sender starts driving a microphase."""
        self.current_phase = phase
        self.phase_nodes = n_nodes

    def phase_end(self, t1, slice_no, phase, duration) -> None:
        """Microphase complete (all nodes confirmed, padding applied)."""
        metric = self.metric
        self.current_phase = None
        self.slice_busy += duration
        n_nodes = self.phase_nodes
        metric("histogram", "bcs.microphase.duration_ns", phase=phase).observe(duration)
        metric("counter", "bcs.microphase.nodes", phase=phase).inc(n_nodes)
        done = self.phase_done.pop((slice_no, phase), None)
        if done is not None and len(done) >= 2:
            metric("histogram", "bcs.strobe.skew_ns", phase=phase).observe(
                max(done) - min(done)
            )
        self.perfetto.complete(
            self.mgmt_pid,
            TID_MICROPHASES,
            phase,
            "microphase",
            t1 - duration,
            duration,
            args={"slice": slice_no, "nodes": n_nodes},
        )

    def node_phase(self, t1, node_id, slice_no, phase, t0) -> None:
        """One Strobe Receiver finished its part of a microphase."""
        self.phase_done.setdefault((slice_no, phase), []).append(t1)
        self.perfetto.complete(
            node_id,
            TID_MICROPHASES,
            phase,
            "microphase",
            t0,
            t1 - t0,
            args={"slice": slice_no},
        )

    def grant(self, t, backlog, in_flight, grants) -> None:
        """Grant decisions of one Message Scheduling Microphase."""
        metric = self.metric
        granted_bytes = 0
        per_src: Dict[int, int] = {}
        for _send_id, src_node, chunk in grants:
            if chunk <= 0:
                continue
            granted_bytes += chunk
            per_src[src_node] = per_src.get(src_node, 0) + chunk
        metric("histogram", "bcs.sched.granted_bytes").observe(granted_bytes)
        budget = self.budget
        for src in sorted(per_src):
            metric("histogram", "bcs.sched.link_utilization").observe(
                per_src[src] / budget if budget else 0.0
            )
        metric("gauge", "bcs.sched.backlog_bytes").set(backlog)
        self.perfetto.counter(
            self.mgmt_pid,
            "scheduler",
            t,
            {
                "granted_bytes": granted_bytes,
                "backlog_bytes": backlog,
                "in_flight": in_flight,
            },
        )
        self.spans.sched_granted(grant[0] for grant in grants)

    def nic(self, t1, node_id, t0) -> None:
        """One NIC-thread operation occupied the thread processor."""
        thread = PHASE_THREADS.get(self.current_phase or "", "misc")
        self.metric("counter", "nic.thread.busy_ns", node=node_id).inc(t1 - t0)
        self.perfetto.complete(node_id, TID_NIC, thread, "nic", t0, t1 - t0)

    def post(self, t, ref, job, rank, op, nbytes, tag, site) -> None:
        """A rank posted a descriptor."""
        self.profiler.record_post(job, rank, op, nbytes, site)
        self.spans.posted(t, ref, job, rank, op, nbytes, tag)

    def wait(self, t1, job, rank, op, t0, site, waited) -> None:
        """A rank's blocking wait returned."""
        self.profiler.record_wait(job, rank, op, t0, t1, site)
        if t1 > t0:
            self.spans.rank_wait(job, rank, waited, t0, t1)
