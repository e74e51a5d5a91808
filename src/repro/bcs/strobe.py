"""The global synchronization protocol (paper §4.2, Figure 5).

The **Strobe Sender** (SS), a NIC thread on the management node, drives
every time slice: it multicasts a *microstrobe* at the beginning of each
microphase, and before moving on checks that all nodes completed the
current microphase with a ``Compare-And-Write``.  The **Strobe Receiver**
(SR) on each compute node wakes the local NIC threads that must be active
in the new microphase and reports completion through global memory.

Slice structure (Figure 5):

    [ DEM | MSM ]  [ P2P | BBM | RM ]
    global message scheduling   message transmission

Under the fast engine the Strobe Sender *plans* a slice instead when it
can prove the result exact: once the DEM holds the slice's descriptors,
every microphase instant and transfer completion follows from that set
and the network model (:class:`_Plan`).  Only what a rank can observe
then gets an entry of the run: each landing instant, the slice-end sleep
and the boundary wake.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..sim import Latch, Link, ReusableLatch, ReusableTimeout, Timeout

from .threads import posted_before

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import BcsRuntime
    from .threads import NodeRuntime

#: Microphase names, in slice order.
DEM, MSM, P2P, BBM, RM = "DEM", "MSM", "P2P", "BBM", "RM"
MICROPHASES = (DEM, MSM, P2P, BBM, RM)


@dataclass(slots=True)
class Strobe:
    """One microstrobe delivered to a Strobe Receiver.

    ``done`` is shared by every receiver of the same microphase: each SR
    counts it down once, and the Strobe Sender resumes when the last
    participant reports in.
    """

    phase: str
    slice_no: int
    payload: Any
    done: Latch


class StrobeReceiver:
    """SR: per-node dispatcher waking NIC threads per microphase."""

    def __init__(self, nrt: "NodeRuntime"):
        self.nrt = nrt
        #: Pending event the next microstrobe triggers with its
        #: :class:`Strobe`; the Strobe Sender wakes every participant of
        #: a microphase through one ``trigger_all``.
        self.wake = nrt.env.event()
        #: Microphases this receiver has run and reported (reference
        #: engine; the fast engine's Strobe Sender reports for every
        #: participant at once, planned microphases included).
        self.completed_phases = 0
        self._proc = nrt.env.process(self._run(), name=f"SR{nrt.node_id}")

    def _run(self):
        nrt = self.nrt
        fast = nrt.runtime.fast
        agents = nrt.runtime.agents[nrt.node_id]
        handlers = {
            DEM: lambda s: self._dem(agents),
            MSM: lambda s: agents.br.msm_phase(),
            P2P: lambda s: agents.dh.p2p_phase(s.payload),
            BBM: lambda s: agents.ch.bbm_phase(),
            RM: lambda s: agents.rh.rm_phase(),
        }
        env = nrt.env
        while True:
            strobe = yield self.wake
            self.wake = env.event()
            t0 = env.now
            yield from handlers[strobe.phase](strobe)
            # Report completion in global memory; the SS's
            # Compare-And-Write tests this counter.  Under the fast
            # engine the SS performs one batched arena increment for the
            # whole participant set instead of this per-node write — the
            # array-backed slot ends up with the identical value.
            if not fast:
                self.completed_phases += 1
                nrt.runtime.core.gas.write(
                    nrt.node_id, "mphase_done", self.completed_phases
                )
            obs = nrt.runtime.obs
            if obs is not None:
                obs.events.append(
                    (env.now, "node_phase", nrt.node_id, strobe.slice_no, strobe.phase, t0)
                )
            strobe.done.count_down()

    def _dem(self, agents):
        yield from agents.bs.dem_phase()
        yield from agents.br.dem_phase()


class _Plan:
    """A planned stretch of a slice (docs/PERFORMANCE.md, "Planned
    slices"): NIC clocks and link halves booked on private copies, and
    ``entries``, ``(key, items)`` per simulated heap entry keyed by its
    place in the engine's order, ``(instant, key of the entry that
    created it, creation index)``.  An item is a log record (a tuple,
    kept only with a hub) or an effect (a callable); ``landings`` holds
    the effects ranks can observe.  Nothing touches the run before
    :meth:`commit`; a clear ``ok`` means the stretch must be simulated.
    """

    __slots__ = (
        "logging", "ok", "fabric", "nics", "entries", "landings",
        "_times", "_busy", "_claims", "_holds", "_sizes",
    )

    def __init__(self, runtime: "BcsRuntime", nics: "_Nics", times: dict):
        self.logging = runtime.obs is not None
        self.ok = True
        self.fabric = runtime.cluster.fabric
        self.nics = nics
        self._times = times
        self.entries: list = []
        self.landings: list = []
        self._busy: Dict[int, int] = {}
        self._claims: Dict[Link, list] = {}
        self._holds: list = []
        self._sizes: list = []

    def entry(self, key: tuple, *items) -> None:
        self.entries.append((key, items))

    def reserve(self, node: int, t: int, duration: int, n: int = 1) -> tuple:
        """:meth:`Nic.reserve` at ``t``; returns the booking's ``(start, end)``."""
        busy = self._busy.get(node)
        if busy is None:
            busy = self.nics[node].busy_until
        start = busy if busy > t else t
        end = self._busy[node] = start + duration * n
        return start, end

    def local_copy(self, node: int, t: int, cost: int, size: int) -> tuple:
        """:meth:`Fabric.local_copy` at ``t``; returns ``(hold start, landing)``."""
        start, end = self.reserve(node, t, cost)
        self._sizes.append(size)
        return start, end + self.fabric.copy_time(size)

    def transfer(self, src: int, dst: int, size: int, t: int) -> int:
        """:meth:`Fabric.transfer` at ``t``, uncontended; returns its landing."""
        route = (src, dst, size)
        known = self._times.get(route)
        if known is None:
            known = self._times[route] = (
                *self.fabric.transfer_times(src, dst, size),
                (self.nics[src].tx, self.nics[dst].rx),
            )
        hold, rest, group = known
        end = t + hold
        for link in group:
            claims = self._claims.get(link)
            if claims is None:
                self.ok = self.ok and link.free_before(t)
                self._claims[link] = [(t, end)]
            else:
                # Touching or overlapping claims might contend.
                if any(t0 <= end and t <= t1 for t0, t1 in claims):
                    self.ok = False
                claims.append((t, end))
        self._holds.append((group, end))
        self._sizes.append(size)
        return end + rest

    def commit(self, runtime: "BcsRuntime") -> None:
        nics = self.nics
        for node, t in self._busy.items():
            nics[node].busy_until = t
        self._holds.sort(key=_second)
        for group, t in self._holds:
            Link.hold(group, t)
        self.fabric.transfers += len(self._sizes)
        self.fabric.bytes_moved += sum(self._sizes)
        entries = self.entries
        if self.logging:
            entries.sort(key=_first)
            append = runtime.obs.events.append
        for _key, items in entries:
            for item in items:
                if type(item) is tuple:
                    append(item)
                else:
                    item()
        env = runtime.env
        t = None
        for key, effect in sorted(self.landings, key=_first):
            if key[0] != t:
                t = key[0]
                effects = []
                Timeout(env, t - env.now).callbacks.append(partial(_apply, effects))
            effects.append(effect)


class _Nics(dict):
    """Node id -> NIC, read once from the fabric's lazy NIC view."""

    def __init__(self, view):
        super().__init__()
        self._view = view

    def __missing__(self, node: int):
        nic = self[node] = self._view[node]
        return nic


_first = itemgetter(0)
_second = itemgetter(1)


def _apply(effects: list, _event) -> None:
    for effect in effects:
        effect()


class StrobeSender:
    """SS: the management-node NIC thread driving the slice machine."""

    def __init__(self, runtime: "BcsRuntime"):
        self.runtime = runtime
        self.env = runtime.env
        self._proc = None
        # Reusable microphase plumbing: one latch, one strobe record and
        # two timeouts serve every microphase of every slice.  Safe
        # because the SS is the only holder across cycles —
        # it always yields the latch/timeouts to completion before
        # re-arming, and every receiver drops its strobe reference at
        # count_down time.
        self._latch = ReusableLatch(self.env)
        self._strobe = Strobe("", 0, None, self._latch)
        self._empty_phase = ReusableTimeout(self.env)
        self._sleep = ReusableTimeout(self.env)
        # Microstrobe duration, cached per active-set size.
        self._strobe_n = -1
        self._strobe_latency = 0
        # The duration for the whole machine: once it is reached, no
        # launch can change the microstrobe duration any more.
        self._full_latency = runtime.cluster.fabric.strobe_latency(
            runtime.config.strobe_bytes, runtime.cluster.n_compute_nodes
        )
        # A planned P2P leaves its last sr_idle_until step (from RM's
        # start) and the retirement of its matches to the slice-end wake.
        self._idle_from: Optional[int] = None
        self._retire_due = False
        # Planner lookups: NICs, and (src, dst, size) -> (hold, rest, halves).
        self._nics = _Nics(runtime.cluster.fabric.nics)
        self._times: Dict[tuple, tuple] = {}

    def start(self) -> None:
        """Launch the strobe loop (idempotent)."""
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.env.process(self._run(), name="SS")

    def _run(self):
        runtime = self.runtime
        env = self.env
        timeslice = runtime.config.timeslice
        node_runtimes = runtime.node_runtimes
        hooks = runtime.on_slice_start
        fast = runtime.fast
        slice_waiters = runtime._slice_waiters

        while not runtime.stopped:
            start = env.now
            runtime.slice_no += 1
            runtime.stats["slices"] += 1
            runtime.slice_start_time = start
            if hooks:
                hooks.fire(runtime.slice_no)
            # Slice boundary: the NM restarts processes whose blocking
            # operations completed during the previous slice.  The fast
            # engine pulses only signals with waiters (ascending node
            # id — the historical wake order); the reference engine
            # keeps the original full-broadcast loop over every node.
            # All their waiters wake through one heap entry, in the order
            # node-by-node pulses would wake them.
            if fast:
                pulsed = [node_runtimes[n] for n in sorted(slice_waiters)]
            else:
                pulsed = node_runtimes
            woken = []
            for nrt in pulsed:
                woken += nrt.slice_start.take_waiters()
            env.trigger_all(woken, runtime.slice_no)
            slice_waiters.clear()

            # Idle short-circuit: settle ``active`` before the slice's
            # log entry.  slice_work() only reads queues (and prunes the
            # runtime's lazy sets), so sampling it ahead of the queue
            # depths is observationally identical to the historical
            # order.  It also answers the DEM node query in the same
            # pass — there is no yield point between here and the DEM
            # microphase, so the two-call sequence it replaces saw the
            # exact same state.
            active, dem_nodes = runtime.slice_work()
            obs = runtime.obs
            if obs is not None:
                obs.events.append(
                    (start, "slice_begin", runtime.slice_no)
                    + runtime.queue_depths()
                    + runtime.matcher_pending_totals()
                )

            # The fast engine plans what it can prove exact; a hook may
            # create work at any boundary, so hooks switch planning off.
            plan = fast and not hooks
            if active:
                runtime.stats["active_slices"] += 1
                work_end = yield from self._active(start, dem_nodes, plan)
            else:
                work_end = start

            if work_end - start < timeslice:
                end = start + timeslice
                overrun = False
                if plan and not active and not runtime.idle():
                    end = self._plan_idle(start, end)
                    start = end - timeslice
            else:
                runtime.stats["slice_overruns"] += 1
                overrun = True
                end = work_end
            if end > env.now:
                yield self._sleep_until(end)
            if self._retire_due:
                self._retire(log=False)
            if obs is not None:
                obs.events.append(
                    (env.now, "slice_end", runtime.slice_no, start, active, overrun)
                )
            if runtime.idle():
                return

    def _plan_idle(self, start: int, end: int) -> int:
        """The plan of a slice with no descriptors: the boundary to wake at.

        Cluster state cannot change before the next queued entry, so
        every boundary before it replays this idle slice verbatim; those
        slices are skipped in one sleep and logged as the reference
        engine logs them (empty queues, frozen matcher totals).
        """
        runtime = self.runtime
        timeslice = runtime.config.timeslice
        t_next = self.env.peek()
        if t_next is None or t_next <= end:
            return end
        skipped = -(-(t_next - start) // timeslice) - 1
        first = runtime.slice_no
        runtime.slice_no += skipped
        runtime.stats["slices"] += skipped
        runtime.stats["idle_slices_skipped"] += skipped
        obs = runtime.obs
        if obs is not None:
            totals = runtime.matcher_pending_totals()
            for i in range(skipped):
                t = end + i * timeslice
                obs.events.append((t, "slice_end", first + i, t - timeslice, False, False))
                obs.events.append((t, "slice_begin", first + i + 1, 0, 0, 0, 0) + totals)
        return end + skipped * timeslice

    def _active(self, start: int, dem_nodes: List[int], plan: bool):
        """An active slice's microphases, planned when exact and simulated
        otherwise; returns the slice's work end.  DEM is planned at its
        microstrobe, after the ranks the boundary restarted have posted
        (at once if it has no participants), MSM and P2P with it; P2P
        alone at MSM's end if DEM and MSM were simulated."""
        runtime = self.runtime
        cfg = runtime.config
        began = None
        if plan:
            if dem_nodes:
                obs = runtime.obs
                if obs is not None:
                    obs.events.append(
                        (start, "phase_begin", runtime.slice_no, DEM, len(dem_nodes))
                    )
                latency = self.strobe_latency()
                runtime.sr_idle_until = start + latency
                yield self._sleep.rearm(latency)
                began = start
            msm_end = self._plan_exchange(start, dem_nodes)
            if msm_end is not None:
                granted = self._grant(msm_end)
                work_end = self._plan_transmit(granted, msm_end)
                if work_end is not None:
                    return work_end
                yield self._sleep.rearm(msm_end - self.env.now)
                return (yield from self._transmit(granted))
        yield from self._microphase(DEM, dem_nodes, cfg.dem_min_duration, began=began)
        yield from self._microphase(MSM, runtime.msm_nodes(), cfg.msm_min_duration)
        granted = self._grant(self.env.now)
        if plan and self._plannable():
            work_end = self._plan_transmit(granted, self.env.now)
            if work_end is not None:
                return work_end
        return (yield from self._transmit(granted))

    def _grant(self, t: int) -> list:
        """MSM's end at ``t``: collect the matches and grant this slice's
        chunks."""
        runtime = self.runtime
        granted = runtime.global_schedule()
        obs = runtime.obs
        if obs is not None:
            scheduler = runtime.scheduler
            obs.events.append((
                t,
                "grant",
                scheduler.backlog_bytes,
                len(scheduler.in_flight),
                tuple((m.send.desc_id, m.src_node, m.scheduled_now) for m in granted),
            ))
        return granted

    def _transmit(self, granted: list):
        """Simulate P2P, BBM and RM from now; returns the slice's work end."""
        runtime = self.runtime
        env = self.env
        yield from self._microphase(
            P2P, sorted({m.dst_node for m in granted}), 0, payload=granted
        )
        self._retire(log=True)
        # RM's participants are read after BBM, except behind an
        # empty BBM, which no receiver runs and which leaves them
        # as they are.
        bbm = runtime.bbm_nodes()
        rm = None if bbm else runtime.rm_nodes()
        if bbm or rm or self.strobe_latency() != self._full_latency:
            yield from self._microphase(BBM, bbm, 0)
            yield from self._microphase(RM, runtime.rm_nodes() if rm is None else rm, 0)
            return env.now
        if runtime.obs is not None:
            runtime.obs.events.extend(self._empty_tail(env.now))
        return env.now + 2 * self._strobe_latency

    def _retire(self, log: bool) -> None:
        """Drop the matches P2P finished; with ``log``, log them now."""
        runtime = self.runtime
        self._retire_due = False
        retired = runtime.scheduler.retire_finished()
        if retired and log and runtime.obs is not None:
            runtime.obs.events.append(
                (self.env.now, "retire", tuple(m.send.desc_id for m in retired))
            )
        if retired and runtime.fast:
            # A retired match was the last holder of its pair of
            # descriptors (requests are completed at delivery and
            # owned by the application): recycle them.
            pools = runtime.pools
            for m in retired:
                pools.release_send(m.send)
                pools.release_recv(m.recv)

    def _plannable(self) -> bool:
        """May the rest of the slice be planned?  No launch can change the
        microstrobe latency, no collective is in flight, no other client
        shares the fabric, and every NIC booking is an entry of its own."""
        runtime = self.runtime
        return (
            self.strobe_latency() == self._full_latency
            and runtime.config.nic_descriptor_cost > 0
            and not runtime.cluster.fabric.shared
            and not runtime.collectives_pending()
        )

    def _plan_phase(self, plan, phase, t0, begin, nodes, node_plan, min_duration):
        """Book a microphase begun at ``t0`` in the entry keyed ``begin``:
        microstrobe, each node's part (``node_plan(node, t, fan-out key,
        creation index) -> (end, entry key, next index)``) and latch.
        Returns its end and the key of the entry that ends it."""
        latency = self._strobe_latency
        slice_no = self.runtime.slice_no
        if not nodes:
            end = t0 + max(latency, min_duration)
            done = (end, begin, 0)
        else:
            t_strobe = t0 + latency
            fanout = (t_strobe, begin, 0)
            index = 0
            done = None
            for node in nodes:
                t, key, index = node_plan(node, t_strobe, fanout, index)
                if plan.logging:
                    plan.entry(key, (t, "node_phase", node, slice_no, phase, t_strobe))
                if done is None or key > done:
                    done = key
            n = len(nodes)
            end = max(done[0] + self.runtime.cluster.fabric.model.cw_latency(n), t0 + min_duration)
            done = (end, done, 0)
        if plan.logging:
            plan.entry(done, (end, "phase", slice_no, phase, end - t0))
        return end, done

    def _plan_exchange(self, start: int, dem_nodes: List[int]) -> Optional[int]:
        """Plan DEM and MSM now; returns MSM's end, or None to simulate.
        Matching moves descriptors early, so the ranks that could see
        them (``probe``, ``cancel_recv``) must be quiet past each move."""
        # The DEM strobe came one latency after the boundary, unless a
        # launch has changed the latency since.
        latency_kept = not dem_nodes or self.env.now - start == self.strobe_latency()
        if not (latency_kept and self._plannable()):
            return None
        runtime = self.runtime
        cfg = runtime.config
        agents = runtime.agents
        quiet_until = runtime.rank_quiet_until
        slice_no = runtime.slice_no
        plan = _Plan(runtime, self._nics, self._times)
        arrivals: Dict[int, list] = {}
        drains = []

        def dem(node, t, fanout, index):
            nrt = runtime.node_runtimes[node]
            n_sends = posted_before(nrt.posted_sends, start)
            n_recvs = posted_before(nrt.posted_recvs, start)
            n_colls = posted_before(nrt.posted_colls, start)
            drains.append((nrt, n_sends, n_recvs))
            recvs = nrt.posted_recvs[:n_recvs]
            a = agents[node]
            sent = a.bs.plan_dem(plan, nrt.posted_sends[:n_sends], t, fanout, index, arrivals)
            t, key, _ = a.br.plan_batch(plan, recvs, a.br._match_recvs, *sent)
            if n_colls or any(quiet_until(r.job_id, r.comm_id, r.rank) <= t for r in recvs):
                plan.ok = False
            return t, key, index + 1

        def msm(node, t, fanout, index):
            got = arrivals[node]
            got.sort(key=_first)
            sends = [desc for _key, desc in got]
            br = agents[node].br
            t, key, _ = br.plan_batch(plan, sends, br._match_sends, t, fanout, index)
            if any(quiet_until(s.job_id, s.comm_id, s.dst_rank) <= t for s in sends):
                plan.ok = False
            return t, key, index + 1

        begin = (start, (), 0)
        if plan.logging and not dem_nodes:
            plan.entry(begin, (start, "phase_begin", slice_no, DEM, 0))
        t_msm, done = self._plan_phase(
            plan, DEM, start, begin, dem_nodes, dem, cfg.dem_min_duration
        )
        msm_nodes = sorted(arrivals)
        if plan.logging:
            plan.entry(done, (t_msm, "phase_begin", slice_no, MSM, len(msm_nodes)))
        msm_end, _ = self._plan_phase(
            plan, MSM, t_msm, done, msm_nodes, msm, cfg.msm_min_duration
        )
        if not plan.ok:
            return None
        for nrt, n_sends, n_recvs in drains:
            del nrt.posted_sends[:n_sends]
            del nrt.posted_recvs[:n_recvs]
        plan.commit(runtime)
        runtime.stats["descriptors_exchanged"] += sum(map(len, arrivals.values()))
        gas = runtime.core.gas
        for nodes in (dem_nodes, msm_nodes):
            if nodes:
                gas.increment_batch(nodes, "mphase_done")
        if not dem_nodes:
            runtime.sr_idle_until = t_msm
        msm_idle = t_msm + self._strobe_latency if msm_nodes else msm_end
        runtime._sr_idle += ((t_msm, msm_idle),)
        return msm_end

    def _plan_transmit(self, granted: list, t_p2p: int) -> Optional[int]:
        """Plan P2P, BBM and RM from MSM's end ``t_p2p`` (now, or ahead
        with DEM and MSM, which :meth:`_plannable` then covers); returns
        the slice's work end, or None to simulate."""
        runtime = self.runtime
        agents = runtime.agents
        mine: Dict[int, list] = {}
        for m in granted:
            mine.setdefault(m.dst_node, []).append(m)
        nodes = sorted(mine)
        plan = _Plan(runtime, self._nics, self._times)

        def p2p(node, t, fanout, index):
            return agents[node].dh.plan_p2p(plan, mine[node], t, fanout, index)

        begin = (t_p2p, (), 0)
        if plan.logging:
            plan.entry(begin, (t_p2p, "phase_begin", runtime.slice_no, P2P, len(nodes)))
        end, done = self._plan_phase(plan, P2P, t_p2p, begin, nodes, p2p, 0)
        if not plan.ok:
            return None
        if plan.logging:
            retired = tuple(
                m.send.desc_id
                for m in runtime.scheduler.in_flight
                if m.bytes_done + m.scheduled_now >= m.total_bytes
            )
            if retired:
                plan.entry(done, (end, "retire", retired))
            plan.entry(done, *self._empty_tail(end))
        plan.commit(runtime)
        if nodes:
            runtime.core.gas.increment_batch(nodes, "mphase_done")
        runtime._sr_idle += ((t_p2p, t_p2p + self._strobe_latency),)
        self._idle_from = end
        self._retire_due = True
        return end + 2 * self._strobe_latency

    def strobe_latency(self) -> int:
        """Duration of a microstrobe to the current active set.

        One tree-shaped multicast to every active node, cached until the
        active set changes size.  The active-node list is kept sorted
        and deduplicated by the runtime, so its length is the
        destination count.
        """
        runtime = self.runtime
        n_active = len(runtime.active_node_ids)
        if n_active != self._strobe_n:
            self._strobe_n = n_active
            self._strobe_latency = (
                runtime.cluster.fabric.strobe_latency(runtime.config.strobe_bytes, n_active)
                if n_active
                else 0
            )
        return self._strobe_latency

    def _sleep_until(self, t: int):
        """The Strobe Sender's wake-up at ``t``; no receiver runs before
        it (from RM's start when P2P was planned)."""
        runtime = self.runtime
        if self._idle_from is None:
            runtime.sr_idle_until = t
        else:
            runtime._sr_idle += ((self._idle_from, t),)
            self._idle_from = None
        return self._sleep.rearm(t - self.env.now)

    def _empty_tail(self, t: int) -> list:
        """The log of BBM and RM without participants, from ``t``.

        Each would be one timeout of the microstrobe latency (see
        :meth:`_microphase`); instead the slice-end sleep covers them.
        Only taken when no launch can change the latency before RM
        starts (the active set already has the whole machine's
        microstrobe duration).
        """
        latency = self._strobe_latency
        slice_no = self.runtime.slice_no
        entries = []
        for phase in (BBM, RM):
            entries.append((t, "phase_begin", slice_no, phase, 0))
            entries.append((t + latency, "phase", slice_no, phase, latency))
            t += latency
        return entries

    def _microphase(
        self, phase: str, nodes: List[int], min_duration: int, payload=None, began=None
    ):
        """Strobe, dispatch, await completion, CaW-confirm, pad.

        ``nodes`` is the set with actual work; nodes outside it would run
        an empty handler and complete at strobe time, so they are not
        simulated (the strobe itself is still a full multicast).

        The whole chain costs two heap entries: the microstrobe fan-out,
        scheduled one multicast latency ahead, and the microphase latch,
        whose completion delay charges the Compare-And-Write's network
        conditional and the minimum duration.  A microphase without
        participants is one timeout.  A phase that ``began`` earlier
        (logged then, and the Strobe Sender slept in its fan-out's place)
        has its microstrobe due now.
        """
        runtime = self.runtime
        env = self.env
        latency = self.strobe_latency()
        due = began is not None
        t0 = began if due else env.now
        obs = runtime.obs
        if obs is not None and not due:
            obs.events.append((t0, "phase_begin", runtime.slice_no, phase, len(nodes)))

        if nodes:
            # One latch shared by all participants: the SS resumes when
            # the count reaches zero, without an N-event AllOf fan-in.
            # Its completion delay is the Compare-And-Write's conditional
            # round over the participants, and the latch never fires
            # before the microphase's minimum duration has passed.
            # The latch and strobe record are re-armed in place — every
            # receiver drops its reference at count_down time, and the SS
            # yields the latch to completion before the next microphase,
            # so nothing can observe the reuse.
            cw = runtime.cluster.fabric.model.cw_latency(len(nodes))
            done = self._latch.rearm(
                len(nodes), delay=cw, not_before=t0 + min_duration
            )
            strobe = self._strobe
            strobe.phase = phase
            strobe.slice_no = runtime.slice_no
            strobe.payload = payload
            # One multicast microstrobe: a single heap entry, one strobe
            # latency from now, wakes every participant's SR in ``nodes``
            # order.
            receivers = runtime.receivers
            wakes = [receivers[n].wake for n in nodes]
            if due:
                env.fire_all(wakes, strobe)
            else:
                env.trigger_all(wakes, strobe, delay=latency)
                runtime.sr_idle_until = t0 + latency
            yield done
            if runtime.fast:
                # Batched completion report: every participant finished
                # exactly one microphase, so one arena-wide increment
                # replaces the per-node ``gas.write`` loop the receivers
                # perform under the reference engine (same counters, same
                # values at the Compare-And-Write below).
                runtime.core.gas.increment_batch(nodes, "mphase_done")
            # SS verifies global completion with a Compare-And-Write on
            # the per-node microphase counters; the latch already charged
            # its conditional round.
            runtime.core.evaluate_conditional(nodes, "mphase_done", ">=", 0, default=0)
        else:
            wait = max(latency, min_duration)
            runtime.sr_idle_until = t0 + wait
            if wait:
                yield self._empty_phase.rearm(wait)

        if obs is not None:
            obs.events.append((env.now, "phase", runtime.slice_no, phase, env.now - t0))
