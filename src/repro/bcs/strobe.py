"""The global synchronization protocol (paper §4.2, Figure 5).

The **Strobe Sender** (SS), a NIC thread on the management node, drives
every time slice: it multicasts a *microstrobe* at the beginning of each
microphase, and before moving on checks that all nodes completed the
current microphase with a ``Compare-And-Write``.  The **Strobe Receiver**
(SR) on each compute node wakes the local NIC threads that must be active
in the new microphase and reports completion on the microphase's latch,
whose completion delay charges the Compare-And-Write's round.

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

from ..sim import Event, Latch, Link, Timeout
from .descriptors import posted_before

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import BcsRuntime
    from .threads import NodeRuntime

#: Microphase names, in slice order.
DEM, MSM, P2P, BBM, RM = "DEM", "MSM", "P2P", "BBM", "RM"
MICROPHASES = (DEM, MSM, P2P, BBM, RM)


@dataclass(slots=True)
class Strobe:
    """One microstrobe, delivered to every participant's Strobe Receiver
    at ``at``.

    ``done`` is shared by every receiver of the same microphase: each SR
    counts it down once, and the Strobe Sender resumes when the last
    participant reports in.
    """

    phase: str
    slice_no: int
    payload: Any
    done: Latch
    at: int


class StrobeReceiver:
    """SR: per-node event handler running the NIC threads per microphase.

    As a NIC thread in the paper, it runs only when an event fires: the
    microstrobe fan-out calls :meth:`on_strobe`, which starts the phase's
    body (generators of the node's NIC threads), and each event the body
    yields resumes it from its callback, by :meth:`Process._resume`'s
    rules.  It holds its strobe and body only while the phase runs, and
    owns no process and no event.
    """

    __slots__ = ("nrt", "_strobe", "_body")

    def __init__(self, nrt: "NodeRuntime"):
        self.nrt = nrt
        self._strobe: Optional[Strobe] = None
        self._body = None

    def on_strobe(self, strobe: Strobe) -> None:
        """Start this node's part of ``strobe``'s microphase."""
        nrt = self.nrt
        phase = strobe.phase
        if phase == DEM:
            body = self._dem(nrt)
        elif phase == MSM:
            body = nrt.br.msm_phase()
        elif phase == P2P:
            body = nrt.dh.p2p_phase(strobe.payload[nrt.node_id])
        elif phase == BBM:
            body = nrt.ch.bbm_phase()
        else:
            body = nrt.rh.rm_phase()
        self._strobe = strobe
        self._body = body
        self._resume(_START)

    def _resume(self, event) -> None:
        """Step the body with ``event``'s outcome; at its end, report in."""
        try:
            if event._ok:
                target = self._body.send(event._value)
            else:
                # The exception is being delivered; mark it handled.
                event.defuse()
                target = self._body.throw(event._value)
        except StopIteration:
            strobe = self._strobe
            self._strobe = self._body = None
            nrt = self.nrt
            obs = nrt.runtime.obs
            if obs is not None:
                obs.events.append((
                    nrt.env.now, "node_phase", nrt.node_id, strobe.slice_no, strobe.phase,
                    strobe.at,
                ))
            strobe.done.count_down()
            return
        if target.callbacks is None:
            # Already processed: resume on a fresh event carrying its value.
            carry = Event(self.nrt.env, name=f"carry:SR{self.nrt.node_id}")
            carry.callbacks.append(self._resume)
            carry.trigger(target)
        else:
            target.callbacks.append(self._resume)

    @staticmethod
    def _dem(nrt):
        yield from nrt.bs.dem_phase()
        yield from nrt.br.dem_phase()


class _Start:
    """The outcome that starts a body: ``send(None)``."""

    __slots__ = ()
    _ok = True
    _value = None


_START = _Start()


def _fan_out(receivers: list, strobe: Strobe, _event=None) -> None:
    """The microstrobe's arrival: start each receiver in order."""
    for sr in receivers:
        sr.on_strobe(strobe)


class _Plan:
    """What a planned stretch of a slice books (docs/PERFORMANCE.md,
    "Planned slices"), on private copies of the NIC clocks and link
    halves; nothing touches the run before :meth:`commit`.

    ``entries`` holds ``(key, items)`` per simulated heap entry with an
    effect (a callable) or, with a hub, log records (tuples), keyed by
    its place in the engine's order: ``(instant, key of the entry that
    created it, creation index)``.  ``landings`` holds ``(key, effect)``
    for what ranks can observe.
    """

    __slots__ = (
        "logging", "cost", "routes", "busy", "claims", "holds", "entries", "landings"
    )

    def __init__(self, logging: bool, cost: int, routes: dict):
        self.logging = logging
        self.cost = cost
        self.routes = routes
        self.busy: Dict[Any, int] = {}
        self.claims: Dict[Link, list] = {}
        self.holds: list = []
        self.entries: list = []
        self.landings: list = []

    def move(self, nic, src: int, dst: int, size: int, t: int, key: tuple, index: int):
        """``nic``'s hold booked at ``t`` (as :meth:`Nic.reserve`), the
        ``index``-th entry created by entry ``key``, then a copy or
        transfer from ``src`` to ``dst``: ``(landing, its entry key)``, or
        None when a link half is not free before the transfer or another
        booking's claim touches or overlaps it, which might contend."""
        busy = self.busy.get(nic, nic.busy_until)
        held = busy if busy > t else t
        end = self.busy[nic] = held + self.cost
        hold, rest, group = self.routes[src, dst, size]
        if group:
            claims = self.claims
            for link in group:
                booked = claims.get(link)
                if booked is None:
                    if not link.free_before(end):
                        return None
                    claims[link] = [(end, end + hold)]
                else:
                    for t0, t1 in booked:
                        if t0 <= end + hold and end <= t1:
                            return None
                    booked.append((end, end + hold))
            self.holds.append((group, end + hold))
            held_key = (end, key, index)
            key = (end + hold + rest, held_key, 0)
        else:
            key = held_key = (end + hold, key, index)
        if self.logging:
            self.entries.append((held_key, nic.spans(held, self.cost)))
        return key[0], key

    def commit(self, runtime: "BcsRuntime") -> None:
        for nic, t in self.busy.items():
            nic.busy_until = t
        self.holds.sort(key=_second)
        for group, t in self.holds:
            Link.hold(group, t)
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
        # Planner lookups: routes (the fabric's cache), and the
        # Compare-And-Write latency per participant count.
        self._routes = runtime.cluster.fabric.routes
        self._cw: Dict[int, int] = {}

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
                # A snapshot: a hook may add or remove hooks while firing.
                for hook in tuple(hooks):
                    hook(runtime.slice_no)
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
                self._retire()
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
        otherwise; returns the slice's work end.  DEM, MSM and P2P are
        planned at the boundary if no entry is left at its instant (no
        rank can post before DEM drains), else at the DEM microstrobe."""
        runtime = self.runtime
        cfg = runtime.config
        began = None
        if plan:
            if dem_nodes and self.env.peek() == start:
                obs = runtime.obs
                if obs is not None:
                    obs.events.append(
                        (start, "phase_begin", runtime.slice_no, DEM, len(dem_nodes))
                    )
                latency = self.strobe_latency()
                runtime.sr_idle_until = start + latency
                yield Timeout(self.env, latency)
                began = start
            msm_end = self._plan_exchange(start, dem_nodes)
            if msm_end is not None:
                mine = self._grant(msm_end)
                work_end = self._plan_transmit(mine, msm_end)
                if work_end is not None:
                    return work_end
                yield Timeout(self.env, msm_end - self.env.now)
                return (yield from self._transmit(mine))
        yield from self._microphase(DEM, dem_nodes, cfg.dem_min_duration, began=began)
        yield from self._microphase(MSM, runtime.msm_nodes(), cfg.msm_min_duration)
        return (yield from self._transmit(self._grant(self.env.now)))

    def _grant(self, t: int) -> Dict[int, list]:
        """MSM's end at ``t``: collect the matches and grant this slice's
        chunks, grouped by destination node (in grant order)."""
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
        mine: Dict[int, list] = {}
        for m in granted:
            mine.setdefault(m.dst_node, []).append(m)
        return mine

    def _transmit(self, mine: Dict[int, list]):
        """Simulate P2P, BBM and RM from now, each DMA Helper moving its
        node's chunks of ``mine``; returns the slice's work end."""
        runtime = self.runtime
        env = self.env
        yield from self._microphase(P2P, sorted(mine), 0, payload=mine)
        self._retire()
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

    def _retire(self) -> None:
        """Drop the matches P2P finished."""
        self._retire_due = False
        self.runtime.scheduler.retire_finished()

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

    def _phase_end(self, t0: int, last: tuple, n: int, min_duration: int) -> tuple:
        """``(end, key)`` of the latch of a microphase begun at ``t0`` whose
        ``n`` participants last finished in the entry keyed ``last`` (the
        entry that began it, without participants)."""
        if not n:
            end = t0 + max(self._strobe_latency, min_duration)
        else:
            if n not in self._cw:
                self._cw[n] = self.runtime.cluster.fabric.model.cw_latency(n)
            end = max(last[0] + self._cw[n], t0 + min_duration)
        return end, (end, last, 0)

    def _plan_exchange(self, start: int, dem_nodes: List[int]) -> Optional[int]:
        """Plan DEM and MSM at the boundary ``start`` or at the DEM
        microstrobe; returns MSM's end, or None to simulate.  Matching
        moves descriptors early, so the ranks that could see them
        (``iprobe``, ``cancel``) must be quiet past each move."""
        # At the microstrobe, it came one latency after the boundary,
        # unless a launch has changed the latency since.
        elapsed = self.env.now - start
        if elapsed and elapsed != self.strobe_latency() or not self._plannable():
            return None
        runtime = self.runtime
        cfg = runtime.config
        cost = cfg.nic_descriptor_cost
        size = cfg.descriptor_bytes
        slice_no = runtime.slice_no
        logging = runtime.obs is not None
        comms = runtime.comms
        handles = runtime.rank_handles
        rts = runtime.node_runtimes
        plan = _Plan(logging, cost, self._routes)
        entries = plan.entries
        arrivals: Dict[int, list] = {}
        drains = []

        begin = (start, (), 0)
        if logging and not elapsed:
            entries.append((begin, [(start, "phase_begin", slice_no, DEM, len(dem_nodes))]))
        t_dem = start + self._strobe_latency
        fanout = (t_dem, begin, 0)
        last = begin
        for index, node in enumerate(dem_nodes):
            nrt = rts[node]
            br = nrt.br
            nic = nrt.nic
            if posted_before(nrt.posted_colls, start):
                return None
            n_sends = posted_before(nrt.posted_sends, start)
            n_recvs = posted_before(nrt.posted_recvs, start)
            drains.append((nrt, n_sends, n_recvs))
            t, key, i = t_dem, fanout, index
            # Buffer Sender: each send's hold, then its copy or transfer,
            # which the next send waits for.
            for desc in nrt.posted_sends[:n_sends]:
                world = comms[desc.job_id][desc.comm_id].world_ranks[desc.dst_rank]
                dst = desc.dst_node
                landed = plan.move(nic, node, dst, size, t, key, i)
                if landed is None:
                    return None
                t, key = landed
                i = 0
                if logging:
                    entries.append((key, [
                        (t, "unicast", node, dst, size, "desc"),
                        (t, "exchange", desc.desc_id, node, dst),
                    ]))
                arrivals.setdefault(dst, []).append((key, desc, handles[desc.job_id][world]))
            # Buffer Receiver: one hold over the receives, then matching.
            if n_recvs:
                recvs = nrt.posted_recvs[:n_recvs]
                b = plan.busy.get(nic, nic.busy_until)
                held = b if b > t else t
                t = plan.busy[nic] = held + cost * n_recvs
                key = (t, key, i)
                effect = partial(br._match, nrt.matcher.add_recv_batch, recvs, t)
                if logging:
                    entries.append((key, [*nic.spans(held, cost, n_recvs), effect]))
                else:
                    entries.append((key, (effect,)))
                for r in recvs:
                    world = comms[r.job_id][r.comm_id].world_ranks[r.rank]
                    if handles[r.job_id][world].quiet_until <= t:
                        return None
            if logging:
                entries.append((key, [(t, "node_phase", node, slice_no, DEM, t_dem)]))
            if key > last:
                last = key
        t_msm, done = self._phase_end(start, last, len(dem_nodes), cfg.dem_min_duration)

        msm_nodes = sorted(arrivals)
        if logging:
            entries.append((done, [
                (t_msm, "phase", slice_no, DEM, t_msm - start),
                (t_msm, "phase_begin", slice_no, MSM, len(msm_nodes)),
            ]))
        t = t_msm + self._strobe_latency
        fanout = (t, done, 0)
        last = done
        for index, node in enumerate(msm_nodes):
            got = arrivals[node]
            got.sort(key=_first)
            nrt = rts[node]
            br = nrt.br
            nic = nrt.nic
            b = plan.busy.get(nic, nic.busy_until)
            held = b if b > t else t
            b = plan.busy[nic] = held + cost * len(got)
            key = (b, fanout, index)
            sends = [desc for _key, desc, _rank in got]
            effect = partial(br._match, nrt.matcher.add_send_batch, sends, b)
            entries.append((key, [
                *nic.spans(held, cost, len(got)),
                effect,
                (b, "node_phase", node, slice_no, MSM, t),
            ] if logging else (effect,)))
            for _key, _desc, rank in got:
                if rank.quiet_until <= b:
                    return None
            if key > last:
                last = key
        msm_end, done = self._phase_end(t_msm, last, len(msm_nodes), cfg.msm_min_duration)
        if logging:
            entries.append((done, [(msm_end, "phase", slice_no, MSM, msm_end - t_msm)]))

        for nrt, n_sends, n_recvs in drains:
            del nrt.posted_sends[:n_sends]
            del nrt.posted_recvs[:n_recvs]
        plan.commit(runtime)
        runtime.stats["descriptors_exchanged"] += sum(n for _nrt, n, _r in drains)
        if not elapsed:
            runtime.sr_idle_until = t_dem if dem_nodes else t_msm
        runtime._sr_idle += ((t_msm, t if msm_nodes else msm_end),)
        return msm_end

    def _plan_transmit(self, mine: Dict[int, list], t_p2p: int) -> Optional[int]:
        """Plan P2P, BBM and RM from MSM's end ``t_p2p``, ahead with DEM
        and MSM (whose :meth:`_plannable` check covers it), for the chunks
        ``mine`` granted per destination; returns the slice's work end,
        or None to simulate."""
        runtime = self.runtime
        slice_no = runtime.slice_no
        logging = runtime.obs is not None
        rts = runtime.node_runtimes
        nodes = sorted(mine)
        plan = _Plan(logging, runtime.config.nic_descriptor_cost, self._routes)
        entries = plan.entries

        begin = (t_p2p, (), 0)
        if logging:
            entries.append((begin, [(t_p2p, "phase_begin", slice_no, P2P, len(nodes))]))
        t0 = t_p2p + self._strobe_latency
        fanout = (t0, begin, 0)
        last = begin
        index = 0
        for node in nodes:
            dh = rts[node].dh
            nic = dh.nrt.nic
            first = later = None
            # DMA Helper: every chunk's hold is booked at the microstrobe,
            # then its copy or transfer lands the chunk.
            for match in mine[node]:
                src = match.src_node
                landed = plan.move(nic, src, node, match.scheduled_now, t0, fanout, index)
                if landed is None:
                    return None
                t, key = landed
                index += 1
                if logging:
                    entries.append((key, [
                        (t, "unicast", src, node, match.scheduled_now, "p2p"),
                        *dh._chunk_log(match, t0, t),
                    ]))
                plan.landings.append((key, partial(dh._chunk_done, match, t0, True)))
                if first is None:
                    first = key
                elif later is None or key > later:
                    later = key
            # The Strobe Receiver returns with the first chunk, or with
            # the latch the later chunks count down.
            if later is not None and later > first:
                first = (later[0], later, 0)
            if logging:
                entries.append((first, [(first[0], "node_phase", node, slice_no, P2P, t0)]))
            if first > last:
                last = first
        end, done = self._phase_end(t_p2p, last, len(nodes), 0)
        if logging:
            phase = (end, "phase", slice_no, P2P, end - t_p2p)
            entries.append((done, [phase] + self._empty_tail(end)))
        plan.commit(runtime)
        runtime._sr_idle += ((t_p2p, t0),)
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
        return Timeout(self.env, t - self.env.now)

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
            cw = runtime.cluster.fabric.model.cw_latency(len(nodes))
            done = Latch(env, len(nodes), delay=cw, not_before=t0 + min_duration)
            # One multicast microstrobe: a single heap entry, one strobe
            # latency from now, starts every participant's SR in
            # ``nodes`` order.
            rts = runtime.node_runtimes
            receivers = [rts[n].sr for n in nodes]
            if due:
                _fan_out(receivers, Strobe(phase, runtime.slice_no, payload, done, env.now))
            else:
                strobe = Strobe(phase, runtime.slice_no, payload, done, t0 + latency)
                Timeout(env, latency).callbacks.append(partial(_fan_out, receivers, strobe))
                runtime.sr_idle_until = t0 + latency
            yield done
        else:
            wait = max(latency, min_duration)
            runtime.sr_idle_until = t0 + wait
            if wait:
                yield Timeout(env, wait)

        if obs is not None:
            obs.events.append((env.now, "phase", runtime.slice_no, phase, env.now - t0))
