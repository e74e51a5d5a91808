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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List

from ..sim import Latch, ReusableLatch, ReusableTimeout

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
            self.completed_phases += 1
            # Report completion in global memory; the SS's
            # Compare-And-Write tests this counter.  Under the fast
            # engine the SS performs one batched arena increment for the
            # whole participant set instead of this per-node write — the
            # array-backed slot ends up with the identical value.
            if not fast:
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

    def start(self) -> None:
        """Launch the strobe loop (idempotent)."""
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.env.process(self._run(), name="SS")

    def _run(self):
        runtime = self.runtime
        cfg = runtime.config
        env = self.env
        timeslice = cfg.timeslice
        mins = {DEM: cfg.dem_min_duration, MSM: cfg.msm_min_duration}
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

            if active:
                runtime.stats["active_slices"] += 1
                yield from self._microphase(DEM, dem_nodes, mins[DEM])
                yield from self._microphase(MSM, runtime.msm_nodes(), mins[MSM])
                granted = runtime.global_schedule()
                if obs is not None:
                    scheduler = runtime.scheduler
                    obs.events.append((
                        env.now,
                        "grant",
                        scheduler.backlog_bytes,
                        len(scheduler.in_flight),
                        tuple(
                            (m.send.desc_id, m.src_node, m.scheduled_now)
                            for m in granted
                        ),
                    ))
                yield from self._microphase(
                    P2P, sorted({m.dst_node for m in granted}), 0, payload=granted
                )
                retired = runtime.scheduler.retire_finished()
                if retired and obs is not None:
                    obs.events.append(
                        (env.now, "retire", tuple(m.send.desc_id for m in retired))
                    )
                if retired and fast:
                    # A retired match was the last holder of its pair of
                    # descriptors (requests are completed at delivery and
                    # owned by the application): recycle them.
                    pools = runtime.pools
                    for m in retired:
                        pools.release_send(m.send)
                        pools.release_recv(m.recv)
                # RM's participants are read after BBM, except behind an
                # empty BBM, which no receiver runs and which leaves them
                # as they are.
                bbm = runtime.bbm_nodes()
                rm = None if bbm else runtime.rm_nodes()
                if bbm or rm or self.strobe_latency() != self._full_latency:
                    yield from self._microphase(BBM, bbm, 0)
                    yield from self._microphase(
                        RM, runtime.rm_nodes() if rm is None else rm, 0
                    )
                    work_end = env.now
                else:
                    work_end = self._empty_tail()
            else:
                work_end = env.now

            elapsed = work_end - start
            if elapsed < timeslice:
                # An idle cluster ends the loop after this slice: no skip.
                if fast and not active and not hooks and not runtime.idle():
                    # Idle fast-forward.  No work exists now, no hook
                    # can create any at a boundary, and cluster state
                    # cannot change before the next queued event at
                    # t_next — so every boundary strictly before
                    # t_next replays this slice verbatim: same empty
                    # queues, same zero-waiter pulses, same idle
                    # bookkeeping.  Skip straight to the first
                    # boundary at or after t_next in one timeout;
                    # events firing in between land within the final
                    # (partial) slice and are observed at the wake
                    # boundary exactly as without the skip.
                    t_next = env.peek()
                    if t_next is not None and t_next - start > timeslice:
                        skipped = -(-(t_next - start) // timeslice) - 1
                        runtime.slice_no += skipped
                        runtime.stats["slices"] += skipped
                        runtime.stats["idle_slices_skipped"] += skipped
                        if obs is not None:
                            self._log_skip(obs, start, skipped)
                        yield self._sleep_until(start + (skipped + 1) * timeslice)
                        if obs is not None:
                            # The last skipped slice ends now, if the
                            # run is still going.
                            obs.events.append((
                                env.now,
                                "slice_end",
                                runtime.slice_no,
                                env.now - timeslice,
                                False,
                                False,
                            ))
                        continue
                yield self._sleep_until(start + timeslice)
                overrun = False
            else:
                runtime.stats["slice_overruns"] += 1
                overrun = True
                if work_end > env.now:
                    yield self._sleep_until(work_end)
            if obs is not None:
                obs.events.append(
                    (env.now, "slice_end", runtime.slice_no, start, active, overrun)
                )
            if runtime.idle():
                return

    def _log_skip(self, obs, start: int, skipped: int) -> None:
        """Log the end of the slice begun at ``start`` and the ``skipped``
        idle slices after it as the reference engine would: empty
        queues, frozen matcher totals.  The last one's end is logged when
        the Strobe Sender wakes at it."""
        runtime = self.runtime
        timeslice = runtime.config.timeslice
        totals = runtime.matcher_pending_totals()
        first = runtime.slice_no - skipped
        events = obs.events
        for i in range(skipped):
            t = start + (i + 1) * timeslice
            events.append((t, "slice_end", first + i, t - timeslice, False, False))
            events.append((t, "slice_begin", first + i + 1, 0, 0, 0, 0) + totals)

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
        """The Strobe Sender's wake-up at ``t``; no receiver runs before it."""
        self.runtime.sr_idle_until = t
        return self._sleep.rearm(t - self.env.now)

    def _empty_tail(self) -> int:
        """BBM and RM of an active slice, both without participants.

        Each would be one timeout of the microstrobe latency (see
        :meth:`_microphase`); instead their end instant is returned and
        the slice-end sleep covers them.  Only taken when no launch can
        change the latency before RM starts (the active set already has
        the whole machine's microstrobe duration).  With a telemetry
        hub, the phases are logged at their own instants.
        """
        runtime = self.runtime
        latency = self._strobe_latency
        t = self.env.now
        obs = runtime.obs
        if obs is not None:
            slice_no = runtime.slice_no
            for phase in (BBM, RM):
                obs.events.append((t, "phase_begin", slice_no, phase, 0))
                obs.events.append((t + latency, "phase", slice_no, phase, latency))
                t += latency
        return self.env.now + 2 * latency

    def _microphase(self, phase: str, nodes: List[int], min_duration: int, payload=None):
        """Strobe, dispatch, await completion, CaW-confirm, pad.

        ``nodes`` is the set with actual work; nodes outside it would run
        an empty handler and complete at strobe time, so they are not
        simulated (the strobe itself is still a full multicast).

        The whole chain costs two heap entries: the microstrobe fan-out,
        scheduled one multicast latency ahead, and the microphase latch,
        whose completion delay charges the Compare-And-Write's network
        conditional and the minimum duration.  A microphase without
        participants is one timeout.
        """
        runtime = self.runtime
        env = self.env
        t0 = env.now
        obs = runtime.obs
        if obs is not None:
            obs.events.append((t0, "phase_begin", runtime.slice_no, phase, len(nodes)))

        # Microstrobe: Xfer-And-Signal to every compute node's SR.
        latency = self.strobe_latency()

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
            env.trigger_all([receivers[n].wake for n in nodes], strobe, delay=latency)
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
