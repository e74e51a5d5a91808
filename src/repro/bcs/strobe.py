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
        aggregated = nrt.config.aggregated_strobe
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
            # Compare-And-Write tests this counter.  In aggregated mode
            # the SS performs one batched arena increment for the whole
            # participant set instead of this per-node write — the
            # array-backed slot ends up with the identical value.
            if not aggregated:
                nrt.runtime.core.gas.write(
                    nrt.node_id, "mphase_done", self.completed_phases
                )
            obs = nrt.runtime.obs
            if obs is not None:
                obs.node_phase(nrt.node_id, strobe.phase, strobe.slice_no, t0, env.now)
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
        # two timeouts serve every microphase of every slice when tracing
        # is off.  Safe because the SS is the only holder across cycles —
        # it always yields the latch/timeouts to completion before
        # re-arming, and every receiver drops its strobe reference at
        # count_down time.
        self._latch = ReusableLatch(self.env)
        self._strobe = Strobe("", 0, None, self._latch)
        self._pad = ReusableTimeout(self.env)
        self._sleep = ReusableTimeout(self.env)
        # Aggregated strobe model (``config.aggregated_strobe``): the
        # microstrobe is one tree-shaped multicast event whose duration
        # is cached per active-set size, charged through a reusable
        # timeout — no per-strobe generator, no per-destination walk.
        self._aggregated = runtime.config.aggregated_strobe
        self._strobe_timeout = ReusableTimeout(self.env)
        self._strobe_n = -1
        self._strobe_latency = 0
        #: "bcs.microphase" tracing, sampled once per strobe-loop launch
        #: (trace categories are fixed at cluster construction); gates
        #: the per-microphase trace emit and the named-latch allocation.
        self._trace_on = False

    def start(self) -> None:
        """Launch the strobe loop (idempotent)."""
        if self._proc is None or not self._proc.is_alive:
            self._trace_on = self.runtime.cluster.trace.enabled_for(
                "bcs.microphase"
            )
            self._proc = self.env.process(self._run(), name="SS")

    def _run(self):
        runtime = self.runtime
        cfg = runtime.config
        env = self.env
        timeslice = cfg.timeslice
        mins = {DEM: cfg.dem_min_duration, MSM: cfg.msm_min_duration}
        node_runtimes = runtime.node_runtimes
        hooks = runtime.on_slice_start
        fast_forward = cfg.idle_fast_forward
        incremental = runtime._incremental
        slice_waiters = runtime._slice_waiters

        while not runtime.stopped:
            start = env.now
            runtime.slice_no += 1
            runtime.stats["slices"] += 1
            runtime.slice_start_time = start
            if hooks:
                hooks.fire(runtime.slice_no)
            # Slice boundary: the NM restarts processes whose blocking
            # operations completed during the previous slice.  Only
            # signals with waiters are pulsed (ascending node id — the
            # historical wake order); the scan mode pulses every node,
            # preserving the original full-broadcast loop as reference.
            # All their waiters wake through one heap entry, in the order
            # node-by-node pulses would wake them.
            if incremental:
                pulsed = [node_runtimes[n] for n in sorted(slice_waiters)]
            else:
                pulsed = node_runtimes
            woken = []
            for nrt in pulsed:
                woken += nrt.slice_start.take_waiters()
            env.trigger_all(woken, runtime.slice_no)
            slice_waiters.clear()

            # Idle short-circuit: settle ``active`` before any telemetry
            # bookkeeping.  slice_work() only reads queues (and prunes
            # the runtime's lazy sets), so sampling it ahead of
            # slice_begin is observationally identical to the historical
            # order.  It also answers the DEM node query in the same
            # pass — there is no yield point between here and the DEM
            # microphase, so the two-call sequence it replaces saw the
            # exact same state.
            active, dem_nodes = runtime.slice_work()
            obs = runtime.obs
            if obs is not None:
                obs.slice_begin(runtime.slice_no, start)

            if active:
                runtime.stats["active_slices"] += 1
                yield from self._microphase(DEM, dem_nodes, mins[DEM])
                yield from self._microphase(MSM, runtime.msm_nodes(), mins[MSM])
                granted = runtime.global_schedule()
                yield from self._microphase(
                    P2P, sorted({m.dst_node for m in granted}), 0, payload=granted
                )
                retired = runtime.scheduler.retire_finished()
                if retired and cfg.batched_matching:
                    # A retired match was the last holder of its pair of
                    # descriptors (requests are completed at delivery and
                    # owned by the application): recycle them.
                    pools = runtime.pools
                    for m in retired:
                        pools.release_send(m.send)
                        pools.release_recv(m.recv)
                yield from self._microphase(BBM, runtime.bbm_nodes(), 0)
                yield from self._microphase(RM, runtime.rm_nodes(), 0)

            elapsed = env.now - start
            if elapsed < timeslice:
                if fast_forward and not active and not hooks:
                    if cfg.auto_stop and runtime.idle():
                        # The loop exits after this slice anyway.
                        pass
                    else:
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
                                first = runtime.slice_no - skipped
                                obs.slice_end(
                                    first, start, start + timeslice, False, False
                                )
                                obs.idle_skip(
                                    first + 1, start + timeslice, timeslice, skipped
                                )
                            yield self._sleep.rearm(
                                (skipped + 1) * timeslice - elapsed
                            )
                            continue
                yield self._sleep.rearm(timeslice - elapsed)
                overrun = False
            else:
                runtime.stats["slice_overruns"] += 1
                overrun = True
            if obs is not None:
                obs.slice_end(runtime.slice_no, start, env.now, active, overrun)
            if cfg.auto_stop and runtime.idle():
                return

    def _microphase(self, phase: str, nodes: List[int], min_duration: int, payload=None):
        """Strobe, dispatch, await completion, CaW-confirm, pad.

        ``nodes`` is the set with actual work; nodes outside it would run
        an empty handler and complete at strobe time, so they are not
        simulated (the strobe itself is still a full multicast).
        """
        runtime = self.runtime
        env = self.env
        t0 = env.now
        mgmt = runtime.cluster.management_node.id
        obs = runtime.obs
        if obs is not None:
            obs.phase_begin(phase, runtime.slice_no, t0)

        # Microstrobe: Xfer-And-Signal to every compute node's SR.  The
        # active-node list is kept sorted and deduplicated by the
        # runtime, so its length is passed straight through.
        if self._aggregated:
            # One aggregated tree multicast: identical duration to the
            # oracle's control_multicast (both are strobe_latency(n)),
            # but the duration is cached until the active set changes
            # size and the timeout object is re-armed in place.
            n_active = len(runtime.active_node_ids)
            if n_active:
                if n_active != self._strobe_n:
                    self._strobe_n = n_active
                    self._strobe_latency = runtime.cluster.fabric.strobe_latency(
                        runtime.config.strobe_bytes, n_active
                    )
                yield self._strobe_timeout.rearm(self._strobe_latency)
        else:
            yield from runtime.cluster.fabric.control_multicast(
                mgmt,
                runtime.active_node_ids,
                runtime.config.strobe_bytes,
                n_dests=len(runtime.active_node_ids),
            )

        if nodes:
            # One latch shared by all participants: the SS resumes when
            # the count reaches zero, without an N-event AllOf fan-in.
            # With tracing off, the latch, strobe record and pad timeout
            # are re-armed in place — every receiver drops its reference
            # at count_down time, and the SS yields each to completion
            # before the next microphase, so nothing can observe the
            # reuse (the name f-string only ever served trace debugging).
            if self._trace_on:
                done = Latch(env, len(nodes), name=f"{phase}:{runtime.slice_no}")
                strobe = Strobe(phase, runtime.slice_no, payload, done)
            else:
                done = self._latch.rearm(len(nodes))
                strobe = self._strobe
                strobe.phase = phase
                strobe.slice_no = runtime.slice_no
                strobe.payload = payload
            # One multicast microstrobe: a single heap entry wakes every
            # participant's SR, in ``nodes`` order.
            receivers = runtime.receivers
            env.trigger_all([receivers[n].wake for n in nodes], strobe)
            yield done
            if self._aggregated:
                # Batched completion report: every participant finished
                # exactly one microphase, so one arena-wide increment
                # replaces the per-node ``gas.write`` loop the receivers
                # perform on the oracle path (same counters, same values
                # at the Compare-And-Write below).
                runtime.core.gas.increment_batch(nodes, "mphase_done")
            # SS verifies global completion with a Compare-And-Write on
            # the per-node microphase counters.
            yield from runtime.core.compare_and_write(
                mgmt, nodes, "mphase_done", ">=", 0, default=0
            )

        pad = min_duration - (env.now - t0)
        if pad > 0:
            yield self._pad.rearm(pad)

        if obs is not None:
            obs.phase_end(phase, runtime.slice_no, t0, env.now, len(nodes))
        if self._trace_on:
            trace = runtime.cluster.trace
            trace.emit(
                env.now,
                "bcs.microphase",
                slice=runtime.slice_no,
                phase=phase,
                start=t0,
                duration=env.now - t0,
                nodes=len(nodes),
            )
