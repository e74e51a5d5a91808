"""Tests for the global synchronization protocol (SS/SR, microphases)."""

from collections import Counter

import pytest

from repro.bcs import BcsConfig, BcsRuntime, MICROPHASES
from repro.network import Cluster, ClusterSpec
from repro.obs import Observability
from repro.storm import JobSpec
from repro.units import seconds, us


def make_runtime(n_nodes=2, **cfg):
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes))
    return cluster, BcsRuntime(cluster, BcsConfig(init_cost=0, **cfg))


def test_microphase_order_constant():
    assert MICROPHASES == ("DEM", "MSM", "P2P", "BBM", "RM")


def test_slices_fire_at_fixed_period():
    cluster, runtime = make_runtime()
    boundaries = []
    runtime.on_slice_start.append(lambda s: boundaries.append(cluster.env.now))

    def app(ctx):
        yield from ctx.compute(us(2600))

    runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(5))
    # Slice boundaries are exact multiples of the 500 us timeslice.
    assert boundaries[:4] == [0, us(500), us(1000), us(1500)]


def test_custom_timeslice_respected():
    cluster, runtime = make_runtime(timeslice=us(250), dem_min_duration=us(20), msm_min_duration=us(20))
    boundaries = []
    runtime.on_slice_start.append(lambda s: boundaries.append(cluster.env.now))

    def app(ctx):
        yield from ctx.compute(us(1300))

    runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(5))
    assert boundaries[:3] == [0, us(250), us(500)]


def test_idle_slices_do_not_run_microphases():
    cluster, runtime = make_runtime()

    def app(ctx):
        yield from ctx.compute(us(5100))  # ~10 idle slices

    runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(5))
    assert runtime.stats["slices"] >= 10
    assert runtime.stats["active_slices"] == 0


def test_scheduling_phase_takes_at_least_125us():
    """DEM+MSM respect the paper's ~125 us minimum in active slices."""
    cluster, runtime = make_runtime()
    phase_spans = []

    orig = runtime.global_schedule

    def traced():
        # global_schedule runs right after MSM: capture in-slice offset.
        phase_spans.append(cluster.env.now % us(500))
        return orig()

    runtime.global_schedule = traced

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(None, dest=1, size=64)
        else:
            yield from ctx.comm.recv(source=0)

    runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(5))
    active_offsets = [o for o in phase_spans if o > 0]
    assert active_offsets, "no active slice observed"
    assert all(o >= us(125) for o in active_offsets)


def test_strobe_receiver_counts_phases():
    """Every node's completion counter in global memory, which the Strobe
    Sender's Compare-And-Write tests, counts the microphases the node
    took part in, as the protocol log records them (``node_phase``, one
    per receiver run or planned participation), under both engines."""

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(None, dest=1, size=64)
        else:
            yield from ctx.comm.recv(source=0)

    for engine in ("fast", "reference"):
        cluster, runtime = make_runtime(engine=engine)
        obs = Observability()
        runtime.attach_observability(obs)
        runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(5))
        logged = Counter(e[2] for e in obs.events if e[1] == "node_phase")
        assert sum(logged.values()) > 0
        for node_id, sr in runtime.receivers.items():
            assert runtime.core.gas.read(node_id, "mphase_done") == logged[node_id]
            if engine == "reference":
                assert sr.completed_phases == logged[node_id]


def test_overrun_detection():
    """A slice whose transmission exceeds the timeslice is counted."""
    cluster, runtime = make_runtime(
        timeslice=us(200), dem_min_duration=us(20), msm_min_duration=us(20)
    )

    def app(ctx):
        # 512 KiB >> what a 200 us slice can carry; the first data slice
        # is fully busy but chunking should keep each slice near budget.
        if ctx.rank == 0:
            yield from ctx.comm.send(None, dest=1, size=512 * 1024)
        else:
            yield from ctx.comm.recv(source=0)

    runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(5))
    # Chunking keeps overruns rare-to-zero; the counter must exist and
    # the job completes either way.
    assert runtime.stats["slice_overruns"] >= 0
    assert runtime.stats["chunks_moved"] >= 3


def test_stop_ends_strobe_loop():
    cluster, runtime = make_runtime()
    runtime.ss.start()
    cluster.env.run(until=us(1200))
    runtime.stop()
    before = runtime.slice_no
    cluster.env.run(until=us(5000))
    assert runtime.slice_no <= before + 1  # at most the in-flight slice


def test_ss_start_idempotent():
    cluster, runtime = make_runtime()
    runtime.ss.start()
    proc = runtime.ss._proc
    runtime.ss.start()
    assert runtime.ss._proc is proc
