"""Tests for the global synchronization protocol (SS/SR, microphases)."""

import pytest

from repro.bcs import BcsConfig, BcsRuntime, MICROPHASES
from repro.bcs.validator import ProtocolValidator
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


# -- slice-boundary hooks ------------------------------------------------------
#
# ``on_slice_start`` is a plain list.  The Strobe Sender fires a snapshot
# of it at every boundary, so a hook may add or remove hooks while it runs.


def _fire_hooks(engine, install):
    """Run a short job with the hooks ``install(hooks, calls)`` registers
    and return ``calls``; the compute spans four slice boundaries."""
    cluster, runtime = make_runtime(engine=engine)
    calls = []
    install(runtime.on_slice_start, calls)

    def app(ctx):
        yield from ctx.compute(us(1600))

    runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(5))
    assert runtime.slice_no >= 4
    return calls


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_slice_hooks_run_in_registration_order(engine):
    def install(hooks, calls):
        hooks.append(lambda s: calls.append(("a", s)))
        hooks.append(lambda s: calls.append(("b", s)))

    calls = _fire_hooks(engine, install)
    assert calls[:6] == [("a", 1), ("b", 1), ("a", 2), ("b", 2), ("a", 3), ("b", 3)]


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_slice_hook_removing_itself_still_runs_this_boundary(engine):
    def install(hooks, calls):
        def once(s):
            hooks.remove(once)
            calls.append(("once", s))

        hooks.append(once)
        hooks.append(lambda s: calls.append(("tail", s)))

    calls = _fire_hooks(engine, install)
    assert calls[:3] == [("once", 1), ("tail", 1), ("tail", 2)]
    assert [c for c in calls if c[0] == "once"] == [("once", 1)]


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_slice_hook_removed_by_an_earlier_hook_still_runs_this_boundary(engine):
    def install(hooks, calls):
        def later(s):
            calls.append(("later", s))

        def remover(s):
            calls.append(("remover", s))
            if s == 1:
                hooks.remove(later)

        hooks.append(remover)
        hooks.append(later)

    calls = _fire_hooks(engine, install)
    assert calls[:4] == [("remover", 1), ("later", 1), ("remover", 2), ("remover", 3)]
    assert [c for c in calls if c[0] == "later"] == [("later", 1)]


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_slice_hook_appended_while_firing_first_runs_next_boundary(engine):
    def install(hooks, calls):
        def adder(s):
            calls.append(("adder", s))
            if s == 1:
                hooks.append(lambda sn: calls.append(("new", sn)))

        hooks.append(adder)

    calls = _fire_hooks(engine, install)
    assert calls[:5] == [("adder", 1), ("adder", 2), ("new", 2), ("adder", 3), ("new", 3)]


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


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_every_participant_reports_each_microphase(engine):
    """The Strobe Sender closes a microphase once every participant has
    finished it (its Compare-And-Write, paper §4.2): each participant's
    Strobe Receiver reports the microphase once, between its begin and
    its close, under both engines."""

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(None, dest=1, size=64)
        else:
            yield from ctx.comm.recv(source=0)

    cluster, runtime = make_runtime(engine=engine)
    obs = Observability()
    runtime.attach_observability(obs)
    runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(5))
    participants = sum(e[4] for e in obs.events if e[1] == "phase_begin")
    reports = sum(1 for e in obs.events if e[1] == "node_phase")
    assert reports == participants > 0
    validator = ProtocolValidator(obs.events, runtime.config.timeslice)
    assert validator.check_phase_completion() == []


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
