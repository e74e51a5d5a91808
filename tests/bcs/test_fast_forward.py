"""Idle-slice fast-forward: wall-clock only, never virtual time.

The fast engine skips provably idle slices in one jump; the reference
engine simulates every slice.  Every test here runs the same workload
under both engines and asserts that everything observable from inside
the simulation — virtual runtimes, slice counters, telemetry output —
is identical.
"""

import pytest

from repro.apps.sage import sage
from repro.apps.synthetic import barrier_benchmark
from repro.bcs import BcsConfig, BcsRuntime, HashMatcher, LinearMatcher
from repro.debug import FlightRecorder
from repro.harness.runner import run_workload
from repro.network import Cluster, ClusterSpec
from repro.obs import Observability
from repro.storm import JobSpec
from repro.units import ms, seconds, us

from .test_active_sets import _assert_views_identical, _blame

WORKLOADS = {
    "sage": (sage, 4, dict(steps=3, step_compute=ms(40))),
    "barrier": (barrier_benchmark, 4, dict(iterations=5, granularity=ms(3))),
}


def _run(name, engine, obs=None):
    app, n_ranks, params = WORKLOADS[name]
    cfg = BcsConfig(engine=engine)
    return run_workload(app, n_ranks, "bcs", params=params, bcs_config=cfg, obs=obs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_virtual_time_and_stats_identical(name):
    on = _run(name, "fast")
    off = _run(name, "reference")
    assert on.runtime_ns == off.runtime_ns
    stats_on = dict(on.stats)
    skipped = stats_on.pop("idle_slices_skipped", 0)
    stats_off = dict(off.stats)
    assert stats_off.pop("idle_slices_skipped", 0) == 0
    assert stats_on == stats_off
    # The init_cost alone guarantees a long idle stretch to skip.
    assert skipped > 0


def test_observability_output_identical():
    """No view of the protocol log depends on fast-forward: the skipped
    slices are logged as the reference engine logs them."""
    rec_on = FlightRecorder()
    rec_off = FlightRecorder()
    on = _run("sage", "fast", obs=rec_on.obs)
    off = _run("sage", "reference", obs=rec_off.obs)
    assert on.runtime_ns == off.runtime_ns
    _assert_views_identical(rec_on, rec_off)
    assert _blame(rec_on.obs, on) == _blame(rec_off.obs, off)


def test_matcher_gauges_exported():
    obs = Observability()
    _run("sage", "fast", obs=obs)
    snap = obs.registry.snapshot()
    assert "bcs.match.unexpected" in snap
    assert "bcs.match.posted" in snap


def test_hooks_disable_fast_forward():
    """A registered slice hook forces every boundary to run for real."""
    cluster = Cluster(ClusterSpec(n_nodes=2))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0))
    calls = []
    runtime.on_slice_start.append(lambda s: calls.append(s))

    def app(ctx):
        yield from ctx.compute(us(5100))

    runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(5))
    assert runtime.stats["idle_slices_skipped"] == 0
    assert len(calls) == runtime.stats["slices"]
    assert calls == list(range(1, len(calls) + 1))


def test_fast_forward_skips_only_provably_idle_slices():
    """Slice counters agree with the non-skipping run, and the skipped
    portion is strictly idle."""
    on = _run("sage", "fast")
    off = _run("sage", "reference")
    assert on.stats["slices"] == off.stats["slices"]
    assert on.stats["active_slices"] == off.stats["active_slices"]
    assert on.stats["idle_slices_skipped"] <= (
        on.stats["slices"] - on.stats["active_slices"]
    )


def test_config_selects_matcher_class():
    """The engine picks the matcher: linear scan for the reference."""
    cluster = Cluster(ClusterSpec(n_nodes=2))
    runtime = BcsRuntime(cluster, BcsConfig(engine="reference"))
    assert isinstance(runtime.node_runtimes[0].matcher, LinearMatcher)
    cluster2 = Cluster(ClusterSpec(n_nodes=2))
    runtime2 = BcsRuntime(cluster2, BcsConfig(engine="fast"))
    assert isinstance(runtime2.node_runtimes[0].matcher, HashMatcher)
