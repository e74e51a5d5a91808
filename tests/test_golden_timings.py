"""Golden timing regressions.

The simulator is bit-deterministic, so canonical runs have *exact*
expected runtimes.  These pins catch accidental changes to the timing
model (a new overhead, a protocol reordering, a budget tweak) that the
shape-level benchmarks might absorb silently.  If a change is
intentional, update the constants here and the measured values in
EXPERIMENTS.md together.
"""

import pytest

from repro.apps import barrier_benchmark, sage, sweep3d_blocking
from repro.bcs import BcsConfig
from repro.bcs.validator import ProtocolValidator
from repro.harness import run_workload
from repro.mpi.baseline import BaselineConfig
from repro.units import ms

BC = BcsConfig(init_cost=0)
BL = BaselineConfig(init_cost=0)

GOLDEN = [
    # (app, backend, params, exact runtime in ns)
    (sage, "bcs", dict(steps=3, step_compute=ms(5)), 18_500_000),
    (sage, "baseline", dict(steps=3, step_compute=ms(5)), 21_123_620),
    (sweep3d_blocking, "bcs", dict(octants=2, kblocks=2), 45_017_500),
    (barrier_benchmark, "bcs", dict(granularity=ms(2), iterations=3), 9_500_000),
]


@pytest.mark.parametrize(
    "app,backend,params,expected",
    GOLDEN,
    ids=[f"{a.__name__}-{b}" for a, b, _, _ in GOLDEN],
)
def test_golden_runtime(app, backend, params, expected):
    result = run_workload(
        app, 8, backend, params=params, bcs_config=BC, baseline_config=BL
    )
    assert result.runtime_ns == expected, (
        f"{app.__name__} on {backend}: timing model changed "
        f"({result.runtime_ns} ns vs pinned {expected} ns). If intentional, "
        "update GOLDEN and EXPERIMENTS.md."
    )


def assert_protocol_clean(obs):
    """The hub's protocol log shows a slice machine within its rules."""
    validator = ProtocolValidator(
        obs.events, BC.timeslice, scheduling_min=BC.scheduling_duration
    )
    assert validator.validate() == []
    assert validator.phases


def test_golden_sage_runs_land_on_slice_boundaries():
    """BCS job completion always aligns to the slice grid."""
    result = run_workload(
        sage, 8, "bcs", params=dict(steps=3, step_compute=ms(5)), bcs_config=BC
    )
    assert result.runtime_ns % BC.timeslice == 0


@pytest.mark.parametrize(
    "app,backend,params,expected",
    [g for g in GOLDEN if g[1] == "bcs"],
    ids=[f"{a.__name__}-obs" for a, b, _, _ in GOLDEN if b == "bcs"],
)
def test_golden_runtime_unchanged_with_observability(app, backend, params, expected):
    """Instrumentation must not perturb simulated time.

    The observability layer is passive — every hook reads ``env.now``
    but never enters the event queue — so golden virtual-time results
    are identical with telemetry disabled *and* enabled.
    """
    from repro.obs import Observability

    obs = Observability()
    result = run_workload(
        app, 8, backend, params=params, bcs_config=BC, obs=obs
    )
    assert result.runtime_ns == expected, (
        f"{app.__name__} with observability attached: instrumentation "
        f"perturbed virtual time ({result.runtime_ns} ns vs {expected} ns)"
    )
    # The instrumentation must actually have run, not been skipped.
    assert obs.registry.counter("bcs.slice.count", kind="active").value > 0
    assert obs.perfetto.n_events > 0
    assert_protocol_clean(obs)


@pytest.mark.parametrize(
    "app,backend,params,expected",
    [g for g in GOLDEN if g[1] == "bcs"],
    ids=[f"{a.__name__}-spans" for a, b, _, _ in GOLDEN if b == "bcs"],
)
def test_golden_runtime_unchanged_with_span_tracing(app, backend, params, expected):
    """Causal span tracing must not perturb simulated time either.

    Every sink is on: the Perfetto trace, the MPI profiler and the span
    tracker, whose per-message lifecycle hooks sit on the DEM/MSM/P2P
    hot paths.  All of them are reads, so the golden virtual times stay
    byte-identical with tracing on.
    """
    from repro.obs import Observability

    obs = Observability()
    result = run_workload(
        app, 8, backend, params=params, bcs_config=BC, obs=obs
    )
    assert result.runtime_ns == expected, (
        f"{app.__name__} with span tracing attached: instrumentation "
        f"perturbed virtual time ({result.runtime_ns} ns vs {expected} ns)"
    )
    # Tracing must actually have captured spans, not been skipped.
    assert obs.spans is not None
    assert obs.spans.collectives or obs.spans.n_delivered > 0
    assert len(obs.spans.rank_finish) == 8
    assert obs.perfetto.n_events > 0
    assert len(obs.profiler.ranks) == 8
    assert_protocol_clean(obs)


def test_explain_json_byte_identical_across_runs(tmp_path):
    """``repro explain`` is deterministic down to the output bytes."""
    from repro.harness.cli import main

    paths = [tmp_path / "blame-a.json", tmp_path / "blame-b.json"]
    for path in paths:
        rc = main(
            ["explain", "fig8", "--ranks", "4", "--json", str(path)]
        )
        assert rc == 0
    a, b = (p.read_bytes() for p in paths)
    assert a == b
    assert a  # non-empty payload
