"""The scaling study's point: fast vs reference engine on one machine size."""

import gc

import pytest

from repro.harness import scaling as S


@pytest.fixture
def restore_gc():
    """``scaling_point`` tunes the collector for a throwaway process;
    undo that so the rest of the test session keeps the defaults."""
    threshold = gc.get_threshold()
    yield
    gc.unfreeze()
    gc.set_threshold(*threshold)


TOY = dict(network="qsnet", n_nodes=16, active_ranks=4, iterations=3, reps=1)


@pytest.mark.parametrize("app", sorted(S.SCALING_APPS))
def test_toy_point_is_virtual_identical(app, restore_gc):
    row = S.scaling_point(app=app, **TOY)
    assert row["virtual_identical"] is True
    assert row["n_nodes"] == 16 and row["app"] == app
    assert row["slices"] > 0 and row["virtual_ms"] > 0
    assert row["speedup"] > 0 and row["peak_rss_mib"] > 0


def test_divergence_raises(monkeypatch, restore_gc):
    timed_run = S._timed_run

    def skewed(network, n_nodes, app, active_ranks, params, engine):
        ns, slices, wall, gc_delta = timed_run(
            network, n_nodes, app, active_ranks, params, engine
        )
        if engine == "reference":
            ns += 1
        return ns, slices, wall, gc_delta

    monkeypatch.setattr(S, "_timed_run", skewed)
    with pytest.raises(AssertionError, match="diverged"):
        S.scaling_point(**TOY)


def test_gc_helpers_importable():
    """Benchmark scripts import these from the scaling module."""
    from repro.harness.scaling import gc_counters, tune_gc

    assert callable(tune_gc)
    collections, objects = gc_counters()
    assert collections >= 0 and objects > 0
