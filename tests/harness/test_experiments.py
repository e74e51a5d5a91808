"""Tests for the per-figure experiment definitions (small instances)."""

import pytest

from repro.farm.points import execute_point, expand_family
from repro.harness.experiments import (
    APP_EXPERIMENTS,
    PAPER_TABLE2,
    run_app_experiment,
)


def _table1_rows(node_counts):
    specs = expand_family("table1", overrides=dict(node_counts=node_counts))
    return [execute_point(s.family, s.params_dict) for s in specs]


def test_every_table2_app_has_an_experiment():
    assert set(APP_EXPERIMENTS) == set(PAPER_TABLE2)


def test_table1_rows_structure():
    rows = _table1_rows(node_counts=(2, 4))
    networks = {r["network"] for r in rows}
    assert networks == {"gige", "myrinet", "infiniband", "qsnet", "bluegene_l"}
    for r in rows:
        assert r["caw_us"] > 0
        assert r["xfer_aggregate_mb_s"] > 0


def test_table1_qsnet_flat_conditional():
    rows = [r for r in _table1_rows(node_counts=(2, 32)) if r["network"] == "qsnet"]
    assert all(r["caw_us"] < 10 for r in rows)


def test_table1_emulated_networks_scale_with_log_n():
    rows = {
        (r["network"], r["nodes"]): r["caw_us"]
        for r in _table1_rows(node_counts=(2, 16))
    }
    assert rows[("gige", 16)] == pytest.approx(4 * rows[("gige", 2)], rel=0.01)


def test_run_app_experiment_tiny_scale():
    comparison = run_app_experiment("EP", n_ranks=4, scale=0.01)
    assert comparison.bcs.runtime_ns > 0
    assert comparison.baseline.runtime_ns > 0
    # EP at any scale: BCS pays init + tax, so it must be slower.
    assert comparison.slowdown_pct > 0


def test_scale_preserves_init_ratio_direction():
    """Bigger scale => same app structure; IS slowdown stays ~init share."""
    small = run_app_experiment("IS", n_ranks=4, scale=0.1)
    # The init/runtime ratio is scale-invariant by construction, so the
    # slowdown should not explode at small scale.
    assert 0 < small.slowdown_pct < 40
