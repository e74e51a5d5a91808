"""Tests for the experiment runner and reporting."""

import pytest

from repro.apps import barrier_benchmark
from repro.bcs import BcsConfig
from repro.harness import Comparison, compare_backends, nodes_for, run_workload
from repro.harness.report import format_table, print_table
from repro.mpi.baseline import BaselineConfig
from repro.units import ms

PARAMS = dict(granularity=ms(2), iterations=2)
BC = BcsConfig(init_cost=0)
BL = BaselineConfig(init_cost=0)


def test_nodes_for_paper_placement():
    assert nodes_for(62) == 31
    assert nodes_for(3) == 2
    assert nodes_for(1) == 1


def test_run_workload_returns_metrics():
    result = run_workload(
        barrier_benchmark, 4, "bcs", params=PARAMS, bcs_config=BC
    )
    assert result.backend == "bcs"
    assert result.n_ranks == 4
    assert result.runtime_ns > 0
    assert result.runtime_s == result.runtime_ns / 1e9
    assert result.stats["slices"] > 0


def test_run_workload_baseline_backend():
    result = run_workload(
        barrier_benchmark, 4, "baseline", params=PARAMS, baseline_config=BL
    )
    assert result.backend == "baseline"
    assert "barriers" in result.stats


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        run_workload(barrier_benchmark, 4, "openmpi", params=PARAMS)


def test_compare_backends_slowdown_sign():
    comparison = compare_backends(
        barrier_benchmark, 4, params=PARAMS, bcs_config=BC, baseline_config=BL
    )
    assert isinstance(comparison, Comparison)
    # Fine-grained barrier loop: BCS must be slower here.
    assert comparison.slowdown_pct > 0
    assert comparison.bcs.runtime_ns > comparison.baseline.runtime_ns


def test_run_workload_seed_changes_nothing_without_noise():
    a = run_workload(barrier_benchmark, 4, "bcs", params=PARAMS, bcs_config=BC, seed=1)
    b = run_workload(barrier_benchmark, 4, "bcs", params=PARAMS, bcs_config=BC, seed=2)
    # Noise-free runs are seed-independent (jitter streams are rank-keyed).
    assert a.runtime_ns == b.runtime_ns


# --- report -----------------------------------------------------------------


def test_format_table_alignment():
    text = format_table(["a", "long-header"], [[1, 2.5], [333, "x"]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert "2.50" in lines[2]
    assert "333" in lines[3]


def test_print_table_returns_text(capsys):
    text = print_table("title", ["h"], [[1]])
    out = capsys.readouterr().out
    assert "title" in out
    assert "title" in text
