"""MPI profiler attribution and the trace/metrics CLI subcommands."""

import importlib.util
import json
from pathlib import Path

import repro.apps.synthetic
from repro.bcs import BcsConfig
from repro.harness.cli import main
from repro.harness.runner import run_workload
from repro.obs import MpiProfiler, Observability
from repro.units import ms


# --- attribution model -------------------------------------------------------


def test_wait_time_attributed_between_app_and_mpi():
    prof = MpiProfiler()
    # Rank computes [0, 40), waits in MPI [40, 100), computes [100, 110),
    # waits [110, 150).
    prof.record_wait(0, 0, "wait", 40, 100, "app.py:3")
    prof.record_wait(0, 0, "wait", 110, 150, "app.py:5")
    rank = prof.ranks[(0, 0)]
    assert rank.app_ns == 40 + 10
    assert rank.mpi_ns == 60 + 40


def test_post_counts_bytes_per_site():
    prof = MpiProfiler()
    for rank in (0, 1):
        prof.record_post(0, rank, "send", 1000, "app.py:10")
    (op, _site), (count, wait_ns, nbytes) = next(iter(prof.sites.items()))
    assert op == "send"
    assert (count, wait_ns, nbytes) == (2, 0, 2000)


def test_report_shape():
    prof = MpiProfiler()
    prof.record_post(0, 0, "send", 4096, "app.py:10")
    prof.record_wait(0, 0, "wait(send)", 1_000_000, 3_000_000, "app.py:11")
    text = prof.report()
    assert "@--- MPI Time" in text
    assert "@--- Callsites" in text
    assert "wait(send)" in text
    # Aggregate row: 1 ms app (0 -> 1 ms), 2 ms MPI -> 66.67%.
    assert " 66.67" in text


def _padded_barrier_sites(tmp_path, padding: int) -> list:
    """Profiler sites of ``barrier_benchmark`` run from a copy of its
    module with ``padding`` blank lines inserted above its definition."""
    source = Path(repro.apps.synthetic.__file__).read_text()
    anchor = "def barrier_benchmark("
    assert anchor in source
    path = tmp_path / f"pad{padding}" / "repro" / "apps" / "synthetic.py"
    path.parent.mkdir(parents=True)
    path.write_text(source.replace(anchor, "\n" * padding + anchor, 1))
    spec = importlib.util.spec_from_file_location("repro.apps.padded", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    obs = Observability()
    run_workload(
        module.barrier_benchmark,
        4,
        "bcs",
        params=dict(granularity=ms(1), iterations=2),
        bcs_config=BcsConfig(init_cost=0),
        seed=0,
        obs=obs,
    )
    return sorted(obs.profiler.sites)


def test_site_names_survive_edits_above_the_function(tmp_path):
    """A site is named by file, function and line offset within the
    function, so lines added above an app function leave it unchanged."""
    sites = _padded_barrier_sites(tmp_path, 0)
    assert sites
    for _op, site in sites:
        assert site.startswith("repro/apps/synthetic.py:barrier_benchmark+")
    assert _padded_barrier_sites(tmp_path, 7) == sites


# --- CLI subcommands ---------------------------------------------------------


def test_cli_trace_writes_perfetto_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "fig8", "--ranks", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_bytes())
    assert doc["displayTimeUnit"] == "ns"
    assert any(e.get("name") == "DEM" for e in doc["traceEvents"])
    assert "trace events ->" in capsys.readouterr().out


def test_cli_metrics_prints_distributions_and_profile(capsys):
    assert main(["metrics", "fig8", "--ranks", "4"]) == 0
    out = capsys.readouterr().out
    assert "== distributions ==" in out
    assert "bcs.microphase.duration_ns" in out
    assert "bcs.slice.utilization" in out
    assert "@--- MPI Time" in out


def test_cli_trace_rejects_unknown_experiment(capsys):
    try:
        main(["trace", "fig99"])
    except SystemExit as exc:
        assert exc.code == 2
    else:  # pragma: no cover - argparse always raises
        raise AssertionError("expected argparse to reject fig99")
