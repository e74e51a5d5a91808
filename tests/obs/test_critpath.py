"""Critical-path extraction: exact accounting, determinism, reporting."""

import pytest

from repro.harness.obs_runs import CRITPATH_COLUMNS, critpath_point, explain_run
from repro.obs.critpath import (
    CATEGORIES,
    blame_payload,
    render_blame,
    to_json_bytes,
)


@pytest.fixture(scope="module")
def fig8_report():
    _, report = explain_run("fig8", n_ranks=8)
    return report


@pytest.fixture(scope="module")
def p2p_report():
    _, report = explain_run("fig8-p2p", n_ranks=8)
    return report


# --- exact accounting (the acceptance invariant) ------------------------------------


@pytest.mark.parametrize("which", ["fig8_report", "p2p_report"])
def test_blame_sums_to_makespan_exactly(which, request):
    report = request.getfixturevalue(which)
    assert report.makespan_ns > 0
    # Every nanosecond of the makespan lands in exactly one category,
    # one rank, and one job — no rounding, no residue.
    assert sum(report.categories_ns.values()) == report.makespan_ns
    assert sum(report.per_rank_ns.values()) == report.makespan_ns
    assert sum(report.per_job_ns.values()) == report.makespan_ns
    assert set(report.categories_ns) == set(CATEGORIES)
    assert all(ns >= 0 for ns in report.categories_ns.values())


def test_barrier_run_blames_collective_phases(fig8_report):
    assert fig8_report.n_collectives > 0
    assert fig8_report.categories_ns["BBM"] > 0
    assert fig8_report.categories_ns["compute"] > 0
    # A pure-barrier benchmark moves no point-to-point payload.
    assert fig8_report.categories_ns["P2P"] == 0
    # Nothing on the path should be unattributable in a clean run.
    assert fig8_report.categories_ns["wait_other"] == 0


def test_p2p_run_blames_message_phases(p2p_report):
    assert p2p_report.n_delivered > 0
    assert p2p_report.categories_ns["DEM"] > 0
    assert p2p_report.categories_ns["MSM"] > 0
    assert p2p_report.categories_ns["P2P"] > 0
    assert p2p_report.categories_ns["wait_other"] == 0


def test_chains_are_ranked_and_staged(p2p_report):
    chains = p2p_report.chains
    assert chains
    totals = [h["total_ns"] for h in chains]
    assert totals == sorted(totals, reverse=True)
    message_hops = [h for h in chains if h["kind"] == "message"]
    assert message_hops, "p2p critical path must traverse messages"
    for hop in chains:
        assert hop["total_ns"] == sum(hop["stages_ns"].values())
        assert set(hop["stages_ns"]) <= set(CATEGORIES)
    assert p2p_report.n_hops >= len(chains)


def test_top_limits_reported_chains():
    _, report = explain_run("fig8", n_ranks=8, top=2)
    assert len(report.chains) <= 2


# --- determinism -------------------------------------------------------------------


def test_blame_payload_is_byte_deterministic():
    payloads = []
    for _ in range(2):
        _, report = explain_run("fig8", n_ranks=4)
        payloads.append(
            to_json_bytes(
                blame_payload(report, experiment="fig8", ranks=4, seed=0)
            )
        )
    assert payloads[0] == payloads[1]


def test_payload_schema_and_shares(fig8_report):
    payload = blame_payload(fig8_report, experiment="fig8", ranks=8, seed=0)
    assert payload["schema"] == 1
    assert payload["experiment"] == "fig8"
    assert list(payload["categories_ns"]) == list(CATEGORIES)
    assert sum(payload["categories_ns"].values()) == payload["makespan_ns"]
    assert sum(payload["shares"].values()) == pytest.approx(1.0, abs=1e-4)
    counts = payload["counts"]
    assert counts["hops"] == fig8_report.n_hops
    assert counts["collectives"] == fig8_report.n_collectives


def test_render_blame_is_deterministic_text(fig8_report):
    text = render_blame(fig8_report, "fig8 test")
    assert text == render_blame(fig8_report, "fig8 test")
    assert "critical path of fig8 test" in text
    assert f"makespan {fig8_report.makespan_ns} ns" in text
    assert "total" in text and "100.0%" in text
    assert "per rank (job.rank):" in text


# --- the farm point ----------------------------------------------------------------


def test_critpath_point_shares_cover_the_makespan():
    row = critpath_point("fig8", n_ranks=4)
    assert row["experiment"] == "fig8"
    assert row["makespan_ns"] > 0
    # The grouped percentage columns partition the makespan.
    assert sum(row[c] for c in CRITPATH_COLUMNS) == pytest.approx(100.0, abs=0.01)
    assert row == critpath_point("fig8", n_ranks=4)  # reproducible
