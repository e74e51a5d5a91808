"""Tests for the slice-timeline analysis."""

import pytest

from repro.apps import nearest_neighbor_benchmark
from repro.bcs import BcsConfig, BcsRuntime
from repro.harness.timeline import SliceRecord, Timeline
from repro.network import Cluster, ClusterSpec
from repro.obs import Observability
from repro.storm import JobSpec
from repro.units import kib, ms, seconds, us


def run_traced(app, params, n_ranks=8):
    obs = Observability()
    cluster = Cluster(ClusterSpec(n_nodes=n_ranks // 2))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0)).attach_observability(obs)
    runtime.run_job(
        JobSpec(app=app, n_ranks=n_ranks, params=params), max_time=seconds(30)
    )
    return Timeline.from_events(obs.events, timeslice=runtime.config.timeslice)


def test_timeline_captures_active_slices():
    timeline = run_traced(
        nearest_neighbor_benchmark,
        dict(granularity=ms(2), iterations=5, message_bytes=kib(4)),
    )
    assert timeline.n_active_slices >= 5
    means = timeline.mean_phase_durations()
    assert "DEM" in means and "MSM" in means and "P2P" in means


def test_scheduling_phase_matches_paper_budget():
    """Mean DEM+MSM sits at the configured ~125 us minimum."""
    timeline = run_traced(
        nearest_neighbor_benchmark,
        dict(granularity=ms(2), iterations=5, message_bytes=kib(4)),
    )
    sched = timeline.scheduling_phase_us()
    assert sched is not None
    assert 120.0 <= sched <= 200.0


def test_utilization_strip_shape():
    timeline = run_traced(
        nearest_neighbor_benchmark,
        dict(granularity=ms(2), iterations=5, message_bytes=kib(4)),
    )
    strip = timeline.utilization_strip(width=40)
    assert 0 < len(strip) <= 40
    assert any(ch != " " for ch in strip)


def test_report_is_readable():
    timeline = run_traced(
        nearest_neighbor_benchmark,
        dict(granularity=ms(2), iterations=3, message_bytes=kib(4)),
    )
    text = timeline.report()
    assert "active slices" in text
    assert "DEM" in text
    assert "utilization" in text


def test_empty_timeline():
    timeline = Timeline([], timeslice=us(500))
    assert timeline.n_active_slices == 0
    assert timeline.utilization_strip() == ""
    assert timeline.scheduling_phase_us() is None
    assert "active slices: 0" in timeline.report()


def test_manual_records_and_utilization():
    rec = SliceRecord(slice_no=3, start=0, phases={"DEM": us(100), "P2P": us(150)})
    timeline = Timeline([rec], timeslice=us(500))
    assert timeline.utilization(rec) == pytest.approx(0.5)
    assert timeline.mean_phase_durations()["P2P"] == pytest.approx(150.0)


def test_invalid_timeslice_rejected():
    with pytest.raises(ValueError):
        Timeline([], timeslice=0)
