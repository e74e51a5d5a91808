"""Trend store: append-only JSONL semantics, validation, damage tolerance."""

import json

import pytest

from repro.obs.trends import RunMeta, Sample, TrendStore, default_trend_path
from repro.obs.trends.store import DEFAULT_TREND_STORE


def _meta(run_id="run-1", **kw):
    kw.setdefault("source", "farm")
    kw.setdefault("calibration_s", 0.5)
    return RunMeta(run_id=run_id, **kw)


def test_append_and_read_round_trip(tmp_path):
    store = TrendStore(tmp_path / "ts")
    rows = store.append_run(
        _meta(git_sha="abc123", fingerprint="deadbeef", quick=True),
        [
            Sample("farm.duration_ms/fig8a", 1.5, raw=750.0, unit="ms", n=4),
            Sample("sim.slices/all", 42.0, raw=42.0, unit="count", kind="exact"),
        ],
    )
    assert rows == 2
    assert store.run_count() == 1
    assert store.run_ids() == ["run-1"]
    assert store.series_ids() == ["farm.duration_ms/fig8a", "sim.slices/all"]
    assert store.values("farm.duration_ms/fig8a") == [1.5]
    (obs,) = store.read_series("sim.slices/all")
    assert obs == {
        "run": "run-1",
        "value": 42.0,
        "raw": 42.0,
        "unit": "count",
        "kind": "exact",
        "n": 1,
    }
    (meta,) = store.runs()
    assert meta["git_sha"] == "abc123"
    assert meta["fingerprint"] == "deadbeef"
    assert meta["quick"] is True
    assert meta["calibration_s"] == 0.5


def test_appends_accumulate_in_order(tmp_path):
    store = TrendStore(tmp_path / "ts")
    for i in range(5):
        store.append_run(
            _meta(f"run-{i}"), [Sample("bench.normalized/sage", float(i))]
        )
    assert store.values("bench.normalized/sage") == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert store.run_ids() == [f"run-{i}" for i in range(5)]


def test_duplicate_run_id_is_rejected(tmp_path):
    store = TrendStore(tmp_path / "ts")
    store.append_run(_meta("ci-1"), [Sample("x", 1.0)])
    with pytest.raises(ValueError, match="already recorded"):
        store.append_run(_meta("ci-1"), [Sample("x", 2.0)])
    assert store.values("x") == [1.0]  # nothing double-counted


def test_series_id_validation():
    with pytest.raises(ValueError, match="bad series id"):
        Sample("../escape", 1.0)
    with pytest.raises(ValueError, match="bad series id"):
        Sample("a/b/c", 1.0)  # one label segment only
    with pytest.raises(ValueError, match="bad sample kind"):
        Sample("ok.series", 1.0, kind="fuzzy")
    # valid forms
    Sample("farm.duration_ms/fig8a", 1.0)
    Sample("sim.counter/family=fig8a,kind=x", 1.0)


def test_corrupt_lines_are_skipped_not_raised(tmp_path):
    store = TrendStore(tmp_path / "ts")
    store.append_run(_meta("ok-1"), [Sample("s", 1.0)])
    store.append_run(_meta("ok-2"), [Sample("s", 2.0)])
    # simulate a truncated append + a garbage artifact merge
    runs = store.root / "runs.jsonl"
    runs.write_text(runs.read_text() + '{"run_id": "tru\n!!garbage!!\n')
    series = store.root / "series" / "s.jsonl"
    series.write_text(series.read_text() + "{broken\n")
    assert store.run_ids() == ["ok-1", "ok-2"]
    assert store.values("s") == [1.0, 2.0]


def test_empty_store_reads_cleanly(tmp_path):
    store = TrendStore(tmp_path / "nothing-here")
    assert store.runs() == []
    assert store.series_ids() == []
    assert store.values("whatever") == []
    assert store.run_count() == 0


def test_series_filename_encodes_slash(tmp_path):
    store = TrendStore(tmp_path / "ts")
    store.append_run(_meta(), [Sample("farm.duration_ms/fig8a", 1.0)])
    assert (store.root / "series" / "farm.duration_ms@fig8a.jsonl").exists()
    assert store.series_ids() == ["farm.duration_ms/fig8a"]


def test_run_meta_dict_round_trip():
    meta = _meta(quick=False, time_s=123.5)
    data = meta.to_dict()
    assert json.loads(json.dumps(data)) == data  # JSON-safe
    assert data["quick"] is False and data["time_s"] == 123.5
    # Nones are dropped
    assert "quick" not in RunMeta(run_id="r", source="s").to_dict()


def test_default_path_honours_env(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_TREND_STORE", raising=False)
    assert str(default_trend_path()) == DEFAULT_TREND_STORE
    monkeypatch.setenv("REPRO_TREND_STORE", str(tmp_path / "custom"))
    assert default_trend_path() == tmp_path / "custom"
