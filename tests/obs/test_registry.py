"""Metrics registry semantics: labels, percentiles, cardinality, reset."""

import pytest

from repro.obs import MetricsRegistry, percentile


# --- percentile function ------------------------------------------------------


def test_percentile_nearest_rank():
    data = list(range(1, 101))
    assert percentile(data, 50) == 50
    assert percentile(data, 95) == 95
    assert percentile(data, 99) == 99
    assert percentile(data, 100) == 100
    assert percentile(data, 0) == 1


def test_percentile_small_sets():
    assert percentile([7.0], 50) == 7.0
    assert percentile([1.0, 2.0], 50) == 1.0
    assert percentile([1.0, 2.0], 51) == 2.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# --- instruments -------------------------------------------------------------------


def test_counter_identity_and_increment():
    reg = MetricsRegistry()
    c1 = reg.counter("msgs", node=0)
    c2 = reg.counter("msgs", node=0)
    assert c1 is c2  # same (name, labels) -> same instrument
    c1.inc()
    c1.inc(4)
    assert c2.value == 5
    assert reg.counter("msgs", node=1).value == 0  # distinct label set


def test_counter_rejects_negative():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("x").inc(-1)


def test_gauge_moves_both_ways():
    reg = MetricsRegistry()
    g = reg.gauge("backlog")
    g.set(10)
    g.inc(5)
    g.dec(3)
    assert g.value == 12


def test_histogram_summary_and_percentiles():
    reg = MetricsRegistry()
    h = reg.histogram("lat", phase="DEM")
    for v in range(1, 101):
        h.observe(float(v))
    assert h.count == 100
    assert h.percentile(50) == 50.0
    s = h.summary()
    assert s["p95"] == 95.0 and s["p99"] == 99.0
    assert s["min"] == 1.0 and s["max"] == 100.0
    assert s["mean"] == pytest.approx(50.5)
    assert reg.histogram("empty").summary() == {"count": 0}


def test_kind_mismatch_rejected():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.histogram("x")


def test_label_order_does_not_matter():
    reg = MetricsRegistry()
    assert reg.counter("m", a=1, b=2) is reg.counter("m", b=2, a=1)


# --- cardinality -----------------------------------------------------------------


def test_label_cardinality_overflow_is_counted_not_silent():
    reg = MetricsRegistry(max_series_per_metric=3)
    for i in range(3):
        reg.counter("m", i=i).inc()
    # Past the cap: the sample lands in the shared overflow series and
    # the drop is counted in the self-describing counter.
    reg.counter("m", i=3).inc()
    reg.counter("m", i=4).inc(2)
    dropped = reg.counter("obs.labels_dropped", metric="m")
    assert dropped.value == 2  # one per refused label set, not per inc
    snap = reg.snapshot()
    assert snap["m"]["series"]["{overflow=dropped}"] == 3
    assert "obs.labels_dropped" in reg.render()
    # Existing series stay reachable and untouched.
    assert reg.counter("m", i=0).value == 1


def test_label_cardinality_overflow_instrument_matches_kind():
    reg = MetricsRegistry(max_series_per_metric=1)
    reg.histogram("h", k=0).observe(1.0)
    reg.histogram("h", k=1).observe(5.0)  # overflows
    snap = reg.snapshot()
    assert snap["h"]["series"]["{overflow=dropped}"]["count"] == 1
    assert reg.counter("obs.labels_dropped", metric="h").value == 1


def test_labels_dropped_counter_is_exempt_from_its_own_cap():
    reg = MetricsRegistry(max_series_per_metric=2)
    # Overflow three distinct metrics: obs.labels_dropped then needs
    # three label sets of its own — more than the cap — and must grow
    # anyway rather than recurse into itself.
    for name in ("a", "b", "c"):
        for i in range(3):
            reg.counter(name, i=i).inc()
    series = reg.snapshot()["obs.labels_dropped"]["series"]
    assert "{overflow=dropped}" not in series
    assert series == {"{metric=a}": 1, "{metric=b}": 1, "{metric=c}": 1}


# --- snapshot / render / reset ------------------------------------------------------


def test_snapshot_is_sorted_and_complete():
    reg = MetricsRegistry()
    reg.counter("z.count").inc(2)
    reg.gauge("a.gauge").set(7)
    reg.histogram("m.hist", phase="DEM").observe(1.0)
    snap = reg.snapshot()
    assert list(snap) == ["a.gauge", "m.hist", "z.count"]
    assert snap["z.count"]["series"]["{}"] == 2
    assert snap["a.gauge"]["kind"] == "gauge"
    assert snap["m.hist"]["series"]["{phase=DEM}"]["count"] == 1


def test_render_deterministic():
    def build():
        reg = MetricsRegistry()
        reg.counter("b", x=2).inc(1)
        reg.counter("b", x=1).inc(2)
        reg.histogram("a").observe(3.0)
        return reg.render()

    assert build() == build()
    assert build().splitlines()[0].startswith("a ")


def test_reset_drops_everything():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.histogram("h").observe(1.0)
    reg.reset()
    assert reg.names() == []
    assert reg.counter("c").value == 0  # fresh instrument after reset
