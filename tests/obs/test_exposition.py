"""Prometheus exposition: parser-level round-trips for every metric kind.

Every assertion goes through :func:`parse_exposition`, so "renders
legally" means "parses back to the exact values", not "looks right".
"""

import pytest

from repro.obs.exposition import parse_exposition, render_exposition
from repro.obs.registry import MetricsRegistry


def _samples(families, family):
    """{(sample_name, frozen_labels): value} for one family."""
    return {
        (name, tuple(sorted(labels.items()))): value
        for name, labels, value in families[family]["samples"]
    }


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.counter("farm.queue.completed", family="fig8a").inc(3)
    reg.counter("farm.queue.completed", family="table1").inc(5)
    reg.gauge("farm.queue.depth").set(7)
    hist = reg.histogram("farm.point.duration_ms", family="fig8a")
    for v in (1.0, 2.0, 9.0):
        hist.observe(v)
    return reg


def test_counter_round_trips_with_total_suffix(registry):
    families = parse_exposition(render_exposition(registry))
    fam = families["farm_queue_completed"]
    assert fam["type"] == "counter"
    assert fam["help"] == "repro counter farm.queue.completed"
    samples = _samples(families, "farm_queue_completed")
    assert samples[("farm_queue_completed_total", (("family", "fig8a"),))] == 3.0
    assert samples[("farm_queue_completed_total", (("family", "table1"),))] == 5.0


def test_gauge_round_trips_unlabeled(registry):
    families = parse_exposition(render_exposition(registry))
    fam = families["farm_queue_depth"]
    assert fam["type"] == "gauge"
    assert _samples(families, "farm_queue_depth")[("farm_queue_depth", ())] == 7.0


def test_histogram_renders_exact_percentile_summary(registry):
    families = parse_exposition(render_exposition(registry))
    fam = families["farm_point_duration_ms"]
    assert fam["type"] == "summary"
    samples = _samples(families, "farm_point_duration_ms")
    base = (("family", "fig8a"),)
    assert samples[("farm_point_duration_ms", base + (("quantile", "0.5"),))] == 2.0
    assert samples[("farm_point_duration_ms", base + (("quantile", "0.95"),))] == 9.0
    assert samples[("farm_point_duration_ms", base + (("quantile", "0.99"),))] == 9.0
    assert samples[("farm_point_duration_ms_sum", base)] == 12.0
    assert samples[("farm_point_duration_ms_count", base)] == 3.0


def test_snapshot_dict_renders_identically_to_live_registry(registry):
    assert render_exposition(registry.snapshot()) == render_exposition(registry)


def test_every_registry_series_appears(registry):
    families = parse_exposition(render_exposition(registry))
    for name in registry.names():
        prom = name.replace(".", "_")
        assert prom in families, f"{name} missing from exposition"
        n_series = len(registry.series(name))
        kind = registry.kind(name)
        per_series = {"counter": 1, "gauge": 1, "histogram": 5}[kind]
        assert len(families[prom]["samples"]) == n_series * per_series


def test_label_values_escape_and_unescape():
    reg = MetricsRegistry()
    nasty = 'back\\slash "quoted"'
    reg.counter("edge.cases", what=nasty).inc()
    families = parse_exposition(render_exposition(reg))
    ((_, labels, value),) = families["edge_cases"]["samples"]
    assert labels == {"what": nasty}
    assert value == 1.0


def test_cardinality_overflow_series_renders_legally():
    """The registry's ``{overflow=dropped}`` series must parse back."""
    reg = MetricsRegistry(max_series_per_metric=1)
    reg.counter("hot.metric", key="a").inc()
    reg.counter("hot.metric", key="b").inc()  # refused -> overflow series
    reg.counter("hot.metric", key="c").inc(2)  # also overflow
    families = parse_exposition(render_exposition(reg))

    overflow = [
        (labels, value)
        for _, labels, value in families["hot_metric"]["samples"]
        if labels.get("overflow") == "dropped"
    ]
    assert overflow == [({"overflow": "dropped"}, 3.0)]
    # ... and the self-describing drop counter rode along, labeled by metric.
    dropped = _samples(families, "obs_labels_dropped")
    assert dropped[("obs_labels_dropped_total", (("metric", "hot.metric"),))] == 2.0


def test_metric_names_are_sanitized():
    reg = MetricsRegistry()
    reg.gauge("1weird.metric-name!").set(1)
    families = parse_exposition(render_exposition(reg))
    assert "_1weird_metric_name_" in families


def test_namespace_prefixes_every_name(registry):
    families = parse_exposition(render_exposition(registry, namespace="repro"))
    assert all(name.startswith("repro_") for name in families)


def test_kind_collision_keeps_both_families():
    reg = MetricsRegistry()
    reg.counter("a.b").inc()
    reg.gauge("a_b").set(4)
    families = parse_exposition(render_exposition(reg))
    assert families["a_b"]["type"] == "counter"
    assert families["a_b_gauge"]["type"] == "gauge"


def test_document_is_eof_terminated_and_deterministic(registry):
    text = render_exposition(registry)
    assert text.endswith("# EOF\n")
    assert text == render_exposition(registry)


def test_parser_rejects_malformed_documents():
    with pytest.raises(ValueError, match="EOF"):
        parse_exposition("# TYPE x counter\nx_total 1\n")
    with pytest.raises(ValueError, match="malformed"):
        parse_exposition("!!nonsense!!\n# EOF\n")

