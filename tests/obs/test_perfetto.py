"""Perfetto export: schema validity, content, and byte determinism."""

import json

from repro.harness.obs_runs import run_instrumented

#: Required keys per event phase type (trace-event format).
_REQUIRED = {
    "X": {"name", "cat", "ph", "ts", "dur", "pid", "tid"},
    "M": {"name", "ph", "pid", "tid", "args"},
    "C": {"name", "ph", "ts", "pid", "args"},
    "i": {"name", "ph", "ts", "pid", "tid", "s"},
}


def _run_small(seed=0):
    # 8 ranks on 4 nodes: every microphase kind fires (barrier -> BBM).
    return run_instrumented("fig8", n_ranks=8, seed=seed)


def test_export_is_schema_valid_trace_event_json():
    run = _run_small()
    doc = json.loads(run.obs.perfetto.to_json_bytes())
    assert doc["displayTimeUnit"] == "ns"
    events = doc["traceEvents"]
    assert events, "no events exported"
    for event in events:
        assert event["ph"] in _REQUIRED, f"unknown phase type {event['ph']!r}"
        missing = _REQUIRED[event["ph"]] - set(event)
        assert not missing, f"event {event} missing {missing}"
        if event["ph"] == "X":
            assert event["dur"] >= 0
            assert event["ts"] >= 0


def test_export_has_per_node_and_nic_tracks():
    run = _run_small()
    doc = run.obs.perfetto.to_dict()
    events = doc["traceEvents"]

    process_names = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    # 4 compute nodes + the management node's slice-machine track.
    assert sorted(process_names) == [0, 1, 2, 3, 4]
    assert "slice machine" in process_names[4]

    thread_names = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert thread_names[(0, 1)] == "NIC threads"

    # Microphase spans exist on the management track and per-node tracks.
    span_names = {(e["pid"], e["name"]) for e in events if e["ph"] == "X"}
    for phase in ("DEM", "MSM", "BBM"):
        assert (4, phase) in span_names, f"mgmt track missing {phase}"
    assert any(pid != 4 and name == "DEM" for pid, name in span_names)
    # NIC-thread occupancy spans carry the paper's thread names.
    nic_spans = {e["name"] for e in events if e["ph"] == "X" and e["tid"] == 1}
    assert nic_spans & {"BS/BR", "BR", "DH", "CH", "RH"}
    # Slice spans nest the microphases by containment.
    assert any(name.startswith("slice ") for _, name in span_names)


def test_microphases_nest_inside_their_slice():
    run = _run_small()
    events = run.obs.perfetto.to_dict()["traceEvents"]
    slices = [
        e for e in events
        if e["ph"] == "X" and e["pid"] == 4 and e["name"].startswith("slice ")
    ]
    phases = [
        e for e in events
        if e["ph"] == "X" and e["pid"] == 4 and e["cat"] == "microphase"
    ]
    assert slices and phases
    for phase in phases:
        inside = any(
            s["ts"] <= phase["ts"]
            and phase["ts"] + phase["dur"] <= s["ts"] + s["dur"] + 1e-9
            for s in slices
        )
        assert inside, f"microphase {phase} not contained in any slice span"


def test_microphases_ordered_and_disjoint_within_a_slice():
    run = _run_small()
    events = run.obs.perfetto.to_dict()["traceEvents"]
    by_slice = {}
    for e in events:
        if e["ph"] == "X" and e["pid"] == 4 and e["cat"] == "microphase":
            by_slice.setdefault(e["args"]["slice"], []).append(e)
    assert by_slice
    order = ["DEM", "MSM", "P2P", "BBM", "RM"]
    # Integer nanoseconds: float microsecond sums lose the last digit.
    ns = lambda v: round(v * 1000)
    for phases in by_slice.values():
        assert {"DEM", "MSM"} <= {e["name"] for e in phases}
        assert all(e["dur"] > 0 for e in phases)
        ranks = [order.index(e["name"]) for e in phases]
        assert ranks == sorted(ranks)
        for a, b in zip(phases, phases[1:]):
            assert ns(b["ts"]) >= ns(a["ts"]) + ns(a["dur"])


def test_trace_bytes_identical_across_seeded_runs():
    a = _run_small(seed=3).obs.perfetto.to_json_bytes()
    b = _run_small(seed=3).obs.perfetto.to_json_bytes()
    assert a == b


def test_metrics_render_identical_across_seeded_runs():
    from repro.harness.report import metrics_report

    a = _run_small(seed=3)
    b = _run_small(seed=3)
    assert metrics_report(a.obs) == metrics_report(b.obs)
    assert a.obs.profiler.report() == b.obs.profiler.report()
