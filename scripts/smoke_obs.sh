#!/usr/bin/env bash
# End-to-end smoke test of the observability pipeline: run one
# instrumented experiment, export the Perfetto trace and the metrics
# report, and check both for the things a human would look for first.
#
#   ./scripts/smoke_obs.sh            # uses a temp dir, cleans up after
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

echo "== trace export =="
python -m repro.harness.cli trace fig8 --ranks 8 --out "$workdir/trace.json"

echo "== trace validation =="
python - "$workdir/trace.json" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert doc["displayTimeUnit"] == "ns", "missing displayTimeUnit"
assert events, "empty trace"
names = {e["name"] for e in events if e["ph"] == "X"}
for phase in ("DEM", "MSM", "BBM"):
    assert phase in names, f"no {phase} spans in trace"
assert any(n.startswith("slice ") for n in names), "no slice spans"
print(f"ok: {len(events)} events, span names include DEM/MSM/BBM")
EOF

echo "== flow arrows in a plain trace export (p2p run) =="
python -m repro.harness.cli trace fig8-p2p --ranks 8 --out "$workdir/trace-p2p.json"
python - "$workdir/trace-p2p.json" <<'EOF'
import json, sys

events = json.load(open(sys.argv[1]))["traceEvents"]
flows = [e for e in events if e.get("cat") == "msgflow"]
assert flows, "every trace must carry the message flow events"
print(f"ok: {len(flows)} msgflow events")
EOF

echo "== determinism (two same-seed exports) =="
python -m repro.harness.cli trace fig8 --ranks 8 --out "$workdir/trace2.json"
cmp "$workdir/trace.json" "$workdir/trace2.json"
echo "ok: byte-identical"

echo "== protocol log: replay and validate =="
python - <<'EOF'
from repro.bcs import BcsConfig
from repro.bcs.validator import ProtocolValidator
from repro.debug import diff_logs
from repro.harness.obs_runs import run_instrumented

# Two runs in one process: their full streams, every entry kind and
# every descriptor and job id, must be equal.
a, b = (run_instrumented("fig8-p2p").obs for _ in range(2))
assert a.events, "empty protocol log"
divergences = diff_logs(a.events, b.events)
assert not divergences, f"run is not replayable:\n{divergences[0]}"
config = BcsConfig(init_cost=0)
validator = ProtocolValidator(
    a.events, config.timeslice, scheduling_min=config.scheduling_duration
)
violations = validator.validate()
assert not violations, "\n".join(map(str, violations))
assert validator.phases, "the validator saw no active slice"
print(f"ok: {len(a.events)} log entries replay identically, no violations")
EOF

echo "== metrics report =="
python -m repro.harness.cli metrics fig8 --ranks 8 | tee "$workdir/metrics.txt"
grep -q "bcs.microphase.duration_ns" "$workdir/metrics.txt"
grep -q "@--- MPI Time" "$workdir/metrics.txt"

echo "== critical-path explain =="
python -m repro.harness.cli explain fig8 --ranks 8 \
    --json "$workdir/blame.json" --trace "$workdir/flow.json" \
    | tee "$workdir/explain.txt"
grep -q "critical path of fig8" "$workdir/explain.txt"

echo "== blame-report validation =="
python - "$workdir/blame.json" <<'EOF'
import json, sys

payload = json.load(open(sys.argv[1]))
assert payload["schema"] == 1, "unexpected blame schema"
cats = payload["categories_ns"]
assert sum(cats.values()) == payload["makespan_ns"], (
    "blame categories must sum to the makespan exactly"
)
assert sum(payload["per_rank_ns"].values()) == payload["makespan_ns"]
assert abs(sum(payload["shares"].values()) - 1.0) < 1e-4
assert payload["counts"]["collectives"] > 0, "fig8 must trace collectives"
assert payload["chains"], "no chains on the critical path"
print(f"ok: blame sums to {payload['makespan_ns']} ns across {len(cats)} categories")
EOF

echo "== flow-event validation (p2p run) =="
python -m repro.harness.cli explain fig8-p2p --ranks 8 \
    --trace "$workdir/flow-p2p.json" > /dev/null
python - "$workdir/flow-p2p.json" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
flows = [e for e in events if e.get("cat") == "msgflow"]
assert flows, "p2p trace must carry message flow events"
by_id = {}
for e in flows:
    by_id.setdefault(e["id"], []).append(e["ph"])
assert all(sorted(v) == ["f", "s", "t"] for v in by_id.values()), (
    "every flow id needs a start/step/end triple"
)
# Containment in integer nanoseconds: float microsecond addition loses
# the last digit exactly at span edges.
ns = lambda v: round(v * 1000)
spans = [e for e in events if e.get("ph") == "X"]
for e in flows:
    t = ns(e["ts"])
    assert any(
        x["pid"] == e["pid"] and x["tid"] == e["tid"]
        and ns(x["ts"]) <= t <= ns(x["ts"]) + ns(x["dur"])
        for x in spans
    ), f"flow event at {t} ns resolves to no real slice span"
print(f"ok: {len(flows)} flow events over {len(by_id)} messages, all inside real spans")
EOF

echo "== explain determinism (two same-seed runs) =="
python -m repro.harness.cli explain fig8 --ranks 8 \
    --json "$workdir/blame2.json" > /dev/null
cmp "$workdir/blame.json" "$workdir/blame2.json"
echo "ok: byte-identical"

echo "smoke_obs: all checks passed"
