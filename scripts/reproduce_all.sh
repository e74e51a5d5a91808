#!/usr/bin/env bash
# Full reproduction pass: tests, every paper table/figure, examples.
#
#   ./scripts/reproduce_all.sh            # default (scaled) instances
#   FARM_JOBS=8 ./scripts/reproduce_all.sh       # wider worker farm
#
# Full class-C sizes run in-process, unchecked:
#   python -m repro.harness.cli table2 --scale 1.0
#
# Any failing step fails the whole pass (set -e).
#
# Outputs land next to this script's repo root:
#   test_output.txt   - the complete pytest run
#   bench_output.txt  - every table/figure + ablation, regenerated and
#                       shape-checked through the `repro farm` worker
#                       pool (parallel + content-addressed result cache;
#                       see docs/FARM.md)

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== 1/3 test suite =="
python -m pytest tests/ 2>&1 | tee test_output.txt | tail -2

echo "== 2/3 benchmarks (paper tables & figures, via the farm) =="
python -m repro.harness.cli farm figures -j "${FARM_JOBS:-4}" \
    2>&1 | tee bench_output.txt | tail -3

echo "== 3/3 examples =="
for example in examples/*.py; do
    echo "--- ${example} ---"
    python "$example"
done

echo "done: see test_output.txt / bench_output.txt and EXPERIMENTS.md"
