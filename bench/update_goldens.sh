#!/bin/sh
# Regenerate the golden-metrics baselines under bench/baselines/metrics/.
#
# The metric drivers (fig6/fig7/table3/table4/table9) are bit-deterministic —
# seeded traces, clockless lazy expiry, no threads — so the goldens are
# diffed at zero tolerance (compare_bench.py --exact) by the
# metrics-regression CI job. Run this script ONLY when a hit-rate change is
# intentional, commit the diff, and explain the metric movement in the PR.
#
# Usage: bench/update_goldens.sh [OUTDIR]
#   OUTDIR defaults to bench/baselines/metrics (i.e. update the goldens in
#   place). CI passes a scratch directory and compares against the
#   committed goldens instead.
#
# GOLDEN_APP_REQUESTS pins the per-app trace length the goldens are
# generated at; it is recorded in each JSON's "app_requests" field, which
# CI reads back so the regeneration size can never drift from the goldens.
set -eu

cd "$(dirname "$0")/.."
OUTDIR=${1:-bench/baselines/metrics}
GOLDEN_APP_REQUESTS=${GOLDEN_APP_REQUESTS:-600000}
BUILD_DIR=${BUILD_DIR:-build}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
  fig6_hitrates fig7_miss_reduction_memory table3_cross_app table4_combined \
  table9_multitenant

mkdir -p "$OUTDIR"
log=$(mktemp)
trap 'rm -f "$log"' EXIT
for bench in fig6_hitrates fig7_miss_reduction_memory table3_cross_app \
             table4_combined table9_multitenant; do
  echo "generating $OUTDIR/$bench.json (app_requests=$GOLDEN_APP_REQUESTS)"
  # BUILD_DIR is relative to the repo root (the working directory here) or
  # absolute. The driver's progress goes to a log, shown if it fails.
  if ! "$BUILD_DIR/$bench" --app-requests "$GOLDEN_APP_REQUESTS" \
      > "$OUTDIR/$bench.json" 2> "$log"; then
    echo "$bench exited non-zero; its stderr:" >&2
    cat "$log" >&2
    exit 1
  fi
done

python3 bench/validate_schema.py \
  --require-row t20/warm --require-row t20/churn --require-row t20/steady \
  --require-row t200/warm --require-row t200/churn \
  --require-row t200/steady --require-row t2000/warm \
  --require-row t2000/churn --require-row t2000/steady \
  bench/schema/bench_result.schema.json \
  "$OUTDIR"/table9_multitenant.json
python3 bench/validate_schema.py bench/schema/bench_result.schema.json \
  "$OUTDIR"/fig6_hitrates.json "$OUTDIR"/fig7_miss_reduction_memory.json \
  "$OUTDIR"/table3_cross_app.json "$OUTDIR"/table4_combined.json
