#!/usr/bin/env bash
# Print the deterministic rows of every pipeline_bench workload at one seed
# (default 7): one `--seconds 1 --trace 1` run per workload, each run's
# `--json` result reduced by scripts/pipeline-rows.awk. The output is the
# layout of results/pipeline/sSEED.txt, which scripts/check-pipeline.sh
# diffs against and scripts/regen-pipeline.sh rewrites.
#
#   scripts/pipeline-rows.sh [SEED]

set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-7}"

cargo build --release --locked --quiet --manifest-path pipeline_bench/Cargo.toml
bench="${CARGO_TARGET_DIR:-pipeline_bench/target}/release/benchmark"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
echo "# pipeline_bench --seed $seed --seconds 1 --trace 1: deterministic rows"
for workload in cold_2k_racks cold_xl_fanin churn_large migrate_inproc migrate_tcp; do
  # A run whose checks fail exits non-zero; its ops_failed row shows it.
  "$bench" --workload "$workload" --seed "$seed" --seconds 1 --trace 1 \
    --json "$work/$workload.json" > "$work/$workload.out" 2>&1 || true
  if [ -s "$work/$workload.json" ]; then
    awk -f scripts/pipeline-rows.awk "$work/$workload.json"
  else
    echo "== $workload =="
    echo "no result: $(tail -n 1 "$work/$workload.out")"
  fi
done
