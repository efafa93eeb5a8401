#!/usr/bin/env bash
# Check the pipeline benchmark's deterministic rows against
# results/pipeline/sSEED.txt for each SEED given (default 7). Exits non-zero,
# after printing the diff, when a row moved. A row that moves on purpose is
# regenerated with scripts/regen-pipeline.sh, and the commit says why.
#
#   scripts/check-pipeline.sh [SEED...]

set -euo pipefail
cd "$(dirname "$0")/.."

seeds=("$@")
[ "${#seeds[@]}" -gt 0 ] || seeds=(7)
status=0
for seed in "${seeds[@]}"; do
  if ! diff -u --label "results/pipeline/s$seed.txt" --label "pipeline_bench (this tree)" \
      "results/pipeline/s$seed.txt" <(scripts/pipeline-rows.sh "$seed"); then
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "pipeline rows match results/pipeline/ at seed(s) ${seeds[*]}"
fi
exit "$status"
