#!/usr/bin/env bash
# Rewrite results/pipeline/sSEED.txt for each SEED given (default 7 and 21,
# the committed ones) from the current tree. Review `git diff results/`:
# every row is deterministic, so a changed row is a behavioural change.
#
#   scripts/regen-pipeline.sh [SEED...]

set -euo pipefail
cd "$(dirname "$0")/.."

seeds=("$@")
[ "${#seeds[@]}" -gt 0 ] || seeds=(7 21)
for seed in "${seeds[@]}"; do
  scripts/pipeline-rows.sh "$seed" > "results/pipeline/s$seed.txt"
  echo "== results/pipeline/s$seed.txt"
done
