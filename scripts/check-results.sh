#!/usr/bin/env bash
# Check every checkpoint under results/ against the current tree: one full-
# scale `paper` run, split at its `=== NAME ===` headers, each entry's
# deterministic block (everything before `--- host time`) diffed against
# the same block of results/NAME.txt. Host-time blocks are not compared.
# Exits non-zero, after printing every differing block, when one differs
# or a results/ file has no entry.

set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --locked -p centralium-bench --bin paper
paper="${CARGO_TARGET_DIR:-target}/release/paper"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/actual" "$work/expected"
"$paper" | awk -v dir="$work/actual" -v deterministic=1 -f scripts/split-paper.awk

status=0
for file in results/*.txt; do
  name="$(basename "$file")"
  awk -v dir="$work/expected" -v deterministic=1 -f scripts/split-paper.awk "$file"
  if [ ! -e "$work/actual/$name" ]; then
    echo "results/$name: paper printed no such entry"
    status=1
  elif ! diff -u --label "results/$name" --label "paper (this tree)" \
      "$work/expected/$name" "$work/actual/$name"; then
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "all $(ls results/*.txt | wc -l) deterministic blocks match results/"
fi
exit "$status"
