#!/usr/bin/env bash
# Regenerate every checkpoint under results/ from the current tree: one
# full-scale `paper` run, split at its `=== NAME ===` headers into
# results/NAME.txt (scripts/split-paper.awk, shared with
# scripts/check-results.sh). Each file holds the entry's deterministic
# block, then its host-time block (wall clock; those lines differ per run
# and per host). tests/paper_artefacts.rs fails until entries and files
# match one to one.
#
# Run it on a quiet machine from a clean tree, and name the host in the
# commit that checks the files in.

set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --locked -p centralium-bench --bin paper
paper="${CARGO_TARGET_DIR:-target}/release/paper"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
"$paper" | awk -v dir="$work" -f scripts/split-paper.awk
for file in "$work"/*.txt; do
  echo "== $(basename "$file" .txt)"
  mv "$file" results/
done
echo "done — review \`git diff results/\` and commit"
