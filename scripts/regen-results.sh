#!/usr/bin/env bash
# Regenerate every checkpoint under results/ from the current tree: one
# `paper --only NAME` per results/NAME.txt, at full scale. Each file holds
# the entry's deterministic block, then its host-time block (wall clock;
# those lines differ per run and per host). A new entry needs its file
# created once by hand (`paper --only NAME > results/NAME.txt`);
# tests/paper_artefacts.rs fails until entries and files match one to one.
#
# Run it on a quiet machine from a clean tree, and name the host in the
# commit that checks the files in.

set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --locked -p centralium-bench --bin paper
paper="${CARGO_TARGET_DIR:-target}/release/paper"

for file in results/*.txt; do
  name="$(basename "$file" .txt)"
  echo "== $name"
  "$paper" --only "$name" > "$file.tmp"
  mv "$file.tmp" "$file"
done
echo "done — review \`git diff results/\` and commit"
