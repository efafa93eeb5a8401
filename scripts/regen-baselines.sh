#!/usr/bin/env bash
# Regenerate the committed performance baseline with the exact flags CI
# uses to gate against it, so a baseline refresh and a CI run are always
# measuring the same thing.
#
#   BENCH_convergence.json  — every fabric tier (tiny/default/large/2k/xl/
#                             xxl), one row per tier: 5 iters on the small
#                             tiers, 2 on the 2k/10k scale tiers and a
#                             single-iteration run on the 100k xxl tier
#                             (the bin prints the caps), seed 7. Records the
#                             host it ran on, peak-RSS (reset per tier via
#                             /proc/self/clear_refs where supported),
#                             quiescent live-heap KB/device, and events/sec
#                             per row.
#                             Gated by: perf-smoke (wall regression >20%
#                             fails; tiny only), the 2k memory-budget step,
#                             the perf_report 2% instrumentation-overhead
#                             gate, the nightly full-ladder run, and the
#                             nightly xxl job (6 GiB ulimit + 6.1 live-KB/
#                             device gate).
#
# Run this on a quiet machine (wall-clock medians go straight into the
# regression gate) and commit the JSON file it rewrites. The wall gates
# compare against whatever machine recorded the baseline; the JSON names it.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== building release binaries =="
cargo build --release --locked -p centralium-bench

echo
echo "== BENCH_convergence.json (full tier ladder incl. 2k/xl/xxl) =="
cargo run --release --locked -p centralium-bench --bin bench_convergence -- \
  --fabric tiny,default,large,2k,xl,xxl --json BENCH_convergence.json

echo
echo "== sanity: gates pass against the fresh baseline =="
cargo run --release --locked -p centralium-bench --bin bench_convergence -- \
  --tiny --baseline BENCH_convergence.json --json /dev/null
( ulimit -v 1048576
  ./target/release/bench_convergence --fabric 2k --iters 1 --json /dev/null )
( ulimit -v 6291456
  ./target/release/bench_convergence --fabric xxl \
    --max-kb-per-device 6.1 --json /dev/null )

echo
echo "done — commit BENCH_convergence.json"
