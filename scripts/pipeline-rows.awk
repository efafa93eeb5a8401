# The deterministic rows of one `pipeline_bench --json FILE` result, the
# layout of results/pipeline/sSEED.txt. Every row is a pure function of
# (workload, seed, seconds): events, simulated time, the FIB digest and
# entry count, the work counters the result carries, the Adj-RIB footprint
# gauges and the failed-operation count. `mem.allocs_per_route` moves with
# the toolchain, so on the cold workloads it prints as its bound when within
# it and as its value otherwise; so does `bgp.decisions_per_route` (a cold
# episode decides each delivered route at most once), whose exact value
# the decisions and routes_delivered rows already pin, and
# `mem.live_kb_per_device` (live heap at quiescence).
#
#   awk -f scripts/pipeline-rows.awk RUN.json

BEGIN {
  nrows = split("simnet.events simnet.sim_time_ms simnet.fib_digest " \
    "simnet.fib_entries bgp.decisions bgp.best_path_changes " \
    "simnet.routes_delivered simnet.batches_delivered " \
    "simnet.updates_coalesced simnet.max_batch_size simnet.session_events " \
    "simnet.queue_hwm simnet.rpa_scoped_reevals simnet.rpa_full_reevals " \
    "rpa.cache_hits rpa.cache_misses rpa.eval_fallbacks rpa.installs " \
    "rpa.removals bgp.adj_rib_in_bytes bgp.adj_rib_out_bytes bgp.peer_refs",
    rows, " ")
  bound["cold_2k_racks"] = 2.1
  bound["cold_xl_fanin"] = 4.1
  decisions_bound = "1.0"
  live_bound["cold_2k_racks"] = 30.7
  live_bound["cold_xl_fanin"] = 6.7
}

# Print metric NAME as "NAME <= LIMIT" when its value is within LIMIT, and
# as its value otherwise.
function bounded(name, limit) {
  v = value[name]
  if (v != "" && v + 0 <= limit + 0) {
    print name, "<=", limit
  } else {
    print name, v, "over its bound", limit
  }
}

# The file is one JSON object on one line. Split at the quotes, a metric
# `"NAME": {"value": V, ...` is the run NAME, `: {`, `value`, `: V, `.
{
  n = split($0, s, "\"")
  for (i = 1; i + 3 <= n; i++) {
    if (s[i] == "workload" && workload == "") {
      workload = s[i + 2]
    } else if (s[i] == "failed") {
      failed = s[i + 1]
      gsub(/[^0-9]/, "", failed)
    } else if (s[i + 1] == ": {" && s[i + 2] == "value") {
      v = s[i + 3]
      gsub(/[:, ]/, "", v)
      value[s[i]] = v
    }
  }
}

END {
  print "== " workload " =="
  for (k = 1; k <= nrows; k++) {
    print rows[k], (rows[k] in value) ? value[rows[k]] : "missing"
  }
  if (workload in bound) {
    bounded("mem.allocs_per_route", bound[workload])
    bounded("bgp.decisions_per_route", decisions_bound)
  }
  if (workload in live_bound) {
    bounded("mem.live_kb_per_device", live_bound[workload])
  }
  print "ops_failed", (failed == "" ? "missing" : failed)
}
