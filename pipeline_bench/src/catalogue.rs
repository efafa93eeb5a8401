//! The names this benchmark declares: workloads, end-to-end metrics with
//! their bounds, and the per-layer catalogue with what each metric should
//! move. `BENCHMARK.json` at the repository root is this file rendered
//! (`benchmark --benchmark-json`); a unit test keeps the two identical.

/// Default seed. 21 and 1337 are held out for later claims: a change must
/// also hold on a seed not used while it was written.
pub const DEFAULT_SEED: u64 = 7;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`). The work of
/// a run is a fixed function of this value; on the reference host (2 cores)
/// the timed section lasts about this long.
pub const RUN_SECONDS: u64 = 10;

/// A workload and the reason it exists.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: final counts at `RUN_SECONDS` and what the workload stresses.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "cold_2k_racks",
        why: "4 cold episodes on the 2,036-device tier, default + one /24 per pod (51 prefixes, ~613k routes each): many prefixes per coalesced batch, so per-route cost dominates",
    },
    Workload {
        name: "cold_xl_fanin",
        why: "4 cold episodes on the 10,308-device tier, default + 4 rack /24s (5 prefixes, ~355k routes, ~109k events each): few routes per event, so per-event cost and spine fan-in dominate",
    },
    Workload {
        name: "churn_large",
        why: "converged 212-device fabric (129 prefixes); 300 prefix flaps, 60 session flaps, 40 device bounces = 800 single changes, each run to quiescence: latency per incremental update",
    },
    Workload {
        name: "migrate_inproc",
        why: "212-device fabric, controller in-process with real health checks; 60 narrow (1 prefix governed, 4 waves) + 8 wide (128 prefixes governed) deploy/remove cycles: the paper's pipeline",
    },
    Workload {
        name: "migrate_tcp",
        why: "2,036-device tier behind a loopback AgentServer; session open + 30 narrow deploy/remove cycles over TcpTransport: same controller code, service plane (framing, JSON, RPC fan-out) weighs in",
    },
];

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// What it measures, per workload.
    pub meaning: &'static str,
}

/// The end-to-end metrics; every workload reports every one of them.
///
/// The host-time bounds are the contract's maximum because the reference
/// host is a shared 2-core VM whose speed drifts by ±5–8 % over tens of
/// seconds (a pure compute loop shows it too; see README.md): ten runs of
/// one seed spread by 5–14 % between quartiles, which no in-run statistic
/// removes. Memory does not drift, so its bound is tighter.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        meaning: "median over the run's set-ups: topology build + SimNet::new + establish_all, plus the initial convergence (and controller-side state) that precedes the timed section in churn_large / migrate_*",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        meaning: "host seconds of the timed section: sum of the episodes (cold_*), of the changes (churn_large), of session open + every deploy and remove call (migrate_*)",
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        meaning: "median host time of the workload's operation: one episode origination→quiescence (cold_*), one prefix withdrawal→quiescence (churn_large; the stream's pooled median sits between two modes), one narrow deploy call intent→post-health (migrate_*)",
    },
    EndToEnd {
        name: "routes_per_s",
        unit: "routes/s",
        better: "higher",
        bound: 0.25,
        meaning: "(announcements + withdrawals delivered in the timed section) / wall_s. Routes, not events: coalescing changes the event count, not the information delivered",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
        meaning: "VmHWM after the timed section; one workload per process, so nothing is inherited",
    },
];

/// A per-layer metric of the traced run.
pub struct PerLayer {
    /// Metric name; the prefix is the crate (layer) it belongs to.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// The per-layer catalogue. A metric a workload has no source for reads 0
/// there. `te` has no caller on any workload and therefore no metric.
pub const PER_LAYER: &[PerLayer] = &[
    // topology
    m("topology.build_ms", "ms", "lower", "setup_s on all"),
    m("topology.json_roundtrip_ms", "ms", "lower", "wall_s on migrate_tcp (wire.topology_fetch_ms); only measured there"),
    // simnet: set-up
    m("simnet.new_ms", "ms", "lower", "setup_s on all"),
    m("simnet.establish_ms", "ms", "lower", "setup_s on all"),
    // simnet: deterministic counts (must repeat exactly per seed)
    m("simnet.events", "count", "lower", "wall_s on cold_xl_fanin, churn_large (count)"),
    m("simnet.routes_delivered", "count", "lower", "numerator of routes_per_s (count)"),
    m("simnet.batches_delivered", "count", "lower", "wall_s on cold_* (count)"),
    m("simnet.updates_coalesced", "count", "higher", "explains events vs routes on cold_* (count)"),
    m("simnet.max_batch_size", "count", "higher", "prefixes per coalesced batch: which regime a workload is in (50 on cold_2k_racks, 5 on cold_xl_fanin)"),
    m("simnet.session_events", "count", "lower", "op_p50_ms on churn_large (count)"),
    m("simnet.queue_hwm", "count", "lower", "peak_rss_mb on cold_xl_fanin (count)"),
    m("simnet.sim_time_ms", "ms", "lower", "simulated, not host time: a host-speed change must leave it identical"),
    m("simnet.rpa_scoped_reevals", "count", "lower", "op_p50_ms on migrate_* (narrow: scoped)"),
    m("simnet.rpa_full_reevals", "count", "lower", "wall_s on migrate_inproc (wide cycles)"),
    m("simnet.fib_entries", "count", "lower", "none; size of the snapshot fib_digest covers"),
    m("simnet.fib_digest", "hash", "lower", "none; fingerprint of fib_snapshot(), compared for equality only"),
    // simnet: host time
    m("simnet.step_ns_p50", "ns", "lower", "routes_per_s on cold_xl_fanin, op_p50_ms on churn_large; little on cold_2k_racks"),
    m("simnet.step_ns_p99", "ns", "lower", "routes_per_s on cold_xl_fanin, op_p50_ms on churn_large"),
    m("simnet.step_ns_p999", "ns", "lower", "wall_s on cold_2k_racks (few, heavy events)"),
    m("simnet.step_ns_max", "ns", "lower", "none on its own; tail marker"),
    m("simnet.step_time_share", "ratio", "higher", "accounting: summed step() time / stepped wall, expected >= 0.95"),
    m("simnet.routes_per_event", "ratio", "higher", "explains the split between the two cold workloads"),
    m("simnet.phase_pre_us", "us", "lower", "routes_per_s on cold_xl_fanin (queue pop + prepare)"),
    m("simnet.phase_work_us", "us", "lower", "routes_per_s on cold_2k_racks (device work)"),
    m("simnet.phase_merge_us", "us", "lower", "routes_per_s on cold_* (emit + coalesce)"),
    m("simnet.work_ns_per_route", "ns", "lower", "routes_per_s on cold_2k_racks"),
    m("simnet.update_p95_us", "us", "lower", "wall_s on churn_large"),
    m("simnet.update_max_us", "us", "lower", "wall_s on churn_large"),
    m("simnet.withdraw_p50_us", "us", "lower", "is op_p50_ms on churn_large (WithdrawOrigin to quiescence, 300 samples)"),
    m("simnet.announce_p50_us", "us", "lower", "wall_s on churn_large (re-origination to quiescence, 300 samples)"),
    m("simnet.session_flap_p50_us", "us", "lower", "wall_s on churn_large"),
    m("simnet.bounce_p50_us", "us", "lower", "wall_s on churn_large"),
    m("simnet.fib_snapshot_ms", "ms", "lower", "none inside a timed section; cost of the correctness check"),
    // bgp
    m("bgp.decisions", "count", "lower", "routes_per_s on cold_* (count)"),
    m("bgp.best_path_changes", "count", "lower", "routes_per_s on cold_* (count)"),
    m("bgp.decisions_per_route", "ratio", "lower", "routes_per_s on cold_2k_racks"),
    m("bgp.attr_clone_bytes", "bytes", "lower", "routes_per_s and peak_rss_mb on cold_*"),
    m("bgp.adj_rib_in_bytes", "bytes", "lower", "peak_rss_mb on cold_*"),
    m("bgp.adj_rib_out_bytes", "bytes", "lower", "peak_rss_mb on cold_*"),
    m("bgp.canonical_routes", "count", "lower", "peak_rss_mb on cold_*"),
    m("bgp.peer_refs", "count", "lower", "peak_rss_mb on cold_xl_fanin"),
    m("bgp.interner_as_paths", "count", "lower", "peak_rss_mb on cold_*"),
    m("bgp.interner_community_sets", "count", "lower", "peak_rss_mb on cold_*"),
    m("bgp.ingest_ns_per_route", "ns", "lower", "kernel; routes_per_s on cold_2k_racks"),
    m("bgp.withdraw_ns_per_route", "ns", "lower", "kernel; op_p50_ms on churn_large, not cold_*"),
    m("bgp.reevaluate_all_ms", "ms", "lower", "kernel; wall_s on migrate_inproc (wide cycles)"),
    // rpa (no document is installed on cold_* and churn_large: flat there)
    m("rpa.cache_hits", "count", "higher", "wall_s on migrate_inproc"),
    m("rpa.cache_misses", "count", "lower", "wall_s on migrate_inproc"),
    m("rpa.cache_hit_ratio", "ratio", "higher", "wall_s on migrate_inproc (wide cycles)"),
    m("rpa.eval_fallbacks", "count", "lower", "wall_s on migrate_inproc"),
    m("rpa.installs", "count", "lower", "none; equals documents deployed"),
    m("rpa.removals", "count", "lower", "none; equals documents removed"),
    m("rpa.eval_us_p50", "us", "lower", "wall_s on migrate_inproc (wide cycles)"),
    m("rpa.eval_us_p99", "us", "lower", "wall_s on migrate_inproc (wide cycles)"),
    m("rpa.install_us", "us", "lower", "kernel; op_p50_ms on migrate_*"),
    // core
    m("core.compile_us", "us", "lower", "kernel; op_p50_ms on migrate_* via core.generation_ms"),
    m("core.plan_us", "us", "lower", "kernel; op_p50_ms on migrate_* via core.generation_ms"),
    m("core.generation_ms", "ms", "lower", "op_p50_ms on migrate_* (the paper's < 200 ms RPA generation)"),
    m("core.converge_ms", "ms", "lower", "op_p50_ms on migrate_* (run_until_quiescent per narrow cycle)"),
    m("core.health_check_ms", "ms", "lower", "op_p50_ms on migrate_*"),
    m("core.reconcile_ms", "ms", "lower", "op_p50_ms on migrate_*"),
    m("core.poll_devices_ms", "ms", "lower", "op_p50_ms on migrate_*"),
    m("core.out_of_sync_ms", "ms", "lower", "op_p50_ms on migrate_*"),
    m("core.set_intended_ms", "ms", "lower", "op_p50_ms on migrate_tcp (one RPC per device)"),
    m("core.clear_intended_ms", "ms", "lower", "wall_s on migrate_tcp (one RPC per device)"),
    m("core.now_ms", "ms", "lower", "op_p50_ms on migrate_tcp"),
    m("core.transport_calls_per_cycle", "count", "lower", "op_p50_ms on migrate_tcp"),
    m("core.controller_self_ms", "ms", "lower", "op_p50_ms on migrate_*: cycle minus every transport call"),
    m("core.converge_share", "ratio", "lower", "where a narrow cycle goes: ~0.87 in-process, ~0.4 over TCP"),
    m("core.converge_share_wide", "ratio", "lower", "where a wide cycle goes: ~1.0"),
    m("core.waves", "count", "lower", "op_p50_ms on migrate_* (barriers per deploy)"),
    m("core.issued_ops", "count", "lower", "op_p50_ms on migrate_* (device RPCs per deploy)"),
    m("core.rpc_retries", "count", "lower", "failed-or-retried operations; 0 without chaos"),
    m("core.deploy_p75_ms", "ms", "lower", "wall_s on migrate_*"),
    m("core.remove_p50_ms", "ms", "lower", "wall_s on migrate_* (narrow remove call)"),
    m("core.deploy_wide_p50_ms", "ms", "lower", "wall_s on migrate_inproc (wide deploy call)"),
    m("core.remove_wide_p50_ms", "ms", "lower", "wall_s on migrate_inproc (wide remove call)"),
    // nsdb
    m("nsdb.reads", "count", "lower", "core.controller_self_ms"),
    m("nsdb.writes", "count", "lower", "core.controller_self_ms"),
    m("nsdb.partial_writes", "count", "lower", "failed operations; 0 without replica faults"),
    m("nsdb.approx_bytes", "bytes", "lower", "peak_rss_mb on migrate_*; expected negligible"),
    m("nsdb.publish_us", "us", "lower", "kernel; core.controller_self_ms, then op_p50_ms on migrate_*; expected negligible"),
    // wire
    m("wire.connect_ms", "ms", "lower", "wall_s on migrate_tcp (session open)"),
    m("wire.topology_fetch_ms", "ms", "lower", "wall_s on migrate_tcp (session open)"),
    m("wire.session_open_ms", "ms", "lower", "wall_s on migrate_tcp; paid by every deploy --connect"),
    m("wire.rpc_now_us_p50", "us", "lower", "op_p50_ms on migrate_tcp (cheapest round trip)"),
    m("wire.rpc_now_us_p99", "us", "lower", "wall_s on migrate_tcp"),
    m("wire.rpc_health_ms_p50", "ms", "lower", "op_p50_ms on migrate_tcp"),
    m("wire.rpc_set_intended_us_p50", "us", "lower", "op_p50_ms on migrate_tcp"),
    m("wire.service_plane_ms_per_cycle", "ms", "lower", "op_p50_ms on migrate_tcp only; migrate_inproc must stay flat"),
    m("wire.tcp_retries", "count", "lower", "failed-or-retried operations; 0 on a healthy loopback"),
    m("wire.encode_msgs_per_s", "msgs/s", "higher", "kernel; none today: the deploy path frames JSON, not UPDATEs"),
    m("wire.decode_msgs_per_s", "msgs/s", "higher", "kernel; none today: the deploy path frames JSON, not UPDATEs"),
    m("wire.encode_mb_per_s", "MB/s", "higher", "kernel; none today"),
    m("wire.decode_mb_per_s", "MB/s", "higher", "kernel; none today"),
    // telemetry
    m("telemetry.trace_overhead_ratio", "ratio", "lower", "the bench's own tracing tax: traced timed section / untraced, same process and seed"),
    // mem (bench allocator)
    m("mem.live_mb", "MB", "lower", "peak_rss_mb on cold_*"),
    m("mem.live_kb_per_device", "KB", "lower", "peak_rss_mb on cold_xl_fanin"),
    m("mem.alloc_bytes_per_route", "bytes", "lower", "routes_per_s and peak_rss_mb on cold_*; only measured there"),
    m("mem.allocs_per_route", "count", "lower", "routes_per_s on cold_*; only measured there"),
    m("mem.live_drift_bytes", "bytes", "lower", "leak signal on churn_large / migrate_*: live bytes after the last operation minus after the first"),
];

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "pipeline_bench/Cargo.toml",
        "--",
    ];
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"command\": [{}],\n",
        command.map(json_string).join(", ")
    ));
    out.push_str("  \"paths\": [\"pipeline_bench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    out.push_str(&format!("  \"workloads\": [\n{}\n  ],\n", rows.join(",\n")));
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(e.name),
                json_string(e.unit),
                json_string(e.better),
                e.bound
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"end_to_end\": [\n{}\n  ],\n",
        rows.join(",\n")
    ));
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|p| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(p.name),
                json_string(p.unit),
                json_string(p.better)
            )
        })
        .collect();
    out.push_str(&format!(
        "  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_units_and_limits_follow_the_contract() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why",
                w.name
            );
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        for e in END_TO_END {
            assert!(name_ok(e.name) && unit_ok(e.unit), "{}", e.name);
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}: bound", e.name);
            assert!(["lower", "higher"].contains(&e.better));
            assert!(seen.insert(e.name), "{} used twice", e.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        let setup = END_TO_END
            .iter()
            .find(|e| e.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
        for p in PER_LAYER {
            assert!(name_ok(p.name) && unit_ok(p.unit), "{}", p.name);
            assert!(["lower", "higher"].contains(&p.better));
            assert!(seen.insert(p.name), "{} used twice", p.name);
            assert!(!p.moves.is_empty());
        }
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark --benchmark-json > BENCHMARK.json`"
        );
        // And it parses, with exactly the contract's keys.
        let parsed: serde_json::Value = serde_json::from_str(&on_disk).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }
}
