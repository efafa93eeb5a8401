//! Deep-profiling diagnosis for the convergence engine: where did the time
//! go?
//!
//! `bench_convergence` measures; this tool explains. Each fabric runs the
//! same episode story (cold start + SSW-fleet equalize RPA + FADU bounce)
//! untraced for an honest median, then once with span tracing enabled for
//! the diagnosis — and prints where the time went: the per-window job-count
//! distribution, the pre/work/merge phase split, per-event latency
//! percentiles, and the top-10 hottest devices and widest-held prefixes.
//!
//! ```text
//! perf_report [--tiny] [--fabric T1,T2,...] [--iters N]
//!             [--json FILE] [--trace-out FILE] [--baseline FILE]
//! ```
//!
//! `--fabric` names an explicit tier list (`tiny`/`default`/`large`/`2k`/
//! `xl`/`xxl`); the scale tiers report the arena and event-queue footprint
//! gauges plus process peak RSS alongside the usual diagnosis.
//!
//! `--trace-out` writes the traced runs as one Chrome Trace Event file
//! (open in `chrome://tracing` or Perfetto). `--baseline FILE` is the CI
//! overhead gate: the **untraced** median must stay within 2% of the
//! committed `BENCH_convergence.json` median (plus a quarter millisecond of
//! absolute slack to absorb clock noise on sub-10ms fabrics), proving the
//! always-compiled instrumentation costs nothing when disabled.

use centralium_bench::args::BenchArgs;
use centralium_bench::tier::{
    baseline_wall_ms, parse_tier_list, peak_rss_bytes, reset_peak_rss, TierSpec,
};
use centralium_bgp::attrs::well_known;
use centralium_bgp::Prefix;
use centralium_rpa::{
    Destination, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature, RpaDocument,
};
use centralium_simnet::{SimConfig, SimNet};
use centralium_telemetry::span::{self, SpanRecord};
use centralium_telemetry::MetricsSnapshot;
use serde_json::json;
use std::process::ExitCode;
use std::time::Instant;

const SEED: u64 = 7;
const DEFAULT_ITERS: usize = 3;
const RPC_US: u64 = 300;

/// Overhead gate: untraced wall vs the committed baseline.
const MAX_OVERHEAD: f64 = 0.02;
/// Absolute slack for the overhead gate, in milliseconds.
const OVERHEAD_SLACK_MS: f64 = 0.25;

fn equalize_doc() -> RpaDocument {
    RpaDocument::PathSelection(PathSelectionRpa::single(
        "equalize",
        PathSelectionStatement::select(
            Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
            vec![PathSet::new("all", PathSignature::any())],
        ),
    ))
}

/// The `bench_convergence` episode story, returning the converged network
/// for post-hoc inspection; `traced` arms span tracing on its handle. Wall
/// clock covers everything after topology construction. Three-tier scale tiers have no FADU layer, so the bounce
/// falls back to the first pod's plane-0 aggregation switch, mirroring
/// `bench_convergence`.
fn episode(spec: &TierSpec, traced: bool) -> (f64, SimNet) {
    let (topo, idx, _) = spec.build();
    let mut net = SimNet::new(topo, SimConfig::builder().seed(SEED).build());
    net.telemetry().set_tracing(traced);
    let start = Instant::now();
    net.establish_all();
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    net.run_until_quiescent().expect_converged();
    for grid in &idx.ssw {
        for &ssw in grid {
            net.deploy_rpa(ssw, equalize_doc(), RPC_US);
        }
    }
    net.run_until_quiescent().expect_converged();
    let bounce = idx
        .fadu
        .first()
        .and_then(|g| g.first())
        .or_else(|| idx.fsw.first().and_then(|p| p.first()))
        .copied()
        .expect("fabric has a FADU or aggregation device to bounce");
    net.device_down(bounce);
    net.run_until_quiescent().expect_converged();
    net.device_up(bounce);
    net.run_until_quiescent().expect_converged();
    (start.elapsed().as_secs_f64() * 1e3, net)
}

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Top-10 devices by traced busy time, as `(label, busy_ns)`.
fn hottest_devices(snap: &MetricsSnapshot) -> Vec<(String, u64)> {
    let mut hot: Vec<(String, u64)> = snap
        .counters
        .iter()
        .filter(|(k, v)| k.starts_with("simnet.device.") && k.ends_with(".busy_ns") && **v > 0)
        .map(|(k, v)| {
            (
                k.trim_start_matches("simnet.device.")
                    .trim_end_matches(".busy_ns")
                    .to_string(),
                *v,
            )
        })
        .collect();
    hot.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    hot.truncate(10);
    hot
}

/// Top-10 prefixes by fabric-wide Adj-RIB-In occupancy (how many stored
/// routes the fabric holds for each), as `(prefix, routes)`.
fn widest_prefixes(net: &SimNet) -> Vec<(String, u64)> {
    let mut by_prefix: std::collections::BTreeMap<String, u64> = Default::default();
    for id in net.device_ids() {
        let dev = net.device(id).expect("listed device exists");
        for (prefix, _) in dev.daemon.known() {
            *by_prefix.entry(prefix.to_string()).or_default() +=
                dev.daemon.rib_in_count(prefix) as u64;
        }
    }
    let mut top: Vec<(String, u64)> = by_prefix.into_iter().collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    top.truncate(10);
    top
}

/// One fabric's diagnosis, printed and returned as the JSON row.
struct Diagnosis {
    row: serde_json::Value,
    untraced_median: f64,
    /// The traced run's spans.
    spans: Vec<SpanRecord>,
}

fn diagnose(label: &str, spec: &TierSpec, iters: usize) -> Diagnosis {
    let devices = spec.devices();
    println!("fabric '{label}' ({devices} devices), {iters} iters:");
    // Collapse the process-lifetime RSS high-water mark so this fabric's
    // peak reading does not inherit an earlier (larger) fabric's.
    reset_peak_rss();

    // Untraced median: the honest wall and the overhead-gate sample.
    let mut walls: Vec<f64> = (0..iters).map(|_| episode(spec, false).0).collect();
    let untraced_median = median_ms(&mut walls);
    println!("  untraced: {untraced_median:.2}ms");

    // One traced run for the breakdown.
    let (traced_wall, net) = episode(spec, true);
    let snap = net.telemetry().metrics().snapshot();
    println!("  traced:   {traced_wall:.2}ms (tracing overhead included)");

    let windows = snap.counter("simnet.phase.windows");
    let (pre, work, merge) = (
        snap.counter("simnet.phase.pre_us"),
        snap.counter("simnet.phase.work_us"),
        snap.counter("simnet.phase.merge_us"),
    );
    let phase_total = (pre + work + merge).max(1) as f64;

    println!(
        "  phases:   pre {pre}us ({:.0}%) / work {work}us ({:.0}%) / merge {merge}us ({:.0}%)",
        100.0 * pre as f64 / phase_total,
        100.0 * work as f64 / phase_total,
        100.0 * merge as f64 / phase_total,
    );

    let jobs = snap
        .log_histogram("simnet.window.jobs")
        .cloned()
        .unwrap_or_default();
    let job_buckets = jobs.nonzero_buckets();
    println!(
        "  windows:  {windows} total; jobs/window p50<={} p99<={} max<={}",
        jobs.percentile(0.5).unwrap_or(0),
        jobs.percentile(0.99).unwrap_or(0),
        jobs.percentile(1.0).unwrap_or(0),
    );
    if !job_buckets.is_empty() {
        let dist: Vec<String> = job_buckets
            .iter()
            .map(|(upper, count)| format!("<={upper}:{count}"))
            .collect();
        println!("  window-size distribution: {}", dist.join("  "));
    }

    let latency = snap
        .log_histogram("simnet.event.latency_ns")
        .cloned()
        .unwrap_or_default();
    if let (Some(mean), Some(p50), Some(p99)) = (
        latency.mean(),
        latency.percentile(0.5),
        latency.percentile(0.99),
    ) {
        println!(
            "  events:   {} traced, latency mean={mean:.0}ns p50<={p50}ns p99<={p99}ns",
            latency.count()
        );
    }

    let hot = hottest_devices(&snap);
    if !hot.is_empty() {
        let line: Vec<String> = hot
            .iter()
            .map(|(d, ns)| format!("{d}:{:.2}ms", *ns as f64 / 1e6))
            .collect();
        println!("  hottest devices: {}", line.join("  "));
    }
    let wide = widest_prefixes(&net);
    if !wide.is_empty() {
        let line: Vec<String> = wide
            .iter()
            .map(|(p, n)| format!("{p}:{n} routes"))
            .collect();
        println!("  widest prefixes: {}", line.join("  "));
    }
    let peak_rss = peak_rss_bytes().unwrap_or(0);
    println!(
        "  memory:   adj-rib-in {} KB / adj-rib-out {} KB \
         ({} peer refs), \
         event-queue HWM {} ({} KB buckets), device arenas {} KB, \
         process peak RSS {:.1} MB",
        snap.gauge("mem.adj_rib_in_bytes") / 1024,
        snap.gauge("mem.adj_rib_out_bytes") / 1024,
        snap.gauge("bgp.peer_refs"),
        snap.gauge("mem.event_queue_hwm"),
        snap.gauge("mem.event_queue_bytes") / 1024,
        snap.gauge("mem.device_arena_bytes") / 1024,
        peak_rss as f64 / (1024.0 * 1024.0),
    );

    let row = json!({
        "fabric": label,
        "devices": devices,
        "iters": iters,
        "untraced_median_ms": untraced_median,
        "traced_wall_ms": traced_wall,
        "windows": windows,
        "phase_pre_us": pre,
        "phase_work_us": work,
        "phase_merge_us": merge,
        "window_jobs_buckets": job_buckets,
        "batch_routes_buckets": snap
            .log_histogram("simnet.batch.routes")
            .cloned()
            .unwrap_or_default()
            .nonzero_buckets(),
        "event_latency": {
            "count": latency.count(),
            "mean_ns": latency.mean().unwrap_or(0.0),
            "p50_ns": latency.percentile(0.5).unwrap_or(0),
            "p99_ns": latency.percentile(0.99).unwrap_or(0),
        },
        "hottest_devices": hot,
        "widest_prefixes": wide,
        "mem": {
            "adj_rib_in_bytes": snap.gauge("mem.adj_rib_in_bytes"),
            "adj_rib_out_bytes": snap.gauge("mem.adj_rib_out_bytes"),
            "peer_refs": snap.gauge("bgp.peer_refs"),
            "event_queue_hwm": snap.gauge("mem.event_queue_hwm"),
            "event_queue_bytes": snap.gauge("mem.event_queue_bytes"),
            "device_arena_bytes": snap.gauge("mem.device_arena_bytes"),
            "peak_rss_bytes": peak_rss,
        },
    });
    println!();
    Diagnosis {
        row,
        untraced_median,
        spans: net.telemetry().spans(),
    }
}

/// The CI overhead gate: this run's untraced median vs the committed
/// `bench_convergence` baseline, within [`MAX_OVERHEAD`] plus
/// [`OVERHEAD_SLACK_MS`]. Fabrics missing on either side are skipped.
fn overhead_gate(path: &str, measured: &[(String, f64)]) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let baseline: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let mut lines = Vec::new();
    for (label, now) in measured {
        let Some(base) = baseline_wall_ms(&baseline, label) else {
            lines.push(format!("overhead '{label}': no baseline sample, skipped"));
            continue;
        };
        let limit = base * (1.0 + MAX_OVERHEAD) + OVERHEAD_SLACK_MS;
        if *now > limit {
            return Err(format!(
                "fabric '{label}' profiling-disabled wall {now:.2}ms exceeds \
                 {:.0}% overhead gate over baseline {base:.2}ms (limit {limit:.2}ms)",
                MAX_OVERHEAD * 100.0,
            ));
        }
        lines.push(format!(
            "overhead '{label}': wall {base:.2}ms -> {now:.2}ms, within {:.0}% gate",
            MAX_OVERHEAD * 100.0,
        ));
    }
    Ok(lines)
}

fn main() -> ExitCode {
    let args = match BenchArgs::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let iters = args
        .get_u64("iters")
        .unwrap_or(None)
        .map(|n| n.max(1) as usize)
        .unwrap_or(DEFAULT_ITERS);
    let fabrics: Vec<(String, TierSpec)> = match args.get_str("fabric") {
        Ok(Some(list)) => match parse_tier_list(&list) {
            Ok(tiers) => tiers,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        Ok(None) if args.has_flag("tiny") => {
            vec![(
                "tiny".into(),
                TierSpec::by_name("tiny").expect("known tier"),
            )]
        }
        Ok(None) => ["tiny", "default", "large"]
            .iter()
            .map(|n| (n.to_string(), TierSpec::by_name(n).expect("known tier")))
            .collect(),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("Convergence profiler report: seed {SEED}");
    println!("episode: cold start + SSW-fleet equalize RPA + FADU bounce\n");
    let mut rows = Vec::new();
    let mut medians = Vec::new();
    let mut records: Vec<SpanRecord> = Vec::new();
    for (label, spec) in &fabrics {
        let d = diagnose(label, spec, iters);
        medians.push((label.to_string(), d.untraced_median));
        rows.push(d.row);
        // Each fabric's spans start at its own handle's epoch: lay the
        // fabrics end to end on one timeline.
        let offset = records
            .iter()
            .map(|r| r.start_ns + r.dur_ns)
            .max()
            .unwrap_or(0);
        records.extend(d.spans.into_iter().map(|mut r| {
            r.start_ns += offset;
            r
        }));
    }

    if let Ok(Some(path)) = args.get_str("trace-out") {
        let write = std::fs::File::create(&path)
            .map_err(|e| format!("creating {path}: {e}"))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                span::export_chrome_trace(&records, &mut w)
                    .and_then(|()| std::io::Write::flush(&mut w))
                    .map_err(|e| format!("writing {path}: {e}"))
            });
        if let Err(e) = write {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "trace: {} spans written to {path}; open in chrome://tracing or ui.perfetto.dev",
            records.len()
        );
    }

    if let Ok(Some(path)) = args.get_str("json") {
        let doc = json!({ "seed": SEED, "fabrics": rows });
        match serde_json::to_string_pretty(&doc) {
            Ok(text) => {
                if let Err(e) = std::fs::write(&path, text + "\n") {
                    eprintln!("error: writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {path}");
            }
            Err(e) => {
                eprintln!("error: serializing report: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Ok(Some(path)) = args.get_str("baseline") {
        match overhead_gate(&path, &medians) {
            Ok(lines) => {
                for line in lines {
                    println!("{line}");
                }
            }
            Err(e) => {
                eprintln!("error: overhead gate: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
