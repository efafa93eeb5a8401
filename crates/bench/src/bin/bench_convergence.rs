//! Perf baseline for the convergence engine: wall time, throughput and
//! memory per fabric tier, plus the determinism check the CI perf-smoke job
//! gates on.
//!
//! Each episode runs a full convergence story — cold start on the backbone
//! default route, an equalize RPA fleet-deployed to every SSW, and a FADU
//! bounce — so the measurement covers both pure BGP churn and the
//! signature-evaluation path with its per-device (sig, attrs) cache. On the
//! tiers below scale size one more episode is driven one event at a time
//! (`while net.step() {}`) and must reproduce the windowed run's FIBs byte
//! for byte; a mismatch exits nonzero.
//!
//! ```text
//! bench_convergence [--tiny] [--fabric T1,T2,...] [--iters N]
//!                   [--json FILE] [--baseline FILE]
//!                   [--max-kb-per-device KB]
//! ```
//!
//! `--tiny` restricts to the 22-device fabric (the CI smoke setting); the
//! full tier also measures the 84-device default and the 212-device large
//! fabric. `--fabric` names an explicit comma-separated tier list from
//! `tiny`/`default`/`large`/`2k`/`xl`/`xxl` — the last three are the
//! paper-scale three-tier fabrics (2,036 / 10,308 / 100,420 devices) that
//! exercise the arena storage, the event queue and the flat
//! adjacency-RIB tables; scale tiers cap the iteration count
//! (printed, never silent; `xxl` runs a single iteration) so a full pass
//! stays tractable. `--json FILE` writes the machine-readable report
//! (BENCH_convergence.json by convention). `--baseline FILE` compares the
//! run against a committed report and exits nonzero when the median wall
//! time regresses by more than 20% on any fabric — a cross-host comparison
//! unless the baseline was recorded on this machine (the report carries the
//! host it ran on).
//!
//! Beyond wall time the report carries the zero-copy hot-path counters:
//! `events_processed` (UPDATE coalescing collapses per-prefix messages into
//! per-link batches), `attr_clone_bytes` (attribute bytes physically copied —
//! Arc-shared routes keep this near-constant in fabric size), and the batch
//! shape (`batches_delivered`, `updates_coalesced`, `max_batch_size`), plus
//! the scale columns: `events_per_sec` throughput, `peak_rss_bytes`
//! (process VmHWM, reset via `/proc/self/clear_refs` before each episode so
//! multi-tier runs don't inherit earlier peaks; where the kernel ignores the
//! reset the JSON row carries `peak_rss_inherited: true`), and the
//! quiescent footprint pair: `quiescent_live_bytes` (bytes live on the heap
//! after convergence, from the counting allocator — the numerator of the
//! amortized per-device byte budget that `--max-kb-per-device KB` gates on)
//! and `quiescent_rss_bytes` (VmRSS at the same instant, post-`malloc_trim`,
//! reported for context: at the 100k tier it carries hundreds of MB of
//! allocator fragmentation that no longer corresponds to live state —
//! `mem_probe` quantifies the gap).

use centralium_bench::alloc::{live_heap_bytes, CountingAlloc};
use centralium_bench::args::BenchArgs;
use centralium_bench::report::Table;
use centralium_bench::tier::{
    baseline_wall_ms, current_rss_bytes, host_line, parse_tier_list, peak_rss_bytes,
    reset_peak_rss, trim_allocator, TierSpec,
};
use centralium_bgp::attrs::well_known;
use centralium_bgp::Prefix;
use centralium_rpa::{
    Destination, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature, RpaDocument,
};
use centralium_simnet::{SimConfig, SimNet};
use serde_json::json;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SEED: u64 = 7;
const DEFAULT_ITERS: usize = 5;
const RPC_US: u64 = 300;

/// Tiers at or above this device count are "scale tiers": iterations cap at
/// [`SCALE_TIER_ITERS`] and the stepped determinism episode is skipped, both
/// printed so the caps are never silent. A 10k-device episode runs for
/// seconds, not microseconds — 5 iters buy no extra signal for minutes of
/// extra wall.
const SCALE_TIER_DEVICES: usize = 1_000;
const SCALE_TIER_ITERS: usize = 2;

/// Tiers at or above this device count (`xxl`: 100k devices) run one
/// iteration only — a single episode is minutes of wall, and the
/// byte-budget/determinism signal does not improve with repetition.
const HUGE_TIER_DEVICES: usize = 50_000;
const HUGE_TIER_ITERS: usize = 1;

struct Episode {
    wall: std::time::Duration,
    fib_snapshot: String,
    cache_hits: u64,
    cache_misses: u64,
    events: u64,
    attr_clone_bytes: u64,
    batches_delivered: u64,
    updates_coalesced: u64,
    max_batch_size: u64,
    phase_pre_us: u64,
    phase_work_us: u64,
    phase_merge_us: u64,
    windows: u64,
    peak_rss_bytes: u64,
    /// True when the pre-episode `clear_refs` reset did not take effect, so
    /// the peak reading inherits earlier allocations of this process.
    peak_rss_inherited: bool,
    /// Live heap bytes after the episode converged, before the FIB snapshot
    /// string is built — the numerator of the per-device byte budget.
    /// Counts exactly the allocated state; immune to allocator retention.
    quiescent_live_bytes: u64,
    /// VmRSS at the same instant (post-trim), for context: includes
    /// whatever fragmentation the episode's churn left behind.
    quiescent_rss_bytes: u64,
    /// Adjacency-RIB footprints at quiescence, straight from the
    /// `mem.adj_rib_{in,out}_bytes` / `bgp.peer_refs` gauges — the
    /// structural slice of the RSS budget.
    adj_rib_in_bytes: u64,
    adj_rib_out_bytes: u64,
    peer_refs: u64,
}

fn equalize_doc() -> RpaDocument {
    RpaDocument::PathSelection(PathSelectionRpa::single(
        "equalize",
        PathSelectionStatement::select(
            Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
            vec![PathSet::new("all", PathSignature::any())],
        ),
    ))
}

/// One full convergence story, settled after each act by the program's own
/// loop or — `stepped` — one event at a time. The wall clock covers
/// everything after topology construction: session establishment, cold-start
/// convergence, the RPA fleet deployment and the device bounce — FADU-0/0 on
/// the five-layer tiers, the first pod's plane-0 aggregation switch on the
/// three-tier scale tiers (which have no FADU layer).
fn episode(spec: &TierSpec, stepped: bool) -> Episode {
    // Collapse the process-lifetime high-water mark to the current RSS so
    // this episode's peak reading is its own, not an earlier tier's.
    let peak_rss_inherited = !reset_peak_rss();
    let (topo, idx, _) = spec.build();
    let mut net = SimNet::new(topo, SimConfig::builder().seed(SEED).build());
    let settle = |net: &mut SimNet| -> u64 {
        if !stepped {
            return net
                .run_until_quiescent()
                .expect_converged()
                .events_processed;
        }
        let mut events = 0;
        while net.step() {
            events += 1;
        }
        events
    };
    let clone_bytes_before = centralium_bgp::attrs::attr_clone_bytes();
    let start = Instant::now();
    net.establish_all();
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    let mut events = settle(&mut net);
    for grid in &idx.ssw {
        for &ssw in grid {
            net.deploy_rpa(ssw, equalize_doc(), RPC_US);
        }
    }
    events += settle(&mut net);
    let bounce = idx
        .fadu
        .first()
        .and_then(|g| g.first())
        .or_else(|| idx.fsw.first().and_then(|p| p.first()))
        .copied()
        .expect("fabric has a FADU or aggregation device to bounce");
    net.device_down(bounce);
    events += settle(&mut net);
    net.device_up(bounce);
    events += settle(&mut net);
    let wall = start.elapsed();
    // Quiescent footprint: read before the FIB snapshot string (itself tens
    // of MB at scale) is allocated, so the budget measures the fabric, not
    // the bench's own reporting machinery. Live bytes gate the budget; the
    // RSS alongside is taken after an allocator trim so it at least excludes
    // the retention glibc *can* hand back.
    let quiescent_live_bytes = live_heap_bytes();
    trim_allocator();
    let quiescent_rss_bytes = current_rss_bytes().unwrap_or(0);

    let mut fib_snapshot = String::new();
    for id in net.device_ids() {
        let dev = net.device(id).expect("listed device exists");
        writeln!(fib_snapshot, "{id} {:?}", dev.fib).expect("string write");
    }
    let snap = net.telemetry().metrics().snapshot();
    Episode {
        wall,
        fib_snapshot,
        cache_hits: snap.counter("rpa.cache_hits"),
        cache_misses: snap.counter("rpa.cache_misses"),
        events,
        attr_clone_bytes: centralium_bgp::attrs::attr_clone_bytes() - clone_bytes_before,
        batches_delivered: snap.counter("simnet.batches_delivered"),
        updates_coalesced: snap.counter("simnet.updates_coalesced"),
        max_batch_size: snap.gauge("simnet.max_batch_size").max(0) as u64,
        phase_pre_us: snap.counter("simnet.phase.pre_us"),
        phase_work_us: snap.counter("simnet.phase.work_us"),
        phase_merge_us: snap.counter("simnet.phase.merge_us"),
        windows: snap.counter("simnet.phase.windows"),
        peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
        peak_rss_inherited,
        quiescent_live_bytes,
        quiescent_rss_bytes,
        adj_rib_in_bytes: snap.gauge("mem.adj_rib_in_bytes").max(0) as u64,
        adj_rib_out_bytes: snap.gauge("mem.adj_rib_out_bytes").max(0) as u64,
        peer_refs: snap.gauge("bgp.peer_refs").max(0) as u64,
    }
}

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
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
    let max_kb_per_device = match args.get_f64("max-kb-per-device") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let host = host_line();
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

    println!("Convergence engine baseline: seed {SEED}, {iters} iters");
    println!("host: {host}, {host_cores} cores");
    println!("episode: cold start + SSW-fleet equalize RPA + FADU bounce\n");

    let mut fib_mismatch = false;
    let mut report = Vec::new();
    let mut table = Table::new(&[
        "fabric",
        "devices",
        "median wall (ms)",
        "events",
        "events/s",
        "peak RSS MB",
        "live KB/dev",
        "attr KB cloned",
        "cache hit rate",
        "fib == stepped",
    ]);
    for (label, spec) in &fabrics {
        let devices = spec.devices();
        // Scale tiers (2k and up) cap the iteration count and skip the
        // stepped episode, printed up front so a truncated measurement never
        // reads as a full one.
        let scale_tier = devices >= SCALE_TIER_DEVICES;
        let tier_iters = if scale_tier {
            let cap = if devices >= HUGE_TIER_DEVICES {
                HUGE_TIER_ITERS
            } else {
                SCALE_TIER_ITERS
            };
            let capped = iters.min(cap);
            println!("fabric '{label}' is a scale tier: {capped} iters, no stepped episode");
            capped
        } else {
            iters
        };
        let mut walls = Vec::with_capacity(tier_iters);
        let mut last = None;
        for _ in 0..tier_iters {
            let ep = episode(spec, false);
            walls.push(ep.wall.as_secs_f64() * 1e3);
            last = Some(ep);
        }
        let ep = last.expect("at least one iteration");
        let median = median_ms(&mut walls);
        let matches_stepped =
            (!scale_tier).then(|| episode(spec, true).fib_snapshot == ep.fib_snapshot);
        fib_mismatch |= matches_stepped == Some(false);
        // Sub-millisecond medians can round to zero on coarse clocks and a
        // fresh cache has zero lookups; neither may poison the report with
        // NaN/inf, so both ratios degrade to 0.0 and the JSON carries the
        // sample counts for the reader to judge.
        let cache_samples = ep.cache_hits + ep.cache_misses;
        let hit_rate = ep.cache_hits as f64 / cache_samples.max(1) as f64;
        let events_per_sec = if median > 0.0 {
            ep.events as f64 / (median / 1e3)
        } else {
            0.0
        };
        let kb_per_device = ep.quiescent_live_bytes as f64 / 1024.0 / devices as f64;
        table.row(&[
            label.clone(),
            devices.to_string(),
            format!("{median:.2}"),
            ep.events.to_string(),
            format!("{events_per_sec:.0}"),
            format!(
                "{:.1}{}",
                ep.peak_rss_bytes as f64 / (1024.0 * 1024.0),
                if ep.peak_rss_inherited { "*" } else { "" }
            ),
            format!("{kb_per_device:.1}"),
            format!("{:.1}", ep.attr_clone_bytes as f64 / 1024.0),
            if cache_samples > 0 {
                format!("{:.1}%", hit_rate * 100.0)
            } else {
                "n/a".into()
            },
            match matches_stepped {
                Some(true) => "yes".into(),
                Some(false) => "NO".into(),
                None => "skipped".into(),
            },
        ]);
        report.push(json!({
            "fabric": label,
            "devices": devices,
            "iters": tier_iters,
            "median_wall_ms": median,
            "cache_hit_rate": hit_rate,
            "cache_samples": cache_samples,
            "cache_hits": ep.cache_hits,
            "cache_misses": ep.cache_misses,
            "events_processed": ep.events,
            "events_per_sec": events_per_sec,
            "peak_rss_bytes": ep.peak_rss_bytes,
            "peak_rss_inherited": ep.peak_rss_inherited,
            "quiescent_live_bytes": ep.quiescent_live_bytes,
            "quiescent_rss_bytes": ep.quiescent_rss_bytes,
            "quiescent_kb_per_device": kb_per_device,
            "adj_rib_in_bytes": ep.adj_rib_in_bytes,
            "adj_rib_out_bytes": ep.adj_rib_out_bytes,
            "peer_refs": ep.peer_refs,
            "attr_clone_bytes": ep.attr_clone_bytes,
            "batches_delivered": ep.batches_delivered,
            "updates_coalesced": ep.updates_coalesced,
            "max_batch_size": ep.max_batch_size,
            "phase_pre_us": ep.phase_pre_us,
            "phase_work_us": ep.phase_work_us,
            "phase_merge_us": ep.phase_merge_us,
            "windows": ep.windows,
            "fib_matches_stepped": matches_stepped,
        }));
    }
    println!("{}", table.render());

    if let Ok(Some(path)) = args.get_str("json") {
        let doc = json!({
            "seed": SEED,
            "host": host,
            "host_cores": host_cores,
            "fabrics": report,
        });
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

    if fib_mismatch {
        eprintln!("error: a windowed run produced FIBs different from the stepped run");
        return ExitCode::FAILURE;
    }
    println!("windowed FIBs byte-identical to the stepped run wherever checked");

    if let Ok(Some(path)) = args.get_str("baseline") {
        match check_baseline(&path, &report) {
            Ok(lines) => {
                for line in lines {
                    println!("{line}");
                }
            }
            Err(e) => {
                eprintln!("error: baseline gate: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(max_kb) = max_kb_per_device {
        match check_kb_per_device(&report, max_kb) {
            Ok(lines) => {
                for line in lines {
                    println!("{line}");
                }
            }
            Err(e) => {
                eprintln!("error: per-device byte budget: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// CI memory-budget gate: every *scale* fabric measured (≥
/// [`SCALE_TIER_DEVICES`] devices) must hold its quiescent live-heap
/// footprint under `max_kb` KB per device. Sub-scale fabrics are
/// skipped — on a 22-device fabric the process baseline dominates and a
/// per-device quotient measures the harness, not the RIBs.
fn check_kb_per_device(report: &[serde_json::Value], max_kb: f64) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    let mut gated = 0;
    for fabric in report {
        let label = fabric.get("fabric").and_then(|v| v.as_str()).unwrap_or("?");
        let devices = fabric.get("devices").and_then(|v| v.as_u64()).unwrap_or(0);
        if (devices as usize) < SCALE_TIER_DEVICES {
            lines.push(format!(
                "byte budget '{label}': {devices} devices is below scale, skipped"
            ));
            continue;
        }
        let kb = fabric
            .get("quiescent_kb_per_device")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("fabric '{label}' carries no quiescent_kb_per_device"))?;
        if kb <= 0.0 {
            return Err(format!(
                "fabric '{label}' reports a {kb:.1} KB/device quiescent footprint — \
                 the live-heap reading failed, which must not pass as 'under budget'"
            ));
        }
        if kb > max_kb {
            return Err(format!(
                "fabric '{label}' quiescent footprint {kb:.1} KB/device exceeds the \
                 {max_kb:.1} KB/device budget ({devices} devices)"
            ));
        }
        gated += 1;
        lines.push(format!(
            "byte budget '{label}': {kb:.1} KB/device quiescent across {devices} devices \
             (budget {max_kb:.1})"
        ));
    }
    if gated == 0 {
        return Err("--max-kb-per-device was given but no scale fabric was measured".into());
    }
    Ok(lines)
}

/// CI perf-smoke gate: compare this run's median wall time against the
/// committed baseline report, per fabric. More than 20% slower fails the run;
/// a fabric present in only one report is skipped (so the gate survives
/// adding or removing fabrics without a lockstep baseline update). FIB
/// equivalence is gated unconditionally above, not here.
///
/// The relative gate carries the same absolute clock-noise slack as
/// perf_report's overhead gate: on the tiny fabric the median is a few
/// hundred microseconds, where 20% is smaller than ordinary scheduler jitter
/// between two back-to-back runs on the same machine.
fn check_baseline(path: &str, report: &[serde_json::Value]) -> Result<Vec<String>, String> {
    const MAX_REGRESSION: f64 = 0.20;
    const SLACK_MS: f64 = 0.25;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let baseline: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let mut lines = Vec::new();
    for fabric in report {
        let label = fabric.get("fabric").and_then(|v| v.as_str()).unwrap_or("?");
        let (Some(base), Some(now)) = (
            baseline_wall_ms(&baseline, label),
            fabric.get("median_wall_ms").and_then(|v| v.as_f64()),
        ) else {
            lines.push(format!("baseline '{label}': no sample to compare, skipped"));
            continue;
        };
        let ratio = now / base;
        if now > base * (1.0 + MAX_REGRESSION) + SLACK_MS {
            return Err(format!(
                "fabric '{label}' wall regressed {:.0}%: {base:.2}ms -> {now:.2}ms \
                 (gate: {:.0}% + {SLACK_MS}ms slack)",
                (ratio - 1.0) * 100.0,
                MAX_REGRESSION * 100.0,
            ));
        }
        lines.push(format!(
            "baseline '{label}': wall {base:.2}ms -> {now:.2}ms ({:+.0}%), within gate",
            (ratio - 1.0) * 100.0,
        ));
        lines.push(phase_context(fabric));
    }
    Ok(lines)
}

/// Context printed alongside the gate verdict: where the run loop's wall
/// time went in this run.
fn phase_context(row: &serde_json::Value) -> String {
    let get = |k: &str| row.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let (pre, work, merge) = (
        get("phase_pre_us"),
        get("phase_work_us"),
        get("phase_merge_us"),
    );
    let total = (pre + work + merge).max(1) as f64;
    format!(
        "  phase split: pre {:.0}% / work {:.0}% / merge {:.0}% ({} windows)",
        100.0 * pre as f64 / total,
        100.0 * work as f64 / total,
        100.0 * merge as f64 / total,
        get("windows"),
    )
}
