//! Stage-by-stage RSS attribution for one bench tier.
//!
//! The per-device byte budget (`bench_convergence --max-kb-per-device`)
//! gates a single VmRSS number; when a tier blows it, this probe says
//! *where* — how much of the footprint is the topology, the wired fabric
//! (daemons, peer configs, engines), and the converged state
//! (RIBs, FIBs, retained queue/arena capacity). Each reading follows a
//! `malloc_trim`, so stages measure live data, not allocator caching.
//!
//! ```sh
//! cargo run --release -p centralium-bench --bin mem_probe -- --fabric xxl
//! ```

use centralium::prelude::*;
use centralium_bench::alloc::{live_heap_bytes, CountingAlloc};
use centralium_bench::tier::{current_rss_bytes, trim_allocator, TierSpec};
use centralium_rpa::RpaEngine;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn rss_mb() -> f64 {
    trim_allocator();
    current_rss_bytes().unwrap_or(0) as f64 / (1 << 20) as f64
}

fn live_mb() -> f64 {
    live_heap_bytes() as f64 / (1 << 20) as f64
}

fn main() -> ExitCode {
    let mut fabric = String::from("xl");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fabric" => match args.next() {
                Some(f) => fabric = f,
                None => {
                    eprintln!("--fabric needs a tier name");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown flag '{other}' (usage: mem_probe [--fabric TIER])");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(spec) = TierSpec::by_name(&fabric) else {
        eprintln!("unknown fabric tier '{fabric}'");
        return ExitCode::FAILURE;
    };

    let base = rss_mb();
    let devices = spec.devices() as f64;
    let report = |stage: &str, prev: f64| {
        let now = rss_mb();
        let live = live_mb();
        println!(
            "{stage:<28} {live:9.1} MB live ({:6.2} KB/device)   {now:9.1} MB rss   +{:8.1} MB rss",
            live * 1024.0 / devices,
            now - prev,
        );
        now
    };
    println!(
        "tier '{fabric}' ({} devices), baseline {base:.1} MB",
        spec.devices()
    );

    let (topo, idx, _) = spec.build();
    let after_topo = report("topology built", base);

    let mut net = SimNet::new(topo, SimConfig::builder().seed(7).build());
    let after_wire = report("fabric wired", after_topo);

    net.establish_all();
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    let report_run = net.run_until_quiescent();
    assert!(report_run.converged, "cold start must converge");
    let after_converge = report("cold start converged", after_wire);

    let snap = net.telemetry().metrics().snapshot();
    for gauge in [
        "mem.adj_rib_in_bytes",
        "mem.adj_rib_out_bytes",
        "mem.event_queue_bytes",
        "mem.device_arena_bytes",
    ] {
        println!(
            "  {gauge:<26} {:9.1} MB",
            snap.gauge(gauge).max(0) as f64 / (1 << 20) as f64
        );
    }

    // Destructive attribution: tear structures out of the converged network
    // one class at a time and watch how much RSS each release actually
    // returns. The network is dead after this — measurement only.
    let ids = net.device_ids();
    let mut prev = after_converge;
    for &id in &ids {
        let dev = net.device_mut(id).expect("listed device exists");
        dev.fib = centralium_simnet::Fib::new(0);
    }
    prev = report("fibs dropped", prev);
    for &id in &ids {
        let dev = net.device_mut(id).expect("listed device exists");
        dev.engine = RpaEngine::new();
    }
    prev = report("engines dropped", prev);
    drop(net);
    report("whole net dropped", prev);
    ExitCode::SUCCESS
}
