//! `centralium-cli` — the operator surface of the reproduction.
//!
//! ```text
//! centralium-cli topo     [--pods N] [--planes N] ...        fabric summary
//! centralium-cli converge [--seed N]                         build + converge
//! centralium-cli compile  --intent FILE                      intent → per-switch RPAs
//! centralium-cli deploy   --intent FILE [--strategy S]       preverify + deploy + inspect
//! centralium-cli deploy   --intent FILE --connect ADDR       ... over the TCP service plane
//! centralium-cli serve    --listen ADDR [--seed N]           agent-side service plane
//! centralium-cli plan                                        Table 3 migration plans
//! ```
//!
//! Intent files are JSON-serialized [`centralium::RoutingIntent`] values;
//! see `examples/intents/`. `deploy` runs the §7.1 emulation pre-check
//! before touching the (emulated) fabric and finishes with the §7.2 debug
//! view: active RPAs per switch and the governing statement for the
//! default route.
//!
//! `serve` converges a fabric and exposes its Switch Agent over the TCP
//! service plane (JSON RPCs in `CRP1` frames); a second shell can then
//! drive it with `deploy --connect ADDR` and land FIBs byte-identical to an
//! in-process run.

use centralium::apps::app_names;
use centralium::controller::{Controller, DeployOptions};
use centralium::health::{HealthCheck, TrafficProbe};
use centralium::preverify::{emulate_and_verify, VerifyOutcome};
use centralium::sequencer::DeploymentStrategy;
use centralium::transport::TcpTransport;
use centralium::{deploy_intent_over, AgentServer, DeployError, RoutingIntent, SwitchAgent};
use centralium_bgp::attrs::well_known;
use centralium_bgp::Prefix;
use centralium_simnet::{ManagementPlane, SimConfig, SimNet};
use centralium_telemetry::{span, write_jsonl, Event, FieldValue, Telemetry};
use centralium_topology::{build_fabric, FabricSpec, Layer};
use std::io::Write;
use std::process::ExitCode;

mod args;
use args::Args;

fn main() -> ExitCode {
    // Exit quietly when stdout is a closed pipe (`centralium-cli ... | head`):
    // without a libc dependency SIGPIPE stays ignored and println! panics,
    // so intercept that one panic and treat it as a normal exit.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let is_broken_pipe = info
            .payload()
            .downcast_ref::<String>()
            .map(|m| m.contains("Broken pipe"))
            .unwrap_or(false);
        if is_broken_pipe {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = match Args::parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "topo" => cmd_topo(&args),
        "converge" => cmd_converge(&args),
        "compile" => cmd_compile(&args),
        "deploy" => cmd_deploy(&args),
        "serve" => cmd_serve(&args),
        "plan" => cmd_plan(&args),
        "apps" => {
            println!("onboarded applications ({}):", app_names().len());
            for name in app_names() {
                println!("  {name}");
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: centralium-cli <command> [options]

commands:
  topo      print a fabric summary          [--pods N --planes N --ssws N --racks N --grids N --fauus N --ebs N]
  converge  build a fabric and converge it  [fabric opts] [--seed N] [chaos opts] [telemetry opts]
  compile   compile an intent to RPAs       --intent FILE [fabric opts]
  deploy    preverify + deploy an intent    --intent FILE [--strategy safe|inverse|unordered] [--connect ADDR] [fabric opts] [--seed N] [chaos opts] [--max-retries N] [telemetry opts]
  serve     expose an agent over TCP        --listen ADDR [--serve-for-ms N] [fabric opts] [--seed N] [--max-retries N]
  plan      print the Table 3 migration plans
  apps      list the onboarded applications

service plane (CRP1-framed JSON RPCs over real sockets):
  serve --listen ADDR     converge a fabric, then accept framed RPC sessions
                          on ADDR; runs until killed, or for --serve-for-ms N
                          if given
  deploy --connect ADDR   drive the deployment through a remote agent instead
                          of the in-process transport; final FIBs are
                          byte-identical to the local path

chaos opts (deterministic fault injection; the deploy path absorbs faults
with deadline-driven RPC retries and per-device circuit breakers):
  --chaos-seed N     seed for the fault-decision hash (default 0)
  --rpc-loss P       probability each management RPC is dropped (0.0-1.0)
  --max-retries N    RPC re-issues allowed per divergence (deploy only)

telemetry opts:
  --telemetry FILE   write the structured event journal as JSON lines
  --metrics-summary  print registry counters/gauges/histograms and phase timings

profiling opts:
  --profile             enable span tracing and print a profile summary
                        (event latency, window sizes, hottest devices)
  --trace-out FILE      write a Chrome Trace Event JSON (open in Perfetto or
                        chrome://tracing); implies --profile
  --provenance PREFIX   trace the causal history of one prefix (e.g.
                        0.0.0.0/0) into the event journal and print it
                        after the run
  --provenance-out FILE write the provenance view as JSON lines (needs
                        --provenance)";

fn spec_from(args: &Args) -> Result<FabricSpec, String> {
    let mut spec = FabricSpec::tiny();
    if let Some(v) = args.get_u16("pods")? {
        spec.pods = v;
    }
    if let Some(v) = args.get_u16("planes")? {
        spec.planes = v;
    }
    if let Some(v) = args.get_u16("ssws")? {
        spec.ssws_per_plane = v;
    }
    if let Some(v) = args.get_u16("racks")? {
        spec.racks_per_pod = v;
    }
    if let Some(v) = args.get_u16("grids")? {
        spec.grids = v;
    }
    if let Some(v) = args.get_u16("fauus")? {
        spec.fauus_per_grid = v;
    }
    if let Some(v) = args.get_u16("ebs")? {
        spec.backbone_devices = v;
    }
    for (name, v) in [
        ("pods", spec.pods),
        ("planes", spec.planes),
        ("ssws", spec.ssws_per_plane),
        ("racks", spec.racks_per_pod),
        ("grids", spec.grids),
        ("fauus", spec.fauus_per_grid),
        ("ebs", spec.backbone_devices),
    ] {
        if v == 0 {
            return Err(format!("--{name} must be at least 1"));
        }
    }
    Ok(spec)
}

/// Ring capacity for `--telemetry` journals: large enough for a tiny-fabric
/// deploy end to end, bounded so a pathological run cannot eat the heap.
const JOURNAL_CAPACITY: usize = 65_536;

/// Shared `--telemetry FILE` / `--metrics-summary` epilogue for commands that
/// drive a [`SimNet`].
fn report_telemetry(net: &SimNet, args: &Args) -> Result<(), String> {
    let tel = net.telemetry();
    if let Some(path) = args.get_str("telemetry")? {
        let journal = tel.journal().ok_or("journal unexpectedly disabled")?;
        let file = std::fs::File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        let written = journal
            .export_jsonl(&mut w)
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "telemetry: {written} events written to {path} ({} recorded, {} evicted)",
            journal.recorded(),
            journal.dropped()
        );
    }
    if args.has_flag("metrics-summary") {
        let snap = tel.metrics().snapshot();
        println!("metrics:");
        for (name, v) in &snap.counters {
            println!("  {name:<40} {v}");
        }
        for (name, v) in &snap.gauges {
            println!("  {name:<40} {v}");
        }
        for (name, h) in &snap.histograms {
            match h.mean() {
                Some(mean) => {
                    println!("  {name:<40} count={} mean={mean:.2}", h.count())
                }
                None => println!("  {name:<40} count=0"),
            }
        }
        for (name, h) in &snap.log_histograms {
            match (h.mean(), h.percentile(0.5), h.percentile(0.99)) {
                (Some(mean), Some(p50), Some(p99)) => println!(
                    "  {name:<40} count={} mean={mean:.1} p50<={p50} p99<={p99}",
                    h.count()
                ),
                _ => println!("  {name:<40} count=0"),
            }
        }
        let phases: Vec<_> = tel
            .spans()
            .into_iter()
            .filter_map(|r| Some((r.phase_sim_us()?, r)))
            .collect();
        if !phases.is_empty() {
            println!("phases:");
            for (sim_us, p) in &phases {
                println!(
                    "  {:<24} wall={:>10.3?} sim={:>8.1}ms",
                    p.name,
                    std::time::Duration::from_nanos(p.dur_ns),
                    *sim_us as f64 / 1000.0
                );
            }
        }
    }
    if let Some(path) = args.get_str("trace-out")? {
        tel.set_tracing(false);
        let records = tel.spans();
        let file = std::fs::File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        span::export_chrome_trace(&records, &mut w).map_err(|e| format!("writing {path}: {e}"))?;
        w.flush().map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "trace: {} spans written to {path} ({} dropped at capacity); \
             open in chrome://tracing or ui.perfetto.dev",
            records.len(),
            tel.dropped_spans()
        );
    }
    if args.has_flag("profile") {
        print_profile_summary(&tel.metrics().snapshot());
    }
    if let Some(prefix) = args.get_str("provenance")? {
        let journal = tel.journal().ok_or("journal unexpectedly disabled")?;
        let view: Vec<Event> = journal
            .snapshot()
            .into_iter()
            .filter(|e| e.kind.is_provenance())
            .collect();
        println!(
            "provenance for {prefix}: {} records (journal: {} recorded, {} evicted)",
            view.len(),
            journal.recorded(),
            journal.dropped()
        );
        for ev in &view {
            let text = |key| ev.get(key).and_then(FieldValue::as_str).unwrap_or("");
            let from = match text("from") {
                "" => String::new(),
                d => format!(" from={d}"),
            };
            // `RpaInstall` carries its action and document instead of a detail.
            let detail = match text("detail") {
                "" => format!("{} {}", text("action"), text("document")),
                d => d.to_string(),
            };
            println!(
                "  t={:>9.3}ms {:<6} {:<16}{from} {detail}",
                ev.time_us as f64 / 1000.0,
                text("device"),
                ev.kind.name(),
            );
        }
        if let Some(path) = args.get_str("provenance-out")? {
            let file = std::fs::File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
            let mut w = std::io::BufWriter::new(file);
            write_jsonl(&view, &mut w)
                .and_then(|_| w.flush())
                .map_err(|e| format!("writing {path}: {e}"))?;
            println!("provenance: {} records written to {path}", view.len());
        }
    }
    Ok(())
}

/// The `--profile` epilogue: a compact "where did the time go" readout from
/// the always-on window/batch histograms plus the tracing-gated per-event
/// latency and per-device busy accounting.
fn print_profile_summary(snap: &centralium_telemetry::MetricsSnapshot) {
    println!("profile:");
    if let Some(lat) = snap.log_histogram("simnet.event.latency_ns") {
        if let (Some(mean), Some(p50), Some(p99)) =
            (lat.mean(), lat.percentile(0.5), lat.percentile(0.99))
        {
            println!(
                "  event latency: {} events, mean={mean:.0}ns p50<={p50}ns p99<={p99}ns",
                lat.count()
            );
        }
    }
    if let Some(jobs) = snap.log_histogram("simnet.window.jobs") {
        if let (Some(p50), Some(max)) = (jobs.percentile(0.5), jobs.percentile(1.0)) {
            println!(
                "  windows: {}, jobs/window p50<={p50} max<={max}",
                jobs.count()
            );
        }
    }
    let mut hot: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .filter(|(k, v)| k.starts_with("simnet.device.") && k.ends_with(".busy_ns") && **v > 0)
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    hot.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    if !hot.is_empty() {
        println!("  hottest devices:");
        for (name, ns) in hot.iter().take(10) {
            let dev = name
                .trim_start_matches("simnet.device.")
                .trim_end_matches(".busy_ns");
            println!("    {dev:<8} {:.3}ms", *ns as f64 / 1e6);
        }
    }
}

/// Build a [`centralium_simnet::ChaosPlan`] from `--chaos-seed` /
/// `--rpc-loss`, or `None` when
/// neither is given. Chaos decisions are a pure hash of the seed and never
/// touch the BGP RNG, so enabling it leaves convergence timing bit-identical.
fn chaos_from(args: &Args) -> Result<Option<centralium_simnet::ChaosPlan>, String> {
    let seed = args.get_u64("chaos-seed")?;
    let loss = args.get_f64("rpc-loss")?;
    if seed.is_none() && loss.is_none() {
        return Ok(None);
    }
    let loss = loss.unwrap_or(0.0);
    if !(0.0..=1.0).contains(&loss) {
        return Err(format!("--rpc-loss must be within 0.0..=1.0, got {loss}"));
    }
    Ok(Some(centralium_simnet::ChaosPlan::with_rpc_loss(
        seed.unwrap_or(0),
        loss,
    )))
}

fn converged(args: &Args) -> Result<(SimNet, centralium_topology::builder::FabricIndex), String> {
    let spec = spec_from(args)?;
    let (topo, idx, _) = build_fabric(&spec);
    let cfg = SimConfig::builder()
        .seed(args.get_u64("seed")?.unwrap_or(1))
        .build();
    let mut net = SimNet::new(topo, cfg);
    if args.get_str("telemetry")?.is_some() || args.get_str("provenance")?.is_some() {
        // The journal is opt-in; metrics and phase spans are always live.
        // Provenance is a view of the journal.
        net.set_telemetry(Telemetry::with_journal(JOURNAL_CAPACITY));
    }
    if let Some(plan) = chaos_from(args)? {
        net.set_chaos(plan);
    }
    if args.has_flag("profile") || args.get_str("trace-out")?.is_some() {
        net.telemetry().set_tracing(true);
    }
    if let Some(text) = args.get_str("provenance")? {
        let prefix: Prefix = text
            .parse()
            .map_err(|e| format!("--provenance: {e} (expected e.g. 0.0.0.0/0)"))?;
        net.trace_provenance(prefix);
    }
    net.establish_all();
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    let report = net.run_until_quiescent();
    if !report.converged {
        return Err("fabric failed to converge".into());
    }
    Ok((net, idx))
}

fn cmd_topo(args: &Args) -> Result<(), String> {
    let spec = spec_from(args)?;
    let (topo, _, _) = build_fabric(&spec);
    println!(
        "fabric: {} devices, {} links",
        topo.device_count(),
        topo.link_count()
    );
    for layer in Layer::ALL {
        let n = topo.devices_in_layer(layer).count();
        println!("  {:<5} {n}", layer.short_name());
    }
    Ok(())
}

fn cmd_converge(args: &Args) -> Result<(), String> {
    let (net, idx) = converged(args)?;
    let snap = net.telemetry().metrics().snapshot();
    println!(
        "converged at t={:.1}ms: {} messages delivered, {} announcements, {} withdrawals",
        net.now() as f64 / 1000.0,
        snap.counter("simnet.messages_delivered"),
        snap.counter("simnet.announcements"),
        snap.counter("simnet.withdrawals")
    );
    let rsw = idx.rsw[0][0];
    let dev = net.device(rsw).ok_or("rsw missing")?;
    let entry = dev
        .fib
        .entry(Prefix::DEFAULT)
        .ok_or("no default route at the rack")?;
    println!(
        "rack {} default route: {} next-hops {:?}",
        rsw,
        entry.nexthops.len(),
        entry
            .nexthops
            .iter()
            .map(|(p, w)| format!("d{}:{w}", p.device()))
            .collect::<Vec<_>>()
    );
    report_telemetry(&net, args)?;
    Ok(())
}

fn load_intent(args: &Args) -> Result<RoutingIntent, String> {
    let path = args.get_str("intent")?.ok_or("--intent FILE is required")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_compile(args: &Args) -> Result<(), String> {
    let spec = spec_from(args)?;
    let (topo, _, _) = build_fabric(&spec);
    let intent = load_intent(args)?;
    let docs = centralium::compile_intent(&topo, &intent).map_err(|e| e.to_string())?;
    println!(
        "intent '{}' compiles to {} per-switch documents",
        intent.kind(),
        docs.len()
    );
    if let Some((dev, doc)) = docs.first() {
        println!(
            "--- exemplar for device {dev} ({} LOC) ---\n{}",
            doc.loc(),
            serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?
        );
    }
    Ok(())
}

fn cmd_deploy(args: &Args) -> Result<(), String> {
    let intent = load_intent(args)?;
    let strategy = match args.get_str("strategy")?.as_deref() {
        None | Some("safe") => DeploymentStrategy::SafeOrder,
        Some("inverse") => DeploymentStrategy::InverseOrder,
        Some("unordered") => DeploymentStrategy::Unordered,
        Some(other) => return Err(format!("unknown strategy '{other}'")),
    };
    // §7.1: emulation pre-verification gates the deployment.
    print!("pre-verification on a reduced-scale fabric... ");
    match emulate_and_verify(&intent, Layer::Backbone) {
        VerifyOutcome::Passed => println!("PASSED"),
        VerifyOutcome::DeployFailed(e) => return Err(format!("pre-verification: {e}")),
        VerifyOutcome::InvariantsBroken(failures) => {
            return Err(format!(
                "pre-verification caught invariant breaks: {failures:?}"
            ))
        }
        VerifyOutcome::Unverifiable(why) => {
            println!("SKIPPED ({why}); the post-deployment health check still gates")
        }
    }
    let connect = args.get_str("connect")?;
    let (mut net, idx) = converged(args)?;
    let mut controller = Controller::new(&net, idx.rsw[0][0]);
    if let Some(max_retries) = args.get_u32("max-retries")? {
        let mut policy = *controller.agent.retry_policy();
        policy.max_retries = max_retries;
        policy.jitter_seed = args.get_u64("chaos-seed")?.unwrap_or(0);
        controller.agent.set_retry_policy(policy);
    }
    let check = HealthCheck {
        probe: Some(TrafficProbe {
            sources: idx.rsw.iter().flatten().copied().collect(),
            dest: Prefix::DEFAULT,
            gbps_each: 1.0,
        }),
        max_link_utilization: Some(1.0),
        ..Default::default()
    };
    let report = match &connect {
        Some(addr) => {
            // The fabric lives behind the socket; the controller's phases,
            // journal events and counters still record into the local
            // fabric's handle, which `report_telemetry` reads.
            println!("connecting to remote agent at {addr}...");
            let mut transport =
                TcpTransport::connect(addr).map_err(|e| DeployError::Internal(e).to_string())?;
            transport.set_telemetry(net.telemetry().clone());
            let opts = DeployOptions::new(Layer::Backbone, strategy);
            deploy_intent_over(
                &mut controller.nsdb,
                &mut transport,
                &intent,
                &opts,
                &check,
                &check,
            )
        }
        None => {
            controller.deploy_intent(&mut net, &intent, Layer::Backbone, strategy, &check, &check)
        }
    }
    .map_err(|e| e.to_string())?;
    println!(
        "deployed '{}' in {} phase(s), {} RPCs; generation {:?}; sim duration {:.1}ms",
        intent.kind(),
        report.phases.len(),
        report.issued_ops.len(),
        report.generation_time,
        report.sim_duration() as f64 / 1000.0,
    );
    for phase in &report.phases {
        println!(
            "  phase {:?}: {} devices, issued t={:.1}ms, converged t={:.1}ms",
            phase.layer.map(|l| l.short_name()).unwrap_or("-"),
            phase.devices.len(),
            phase.issued_at as f64 / 1000.0,
            phase.converged_at as f64 / 1000.0
        );
    }
    println!(
        "post-deployment health: {}",
        if report.post_health.passed() {
            "PASS".to_string()
        } else {
            format!("{:?}", report.post_health.failures)
        }
    );
    if connect.is_none() && net.chaos().is_some() {
        let snap = net.telemetry().metrics().snapshot();
        println!(
            "chaos: {} RPCs dropped, {} retried, {} circuits opened",
            snap.counter("simnet.rpc_dropped"),
            snap.counter("core.rpc_retries"),
            snap.counter("core.circuit_open"),
        );
    }
    if let Some(addr) = &connect {
        // The fabric that actually changed lives behind the socket; the
        // local one was only used for pre-verification and stays pristine.
        println!(
            "deployed over the service plane to {addr}; the remote agent holds the §7.2 state"
        );
        return report_telemetry(&net, args);
    }
    // §7.2 debug view on one target switch.
    if let Some(dev) = report.phases.first().and_then(|p| p.devices.first()) {
        let device = net.device(*dev).ok_or("device vanished")?;
        println!("device {dev} active RPAs: {:?}", device.engine.installed());
        let candidates = device.daemon.rib_in_routes(Prefix::DEFAULT);
        if let Some((doc, stmt)) = device
            .engine
            .governing_statement(Prefix::DEFAULT, &candidates)
        {
            println!("default route governed by '{doc}' statement {stmt}");
        }
    }
    report_telemetry(&net, args)?;
    Ok(())
}

/// `serve --listen ADDR`: converge a fabric locally, then hand it (plus a
/// Switch Agent rooted at the first rack switch) to an [`AgentServer`] that
/// accepts framed RPC sessions over real TCP sockets. A session is `CRP1`
/// Request and Response frames from its first byte; every request runs
/// under one lock on the fabric, so concurrent controllers serialize
/// exactly like in-process callers would.
///
/// Runs until the process is killed; `--serve-for-ms N` bounds the lifetime
/// for scripted smoke tests.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let listen = args
        .get_str("listen")?
        .ok_or("--listen ADDR is required (e.g. --listen 127.0.0.1:4271)")?;
    let (net, idx) = converged(args)?;
    println!(
        "fabric converged at t={:.1}ms ({} devices)",
        net.now() as f64 / 1000.0,
        net.topology().device_count()
    );
    let mgmt = ManagementPlane::compute(net.topology(), idx.rsw[0][0]);
    let mut agent = SwitchAgent::new(mgmt);
    if let Some(max_retries) = args.get_u32("max-retries")? {
        let mut policy = *agent.retry_policy();
        policy.max_retries = max_retries;
        policy.jitter_seed = args.get_u64("chaos-seed")?.unwrap_or(0);
        agent.set_retry_policy(policy);
    }
    let server =
        AgentServer::bind(&listen, net, agent).map_err(|e| format!("binding {listen}: {e}"))?;
    println!(
        "serving the switch agent on {} (deploy with: centralium-cli deploy --intent FILE --connect {})",
        server.local_addr(),
        server.local_addr()
    );
    match args.get_u64("serve-for-ms")? {
        Some(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            let accepted = server.connections_accepted();
            let (net, agent) = server.shutdown();
            println!(
                "served {accepted} connection(s) in {ms}ms; {} paths out of sync at shutdown",
                agent.service.store.out_of_sync().len()
            );
            report_telemetry(&net, args)?;
        }
        None => loop {
            // Serve until killed. `park` has no spurious-wakeup guarantees,
            // hence the loop.
            std::thread::park();
        },
    }
    Ok(())
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    let spec = spec_from(args)?;
    let (topo, _, _) = build_fabric(&spec);
    for plan in centralium::plan_all_categories(&topo) {
        println!(
            "{}: {} → {} steps, {:.0} → {:.1} days, {} LOC of RPA",
            plan.category,
            plan.steps_without(),
            plan.steps_with(),
            plan.days_without(),
            plan.days_with(),
            plan.rpa_loc()
        );
        for step in &plan.with_rpa {
            println!("    - {}", step.description);
        }
    }
    Ok(())
}
