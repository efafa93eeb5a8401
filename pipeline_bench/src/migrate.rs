//! `migrate_inproc` and `migrate_tcp`: the paper's pipeline end to end —
//! pre-check → compile → plan → waves → convergence barrier → post-check —
//! as deploy/remove cycles of a routing intent on a converged fabric.
//!
//! In-process, narrow cycles (one governed prefix, scoped re-evaluation) and
//! wide cycles (every rack prefix governed, RPA-driven mass re-selection)
//! vary the input property the cost depends on. Over TCP the same controller
//! code runs against a loopback `AgentServer`; convergence is cheap there
//! (one prefix), so framing, JSON envelopes, the executor-thread hop and the
//! per-device RPCs weigh about as much as the emulator. Traffic crosses the
//! host loopback, not a link.

use crate::alloc;
use crate::churn;
use crate::fabric::{
    build_fabric, fib_digest, originate_default, Deterministic, Fabric, Outcome, Rng,
};
use crate::layers;
use crate::timed::TimedTransport;
use crate::trace::{durations, median, self_ns, Span, Tracer};
use crate::Scale;
use centralium::apps::decommission::protection_intent;
use centralium::apps::path_equalization::equalize_backbone_paths;
use centralium::health::TrafficProbe;
use centralium::transport::{ControlTransport, InProcessTransport, TcpTransport};
use centralium::{
    deploy_intent_over, remove_intent_over, AgentServer, DeployOptions, DeploymentStrategy,
    HealthCheck, RoutingIntent, SwitchAgent,
};
use centralium_bench::stats::percentile;
use centralium_bench::tier::TierSpec;
use centralium_bgp::attrs::{attr_clone_bytes, well_known};
use centralium_bgp::Prefix;
use centralium_nsdb::ReplicatedNsdb;
use centralium_rpa::MinNextHop;
use centralium_simnet::ManagementPlane;
use centralium_telemetry::MetricsSnapshot;
use centralium_topology::{Layer, Topology};
use std::collections::BTreeSet;
use std::time::Instant;

/// Sizes of one migrate workload. A cycle is a deploy, then a remove.
pub struct MigrateSpec {
    /// Fabric tier name.
    pub tier: &'static str,
    /// Converge on every rack `/24` besides the default route.
    pub rack_prefixes: bool,
    /// Drive the fabric through a loopback `AgentServer`.
    pub tcp: bool,
    /// Set-ups per run (the last one carries the cycles).
    pub setups: usize,
    /// Untimed narrow warm-up cycles.
    pub warmup_cycles: usize,
    /// Timed cycles, narrow and wide together.
    pub cycles: usize,
    /// Every `n`-th timed cycle is wide; `None` = all narrow.
    pub wide_every: Option<usize>,
    /// `now` round trips for the RPC latency probe (traced, TCP only).
    pub rpc_probes: usize,
}

impl MigrateSpec {
    /// `migrate_inproc`: 68 cycles per 10 s, every 8.5th wide (60 + 8).
    pub fn inproc(scale: &Scale) -> Self {
        MigrateSpec {
            tier: if scale.smoke { "tiny" } else { "large" },
            rack_prefixes: true,
            tcp: false,
            setups: if scale.smoke { 2 } else { 5 },
            warmup_cycles: if scale.smoke { 1 } else { 2 },
            cycles: if scale.smoke {
                4
            } else {
                scale.seconds as usize * 68 / 10
            },
            wide_every: Some(if scale.smoke { 4 } else { 8 }),
            rpc_probes: 0,
        }
    }

    /// `migrate_tcp`: narrow cycles only, through the service plane.
    pub fn tcp(scale: &Scale) -> Self {
        MigrateSpec {
            tier: if scale.smoke { "tiny" } else { "2k" },
            rack_prefixes: false,
            tcp: true,
            // Set-up takes ~50 ms here: more samples for a steady median.
            setups: if scale.smoke { 2 } else { 11 },
            warmup_cycles: if scale.smoke { 1 } else { 2 },
            cycles: if scale.smoke {
                2
            } else {
                scale.seconds as usize * 3
            },
            wide_every: None,
            rpc_probes: if scale.smoke { 50 } else { 1000 },
        }
    }

    fn is_wide(&self, cycle: usize) -> bool {
        self.wide_every.is_some_and(|n| cycle % n == n - 1)
    }
}

/// One kind of cycle: the intent and the checks around it.
struct Plan {
    intent: RoutingIntent,
    opts: DeployOptions,
    /// Fabric health: probe delivery, no congestion, next-hops per rack.
    healthy: HealthCheck,
    /// `healthy` plus "every target runs the document".
    deployed: HealthCheck,
}

fn plan(topo: &Topology, fab: &Fabric, intent: RoutingIntent, origination: Layer) -> Plan {
    let rsws: Vec<_> = fab.idx.rsw.iter().flatten().copied().collect();
    let healthy = HealthCheck {
        probe: Some(TrafficProbe {
            sources: rsws.clone(),
            dest: Prefix::DEFAULT,
            gbps_each: 0.01,
        }),
        max_link_utilization: Some(1.0),
        min_nexthops: rsws.iter().map(|&r| (r, Prefix::DEFAULT, 1)).collect(),
        expect_rpa: Vec::new(),
    };
    let deployed = HealthCheck {
        expect_rpa: intent
            .targets(topo)
            .into_iter()
            .map(|dev| (dev, intent.kind().to_string()))
            .collect(),
        ..healthy.clone()
    };
    Plan {
        intent,
        opts: DeployOptions::new(origination, DeploymentStrategy::SafeOrder),
        healthy,
        deployed,
    }
}

/// One timed cycle.
struct Cycle {
    wide: bool,
    deploy_ms: f64,
    remove_ms: f64,
    sim_us: u64,
    generation_ms: f64,
    waves: usize,
    issued_ops: usize,
    /// Operation ids of the deploy and the remove, for span lookup.
    ops: [u32; 2],
    live_after: i64,
}

/// Run `plans` (wide flag + plan) as deploy/remove cycles over `transport`.
/// Stops at the first call that returns an error.
fn run_cycles<T: ControlTransport>(
    nsdb: &mut ReplicatedNsdb,
    transport: &mut T,
    plans: &[(bool, &Plan)],
    tracer: &Tracer,
    out: &mut Outcome,
) -> Vec<Cycle> {
    let mut cycles = Vec::with_capacity(plans.len());
    for (i, &(wide, plan)) in plans.iter().enumerate() {
        let deploy_op = tracer.next_op();
        let started = Instant::now();
        let span = tracer.enter("core", "deploy");
        let deployed = deploy_intent_over(
            nsdb,
            transport,
            &plan.intent,
            &plan.opts,
            &plan.healthy,
            &plan.deployed,
        );
        tracer.exit(span);
        let deploy_ms = started.elapsed().as_secs_f64() * 1e3;
        let report = match deployed {
            Ok(report) => report,
            Err(e) => {
                out.check(false, || format!("cycle {i}: deploy failed: {e}"));
                break;
            }
        };
        out.check(report.post_health.passed(), || {
            format!(
                "cycle {i}: post-deploy health: {:?}",
                report.post_health.failures
            )
        });

        let remove_op = tracer.next_op();
        let started = Instant::now();
        let span = tracer.enter("core", "remove");
        let removed = remove_intent_over(nsdb, transport, &plan.intent, &plan.opts, &plan.healthy);
        tracer.exit(span);
        let remove_ms = started.elapsed().as_secs_f64() * 1e3;
        match removed {
            Ok(removal) => out.check(removal.post_health.passed(), || {
                format!(
                    "cycle {i}: post-remove health: {:?}",
                    removal.post_health.failures
                )
            }),
            Err(e) => {
                out.check(false, || format!("cycle {i}: remove failed: {e}"));
                break;
            }
        }
        cycles.push(Cycle {
            wide,
            deploy_ms,
            remove_ms,
            sim_us: report.sim_duration(),
            generation_ms: report.generation_time.as_secs_f64() * 1e3,
            waves: report.phases.len(),
            issued_ops: report.issued_ops.len(),
            ops: [deploy_op, remove_op],
            live_after: alloc::reading().live,
        });
    }
    cycles
}

/// Session-open timings of the TCP pass, ms.
#[derive(Default)]
struct SessionOpen {
    connect_ms: f64,
    topology_fetch_ms: f64,
}

struct Pass {
    cycles: Vec<Cycle>,
    session: SessionOpen,
    det: Deterministic,
    registry: (MetricsSnapshot, MetricsSnapshot),
    fib_entries: usize,
    attr_clone_bytes: u64,
    /// Events under `run_until_quiescent` (wrapped passes only).
    events: u64,
    rpc_now_us: Vec<f64>,
    tcp_retries: u64,
    nsdb_ops: (u64, u64, u64),
    nsdb_bytes: usize,
    topology: Topology,
}

fn set_up(spec: &MigrateSpec, tier: &TierSpec, seed: u64, tracer: &Tracer) -> Fabric {
    if spec.rack_prefixes {
        return churn::set_up(tier, seed, tracer);
    }
    let mut fab = build_fabric(tier, seed, tracer);
    originate_default(&mut fab);
    tracer.time("simnet", "initial_convergence", || {
        fab.net.run_until_quiescent().expect_converged()
    });
    fab
}

/// Set up, warm up and run the timed cycles once. `wrap` puts the transport
/// behind a [`TimedTransport`].
fn pass(
    spec: &MigrateSpec,
    tier: &TierSpec,
    seed: u64,
    wrap: bool,
    tracer: &Tracer,
    out: &mut Outcome,
    setups: &mut Vec<f64>,
) -> Pass {
    let started = Instant::now();
    let mut fab = set_up(spec, tier, seed, tracer);
    // The management plane hangs off a seeded rack switch.
    let racks: Vec<_> = fab.idx.rsw.iter().flatten().copied().collect();
    let root = racks[Rng::new(seed, 3).below(racks.len())];
    let mut agent = SwitchAgent::new(ManagementPlane::compute(fab.net.topology(), root));
    let mut nsdb = ReplicatedNsdb::new(2);
    setups.push(started.elapsed().as_secs_f64());

    let topology = fab.net.topology().clone();
    let narrow = plan(
        &topology,
        &fab,
        equalize_backbone_paths(well_known::BACKBONE_DEFAULT_ROUTE, Layer::Backbone),
        Layer::Backbone,
    );
    let ssws: Vec<_> = fab.idx.ssw.iter().flatten().copied().collect();
    let wide = plan(
        &topology,
        &fab,
        protection_intent(well_known::RACK_PREFIX, ssws, MinNextHop::Absolute(2)),
        Layer::Rsw,
    );
    let baseline = fab.net.fib_snapshot();

    // Warm-up runs in-process on both workloads: what it warms (interned
    // attributes, RPA caches, allocator pools) lives in the fabric.
    let warmup: Vec<(bool, &Plan)> = vec![(false, &narrow); spec.warmup_cycles];
    let off = Tracer::new(false);
    run_cycles(
        &mut nsdb,
        &mut InProcessTransport::new(&mut fab.net, &mut agent),
        &warmup,
        &off,
        out,
    );
    let timed: Vec<(bool, &Plan)> = (0..spec.cycles)
        .map(|c| {
            if spec.is_wide(c) {
                (true, &wide)
            } else {
                (false, &narrow)
            }
        })
        .collect();

    let before = fab.net.telemetry().metrics().snapshot();
    let cloned_before = attr_clone_bytes();
    let Fabric { mut net, idx: _ } = fab;
    let mut session = SessionOpen::default();
    let mut rpc_now_us = Vec::new();
    let mut tcp_retries = 0;
    let mut events = 0;
    let cycles;
    if spec.tcp {
        let server = AgentServer::bind("127.0.0.1:0", net, agent).expect("bind loopback server");
        tracer.next_op();
        let started = Instant::now();
        let span = tracer.enter("wire", "connect");
        let connected = TcpTransport::connect(&server.local_addr().to_string());
        tracer.exit(span);
        session.connect_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut tcp = connected.expect("connect + BGP preamble");
        let started = Instant::now();
        let span = tracer.enter("wire", "topology_fetch");
        let fetched = tcp.topology().map(|t| t.device_count());
        tracer.exit(span);
        session.topology_fetch_ms = started.elapsed().as_secs_f64() * 1e3;
        out.check(fetched.as_ref().is_ok_and(|&n| n == tier.devices()), || {
            format!("session open: topology fetch returned {fetched:?}")
        });
        if wrap {
            let mut timed_transport = TimedTransport::new(&mut tcp, tracer);
            cycles = run_cycles(&mut nsdb, &mut timed_transport, &timed, tracer, out);
            events = timed_transport.events();
            for _ in 0..spec.rpc_probes {
                let started = Instant::now();
                let answered = tcp.now().is_ok();
                rpc_now_us.push(started.elapsed().as_secs_f64() * 1e6);
                out.check(answered, || "now() RPC failed".to_string());
            }
        } else {
            cycles = run_cycles(&mut nsdb, &mut tcp, &timed, tracer, out);
        }
        tcp_retries = tcp
            .telemetry()
            .metrics()
            .counter("transport.tcp.retries")
            .get();
        drop(tcp);
        (net, agent) = server.shutdown();
    } else {
        let mut inproc = InProcessTransport::new(&mut net, &mut agent);
        if wrap {
            let mut timed_transport = TimedTransport::new(&mut inproc, tracer);
            cycles = run_cycles(&mut nsdb, &mut timed_transport, &timed, tracer, out);
            events = timed_transport.events();
        } else {
            cycles = run_cycles(&mut nsdb, &mut inproc, &timed, tracer, out);
        }
    }
    drop(agent);
    let end = net.telemetry().metrics().snapshot();
    let diff = end.diff(&before);

    let after = net.fib_snapshot();
    out.check(after == baseline, || {
        "FIBs after the last remove differ from the baseline".to_string()
    });
    let (digest, fib_entries) = fib_digest(&after);
    let sim_us = cycles.iter().map(|c| c.sim_us).sum();
    Pass {
        cycles,
        session,
        det: Deterministic::collect(digest, sim_us, 0, &diff),
        registry: (diff, end),
        fib_entries,
        attr_clone_bytes: attr_clone_bytes() - cloned_before,
        events,
        rpc_now_us,
        tcp_retries,
        nsdb_ops: nsdb.op_counters(),
        nsdb_bytes: nsdb.approx_bytes(),
        topology,
    }
}

/// Run the workload; `traced` adds a second pass behind a `TimedTransport`.
pub fn run(spec: &MigrateSpec, seed: u64, traced: bool, tracer: &Tracer, out: &mut Outcome) {
    let tier = TierSpec::by_name(spec.tier).expect("known tier");
    let mut setups = Vec::new();
    for _ in 1..spec.setups {
        let started = Instant::now();
        let fab = set_up(spec, &tier, seed, tracer);
        setups.push(started.elapsed().as_secs_f64());
        drop(fab);
    }
    let wide_cycles = (0..spec.cycles).filter(|&c| spec.is_wide(c)).count();
    out.count("tier", spec.tier);
    out.count("devices", tier.devices());
    out.count(
        "transport",
        if spec.tcp {
            "tcp (host loopback)"
        } else {
            "in-process"
        },
    );
    out.count("warmup_cycles", spec.warmup_cycles);
    out.count("narrow_cycles", spec.cycles - wide_cycles);
    out.count("wide_cycles", wide_cycles);

    let off = Tracer::new(false);
    let control = pass(spec, &tier, seed, false, &off, out, &mut setups);
    let narrow_deploys: Vec<f64> = control
        .cycles
        .iter()
        .filter(|c| !c.wide)
        .map(|c| c.deploy_ms)
        .collect();
    let session_open_ms = control.session.connect_ms + control.session.topology_fetch_ms;
    let wall_s = (session_open_ms
        + control
            .cycles
            .iter()
            .map(|c| c.deploy_ms + c.remove_ms)
            .sum::<f64>())
        / 1e3;
    out.end_to_end(
        &setups,
        wall_s,
        median(&narrow_deploys),
        control.det.routes(),
    );
    if !traced {
        return;
    }

    alloc::start_counting();
    let wrapped = pass(spec, &tier, seed, true, tracer, out, &mut setups);
    alloc::stop_counting();
    let difference = control.det.first_difference(&wrapped.det);
    out.check(difference.is_none(), || {
        format!(
            "wrapped pass differs from bare pass: {}",
            difference.unwrap_or_default()
        )
    });
    let spans = tracer.spans();
    layer_metrics(spec, &tier, &control, &wrapped, &spans, out);
    layers::from_setup_spans(&spans, &mut out.layer);
}

/// Per-cycle mean (ms) of the spans named `name` inside the operations `ops`.
fn per_cycle_ms(spans: &[Span], ops: &BTreeSet<u32>, cycles: usize, name: &str) -> f64 {
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == name && ops.contains(&s.op))
        .map(Span::dur_ns)
        .sum();
    total as f64 / 1e6 / cycles.max(1) as f64
}

fn layer_metrics(
    spec: &MigrateSpec,
    tier: &TierSpec,
    control: &Pass,
    wrapped: &Pass,
    spans: &[Span],
    out: &mut Outcome,
) {
    let l = &mut out.layer;
    let (diff, end) = &wrapped.registry;
    layers::from_registry(diff, end, wrapped.events, l);
    l.insert("simnet.fib_entries", wrapped.fib_entries as f64);
    l.insert("bgp.attr_clone_bytes", wrapped.attr_clone_bytes as f64);

    let of = |wide: bool, f: fn(&Cycle) -> f64| -> Vec<f64> {
        control
            .cycles
            .iter()
            .filter(|c| c.wide == wide)
            .map(f)
            .collect()
    };
    let narrow_sim: Vec<f64> = of(false, |c| c.sim_us as f64 / 1e3);
    wrapped.det.record(median(&narrow_sim), l);
    l.insert(
        "core.deploy_p75_ms",
        percentile(&of(false, |c| c.deploy_ms), 75.0),
    );
    l.insert("core.remove_p50_ms", median(&of(false, |c| c.remove_ms)));
    l.insert(
        "core.deploy_wide_p50_ms",
        median(&of(true, |c| c.deploy_ms)),
    );
    l.insert(
        "core.remove_wide_p50_ms",
        median(&of(true, |c| c.remove_ms)),
    );
    l.insert(
        "core.generation_ms",
        median(&of(false, |c| c.generation_ms)),
    );
    l.insert("core.waves", median(&of(false, |c| c.waves as f64)));
    l.insert(
        "core.issued_ops",
        median(&of(false, |c| c.issued_ops as f64)),
    );
    l.insert("core.rpc_retries", diff.counter("core.rpc_retries") as f64);

    // Where a cycle's time goes: transport-method spans under the deploy and
    // remove spans, narrow and wide cycles apart. What the methods do not
    // cover is the controller's own time, so the parts add up to the cycle.
    for wide in [false, true] {
        let cycles: Vec<&Cycle> = wrapped.cycles.iter().filter(|c| c.wide == wide).collect();
        let ops: BTreeSet<u32> = cycles.iter().flat_map(|c| c.ops).collect();
        let n = cycles.len();
        let cycle_ms = cycles
            .iter()
            .map(|c| c.deploy_ms + c.remove_ms)
            .sum::<f64>()
            / n.max(1) as f64;
        let converge_ms = per_cycle_ms(spans, &ops, n, "run_until_quiescent");
        if wide {
            l.insert(
                "core.converge_share_wide",
                if n > 0 { converge_ms / cycle_ms } else { 0.0 },
            );
            continue;
        }
        l.insert("core.converge_ms", converge_ms);
        l.insert("core.converge_share", converge_ms / cycle_ms);
        for (metric, name) in [
            ("core.health_check_ms", "health_check"),
            ("core.reconcile_ms", "reconcile"),
            ("core.poll_devices_ms", "poll_devices"),
            ("core.out_of_sync_ms", "out_of_sync_paths"),
            ("core.set_intended_ms", "set_intended"),
            ("core.clear_intended_ms", "clear_intended"),
            ("core.now_ms", "now"),
        ] {
            l.insert(metric, per_cycle_ms(spans, &ops, n, name));
        }
        let roots: Vec<u32> = (0..spans.len() as u32)
            .filter(|&i| {
                let s = &spans[i as usize];
                (s.name == "deploy" || s.name == "remove") && ops.contains(&s.op)
            })
            .collect();
        let calls = spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| roots.contains(&p)))
            .count();
        l.insert(
            "core.transport_calls_per_cycle",
            calls as f64 / n.max(1) as f64,
        );
        let self_total: u64 = roots.iter().map(|&r| self_ns(spans, r)).sum();
        let self_ms = self_total as f64 / 1e6 / n.max(1) as f64;
        l.insert("core.controller_self_ms", self_ms);
        if spec.tcp {
            l.insert("wire.service_plane_ms_per_cycle", cycle_ms - converge_ms);
            let narrow_only = |op: u32| ops.contains(&op);
            let health = durations(spans, "health_check", narrow_only);
            l.insert("wire.rpc_health_ms_p50", median(&health) / 1e6);
            let set = durations(spans, "set_intended", narrow_only);
            l.insert("wire.rpc_set_intended_us_p50", median(&set) / 1e3);
        }
    }

    if spec.tcp {
        l.insert("wire.connect_ms", control.session.connect_ms);
        l.insert("wire.topology_fetch_ms", control.session.topology_fetch_ms);
        l.insert(
            "wire.session_open_ms",
            control.session.connect_ms + control.session.topology_fetch_ms,
        );
        l.insert("wire.rpc_now_us_p50", median(&wrapped.rpc_now_us));
        l.insert("wire.rpc_now_us_p99", percentile(&wrapped.rpc_now_us, 99.0));
        l.insert("wire.tcp_retries", wrapped.tcp_retries as f64);
        // The `topology` RPC payload, without the socket.
        let started = Instant::now();
        let text = serde_json::to_string(&wrapped.topology).expect("topology serializes");
        let back: Topology = serde_json::from_str(&text).expect("topology parses");
        l.insert(
            "topology.json_roundtrip_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        assert_eq!(back.device_count(), wrapped.topology.device_count());
    }

    let (reads, writes, partial) = wrapped.nsdb_ops;
    l.insert("nsdb.reads", reads as f64);
    l.insert("nsdb.writes", writes as f64);
    l.insert("nsdb.partial_writes", partial as f64);
    l.insert("nsdb.approx_bytes", wrapped.nsdb_bytes as f64);

    let control_ms: f64 = control
        .cycles
        .iter()
        .map(|c| c.deploy_ms + c.remove_ms)
        .sum();
    let wrapped_ms: f64 = wrapped
        .cycles
        .iter()
        .map(|c| c.deploy_ms + c.remove_ms)
        .sum();
    l.insert("telemetry.trace_overhead_ratio", wrapped_ms / control_ms);
    let (first, last) = (
        wrapped.cycles.first().map_or(0, |c| c.live_after),
        wrapped.cycles.last().map_or(0, |c| c.live_after),
    );
    layers::from_live(first, last, tier.devices(), l);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_transport_forwards_results_unchanged() {
        let scale = Scale {
            seconds: 1,
            smoke: true,
        };
        for spec in [MigrateSpec::inproc(&scale), MigrateSpec::tcp(&scale)] {
            let tier = TierSpec::by_name(spec.tier).unwrap();
            let mut out = Outcome::default();
            let bare = pass(
                &spec,
                &tier,
                7,
                false,
                &Tracer::new(false),
                &mut out,
                &mut Vec::new(),
            );
            let tracer = Tracer::new(true);
            let wrapped = pass(&spec, &tier, 7, true, &tracer, &mut out, &mut Vec::new());
            assert!(out.failures.is_empty(), "{:?}", out.failures);
            // Same FIBs, same simulated time, same counts...
            assert_eq!(bare.det.first_difference(&wrapped.det), None);
            assert_eq!(bare.cycles.len(), spec.cycles);
            // ...and every transport call of every cycle under a span.
            let spans = tracer.spans();
            let deploys = spans.iter().filter(|s| s.name == "deploy").count();
            assert_eq!(deploys, spec.cycles);
            assert!(spans
                .iter()
                .any(|s| s.name == "run_until_quiescent" && s.parent.is_some()));
            assert!(wrapped.events > 0);
        }
    }
}
