//! `churn_large`: a converged five-layer fabric takes a seeded stream of
//! single changes, each run to quiescence before the next is injected.
//!
//! Batches are of size one here, so the withdraw path, un-coalesced delivery
//! and failure detection do the work the cold workloads barely touch: latency
//! per incremental update, the regime DeltaPath measures.

use crate::alloc;
use crate::fabric::{
    build_fabric, converge, fib_digest, originate_default, rack_prefix, Deterministic, Fabric,
    Outcome, Rng,
};
use crate::layers;
use crate::trace::{median, LogHist, Tracer};
use crate::Scale;
use centralium_bench::scenarios::originate_rack_prefixes;
use centralium_bench::stats::percentile;
use centralium_bench::tier::TierSpec;
use centralium_bgp::attrs::{attr_clone_bytes, well_known};
use centralium_bgp::{PeerId, Prefix};
use centralium_simnet::NetEvent;
use centralium_telemetry::MetricsSnapshot;
use centralium_topology::DeviceId;
use std::time::Instant;

/// Sizes of the workload. A flap is two changes: down, then up.
pub struct ChurnSpec {
    /// Fabric tier name.
    pub tier: &'static str,
    /// Set-ups per run (the last one carries the stream).
    pub setups: usize,
    /// Untimed warm-up flaps.
    pub warmup_flaps: usize,
    /// Timed prefix flaps (`WithdrawOrigin`, then re-originate).
    pub prefix_flaps: usize,
    /// Timed session flaps (`SessionDown` / `SessionUp` on both ends).
    pub session_flaps: usize,
    /// Timed aggregation-device bounces (`device_down` / `device_up`).
    pub bounces: usize,
}

impl ChurnSpec {
    /// 40 flaps (30 prefix, 6 session, 4 bounce) per second of `--seconds`.
    pub fn new(scale: &Scale) -> Self {
        if scale.smoke {
            return ChurnSpec {
                tier: "tiny",
                setups: 2,
                warmup_flaps: 2,
                prefix_flaps: 6,
                session_flaps: 2,
                bounces: 2,
            };
        }
        let s = scale.seconds as usize;
        ChurnSpec {
            tier: "large",
            setups: 5,
            warmup_flaps: 10,
            prefix_flaps: 30 * s,
            session_flaps: 6 * s,
            bounces: 4 * s,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flap {
    Prefix(DeviceId, Prefix),
    Session(DeviceId, DeviceId),
    Bounce(DeviceId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Prefix,
    Session,
    Bounce,
}

impl Flap {
    fn kind(&self) -> Kind {
        match self {
            Flap::Prefix(..) => Kind::Prefix,
            Flap::Session(..) => Kind::Session,
            Flap::Bounce(..) => Kind::Bounce,
        }
    }

    /// Inject the down (`up` = false) or up half of the flap.
    fn inject(&self, fab: &mut Fabric, up: bool) {
        let net = &mut fab.net;
        match *self {
            Flap::Prefix(dev, prefix) if up => {
                net.originate(dev, prefix, [well_known::RACK_PREFIX]);
            }
            Flap::Prefix(dev, prefix) => {
                net.schedule_in(0, NetEvent::WithdrawOrigin { dev, prefix });
            }
            Flap::Session(a, b) => {
                for (dev, other) in [(a, b), (b, a)] {
                    let peer = PeerId::compose(other.0, 0);
                    let event = if up {
                        NetEvent::SessionUp { dev, peer }
                    } else {
                        NetEvent::SessionDown { dev, peer }
                    };
                    net.schedule_in(0, event);
                }
            }
            Flap::Bounce(dev) if up => net.device_up(dev),
            Flap::Bounce(dev) => net.device_down(dev),
        }
    }
}

/// Converged fabric: default route plus every rack's `/24`.
pub fn set_up(tier: &TierSpec, seed: u64, tracer: &Tracer) -> Fabric {
    let mut fab = build_fabric(tier, seed, tracer);
    originate_default(&mut fab);
    originate_rack_prefixes(&mut fab);
    tracer.time("simnet", "initial_convergence", || {
        fab.net.run_until_quiescent().expect_converged()
    });
    fab
}

struct Pass {
    /// Per change: flap kind, whether it was the up half, host µs.
    samples: Vec<(Kind, bool, f64)>,
    det: Deterministic,
    /// Registry over the timed stream, and at its end.
    registry: (MetricsSnapshot, MetricsSnapshot),
    fib_entries: usize,
    attr_clone_bytes: u64,
    live_first: i64,
    live_last: i64,
}

/// Run the warm-up and the timed stream once on a fresh fabric.
#[allow(clippy::too_many_arguments)]
fn pass(
    spec: &ChurnSpec,
    tier: &TierSpec,
    seed: u64,
    stream: &[Flap],
    mut steps: Option<&mut LogHist>,
    tracer: &Tracer,
    out: &mut Outcome,
    setups: &mut Vec<f64>,
) -> Pass {
    let started = Instant::now();
    let mut fab = set_up(tier, seed, tracer);
    setups.push(started.elapsed().as_secs_f64());
    let baseline = fab.net.fib_snapshot();

    let (warmup, timed) = stream.split_at(spec.warmup_flaps);
    for flap in warmup {
        for up in [false, true] {
            flap.inject(&mut fab, up);
            fab.net.run_until_quiescent().expect_converged();
        }
    }

    let before = fab.net.telemetry().metrics().snapshot();
    let cloned_before = attr_clone_bytes();
    let mut samples = Vec::with_capacity(timed.len() * 2);
    let (mut sim_us, mut events) = (0, 0);
    let (mut live_first, mut live_last) = (0, 0);
    for (i, flap) in timed.iter().enumerate() {
        for up in [false, true] {
            tracer.next_op();
            let sim_before = fab.net.now();
            let started = Instant::now();
            let span = tracer.enter("simnet", if up { "change_up" } else { "change_down" });
            flap.inject(&mut fab, up);
            let report = converge(&mut fab.net, steps.as_deref_mut());
            tracer.exit(span);
            samples.push((flap.kind(), up, started.elapsed().as_secs_f64() * 1e6));
            out.check(report.converged, || format!("change {i}: did not converge"));
            sim_us += fab.net.now() - sim_before;
            events += report.events_processed;
        }
        if i == 0 {
            live_first = alloc::reading().live;
        }
        live_last = alloc::reading().live;
    }
    let end = fab.net.telemetry().metrics().snapshot();
    let diff = end.diff(&before);

    let after = fab.net.fib_snapshot();
    out.check(after == baseline, || {
        "FIBs after the stream differ from the FIBs before it".to_string()
    });
    let (digest, fib_entries) = fib_digest(&after);
    Pass {
        samples,
        det: Deterministic::collect(digest, sim_us, events, &diff),
        registry: (diff, end),
        fib_entries,
        attr_clone_bytes: attr_clone_bytes() - cloned_before,
        live_first,
        live_last,
    }
}

/// Run the workload; `traced` adds a second, stepped pass over the stream.
pub fn run(spec: &ChurnSpec, seed: u64, traced: bool, tracer: &Tracer, out: &mut Outcome) {
    let tier = TierSpec::by_name(spec.tier).expect("known tier");
    let mut setups = Vec::new();

    // Set-up is timed several times; only the passes keep their fabric.
    for _ in 1..spec.setups {
        let started = Instant::now();
        let fab = set_up(&tier, seed, tracer);
        setups.push(started.elapsed().as_secs_f64());
        drop(fab);
    }
    let (topo, idx, _) = tier.build();
    let racks: Vec<(DeviceId, Prefix)> = idx
        .rsw
        .iter()
        .enumerate()
        .flat_map(|(pod, rsws)| {
            rsws.iter()
                .enumerate()
                .map(move |(rack, &dev)| (dev, rack_prefix(pod, rack)))
        })
        .collect();
    let fsws: Vec<DeviceId> = idx.fsw.iter().flatten().copied().collect();
    let links: Vec<(DeviceId, DeviceId)> = topo.links().map(|l| (l.a, l.b)).collect();

    // The seeded stream: kinds shuffled, targets drawn per flap.
    let mut rng = Rng::new(seed, 2);
    let mut kinds: Vec<Kind> = [
        (Kind::Prefix, spec.prefix_flaps),
        (Kind::Session, spec.session_flaps),
        (Kind::Bounce, spec.bounces),
    ]
    .iter()
    .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
    .collect();
    rng.shuffle(&mut kinds);
    let warmup_mix = [
        Kind::Prefix,
        Kind::Prefix,
        Kind::Prefix,
        Kind::Session,
        Kind::Bounce,
    ];
    let warmup_kinds = (0..spec.warmup_flaps).map(|i| warmup_mix[i % warmup_mix.len()]);
    let stream: Vec<Flap> = warmup_kinds
        .chain(kinds)
        .map(|kind| match kind {
            Kind::Prefix => {
                let (dev, prefix) = racks[rng.below(racks.len())];
                Flap::Prefix(dev, prefix)
            }
            Kind::Session => {
                let (a, b) = links[rng.below(links.len())];
                Flap::Session(a, b)
            }
            Kind::Bounce => Flap::Bounce(fsws[rng.below(fsws.len())]),
        })
        .collect();
    out.count("tier", spec.tier);
    out.count("devices", tier.devices());
    out.count("prefixes", racks.len() + 1);
    out.count("warmup_changes", spec.warmup_flaps * 2);
    out.count("prefix_flaps", spec.prefix_flaps);
    out.count("session_flaps", spec.session_flaps);
    out.count("device_bounces", spec.bounces);
    out.count("timed_changes", (stream.len() - spec.warmup_flaps) * 2);

    let control = pass(spec, &tier, seed, &stream, None, tracer, out, &mut setups);
    let all_us: Vec<f64> = control.samples.iter().map(|s| s.2).collect();
    let of = |kind: Kind, up: Option<bool>| -> Vec<f64> {
        control
            .samples
            .iter()
            .filter(|s| s.0 == kind && up.is_none_or(|u| u == s.1))
            .map(|s| s.2)
            .collect()
    };
    let withdrawals = of(Kind::Prefix, Some(false));
    // The stream's latencies are bimodal (a withdrawal hunts paths, a
    // re-announcement does not), and the pooled median sits on the edge
    // between the modes. The withdrawal is the operation: the costliest
    // common update, and 300 samples of one mode.
    out.end_to_end(
        &setups,
        all_us.iter().sum::<f64>() / 1e6,
        median(&withdrawals) / 1e3,
        control.det.routes(),
    );
    if !traced {
        return;
    }

    let mut steps = LogHist::default();
    alloc::start_counting();
    let stepped = pass(
        spec,
        &tier,
        seed,
        &stream,
        Some(&mut steps),
        tracer,
        out,
        &mut setups,
    );
    alloc::stop_counting();
    let difference = control.det.first_difference(&stepped.det);
    out.check(difference.is_none(), || {
        format!(
            "stepped pass differs from program-loop pass: {}",
            difference.unwrap_or_default()
        )
    });

    let l = &mut out.layer;
    let (diff, end) = &control.registry;
    layers::from_registry(diff, end, control.det.events, l);
    l.insert("simnet.fib_entries", control.fib_entries as f64);
    l.insert("bgp.attr_clone_bytes", control.attr_clone_bytes as f64);
    layers::from_steps(&steps, l);
    control.det.record(control.det.sim_us as f64 / 1e3, l);
    l.insert("simnet.update_p95_us", percentile(&all_us, 95.0));
    l.insert("simnet.update_max_us", percentile(&all_us, 100.0));
    l.insert("simnet.withdraw_p50_us", median(&withdrawals));
    l.insert(
        "simnet.announce_p50_us",
        median(&of(Kind::Prefix, Some(true))),
    );
    l.insert(
        "simnet.session_flap_p50_us",
        median(&of(Kind::Session, None)),
    );
    l.insert("simnet.bounce_p50_us", median(&of(Kind::Bounce, None)));
    let stepped_us: Vec<f64> = stepped.samples.iter().map(|s| s.2).collect();
    l.insert(
        "telemetry.trace_overhead_ratio",
        stepped_us.iter().sum::<f64>() / all_us.iter().sum::<f64>(),
    );
    l.insert(
        "simnet.step_time_share",
        steps.sum() as f64 / 1e3 / stepped_us.iter().sum::<f64>(),
    );
    layers::from_live(stepped.live_first, stepped.live_last, tier.devices(), l);
    layers::from_setup_spans(&tracer.spans(), l);
}
