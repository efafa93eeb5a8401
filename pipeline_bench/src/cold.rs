//! `cold_2k_racks` and `cold_xl_fanin`: a fresh fabric converges on a set of
//! prefixes originated at once.
//!
//! Both run the same layers; what differs is the ratio of routes to events.
//! On the `2k` tier fifty-one prefixes travel in every coalesced batch, so
//! per-route cost (Adj-RIB ingest, decision, export fan-out, FIB trie) does
//! the work. On the `xl` tier five prefixes cross five times the devices and
//! sessions, so per-event cost (calendar queue, device access, spine fan-in)
//! does.

use crate::alloc;
use crate::fabric::{
    build_fabric, converge, fib_digest, originate_default, rack_prefix, Deterministic, Outcome, Rng,
};
use crate::layers;
use crate::trace::{median, LogHist, Tracer};
use crate::Scale;
use centralium_bench::tier::TierSpec;
use centralium_bgp::attrs::{attr_clone_bytes, well_known};
use centralium_bgp::Prefix;
use centralium_simnet::invariants::verify_rib_consistency;
use std::time::Instant;

/// Sizes of one cold workload.
pub struct ColdSpec {
    /// Fabric tier name.
    pub tier: &'static str,
    /// Pods in which one seeded rack originates its `/24`; `None` = every pod.
    pub rack_pods: Option<usize>,
    /// Episodes (fresh fabric each) in one run.
    pub episodes: usize,
    /// Set-ups timed besides the episodes' own: set-up takes tens of
    /// milliseconds here, so its median wants more than four samples.
    pub extra_setups: usize,
}

impl ColdSpec {
    fn episodes(scale: &Scale) -> usize {
        if scale.smoke {
            2
        } else {
            // One episode lasts about 2.6 s on the reference host.
            ((scale.seconds as f64 * 0.4).round() as usize).max(2)
        }
    }

    fn extra_setups(scale: &Scale) -> usize {
        if scale.smoke {
            1
        } else {
            5
        }
    }

    /// `cold_2k_racks`: default route + one rack of every pod.
    pub fn racks_2k(scale: &Scale) -> Self {
        ColdSpec {
            tier: if scale.smoke { "tiny" } else { "2k" },
            rack_pods: None,
            episodes: Self::episodes(scale),
            extra_setups: Self::extra_setups(scale),
        }
    }

    /// `cold_xl_fanin`: default route + one rack in each of four pods.
    pub fn fanin_xl(scale: &Scale) -> Self {
        ColdSpec {
            tier: if scale.smoke { "tiny" } else { "xl" },
            rack_pods: Some(if scale.smoke { 1 } else { 4 }),
            episodes: Self::episodes(scale),
            extra_setups: Self::extra_setups(scale),
        }
    }
}

struct Episode {
    setup_s: f64,
    wall_s: f64,
    det: Deterministic,
}

/// Run the workload; `traced` alternates program-loop and stepped episodes.
pub fn run(spec: &ColdSpec, seed: u64, traced: bool, tracer: &Tracer, out: &mut Outcome) {
    let tier = TierSpec::by_name(spec.tier).expect("known tier");
    // The racks that originate: one seeded rack in each chosen pod.
    let mut rng = Rng::new(seed, 1);
    let (pods, racks_per_pod) = {
        let (_, idx, _) = tier.build();
        (idx.rsw.len(), idx.rsw[0].len())
    };
    let mut pod_order: Vec<usize> = (0..pods).collect();
    rng.shuffle(&mut pod_order);
    pod_order.truncate(spec.rack_pods.unwrap_or(pods));
    let origins: Vec<(usize, usize)> = pod_order
        .iter()
        .map(|&pod| (pod, rng.below(racks_per_pod)))
        .collect();
    out.count("tier", spec.tier);
    out.count("devices", tier.devices());
    out.count("prefixes", origins.len() + 1);
    out.count("episodes", spec.episodes);

    let mut setups: Vec<f64> = Vec::new();
    for _ in 0..spec.extra_setups {
        let started = Instant::now();
        let fab = build_fabric(&tier, seed, tracer);
        setups.push(started.elapsed().as_secs_f64());
        drop(fab);
    }
    let mut control: Vec<Episode> = Vec::new();
    let mut stepped: Vec<Episode> = Vec::new();
    let mut steps = LogHist::default();
    for e in 0..spec.episodes {
        let step_this = traced && e % 2 == 1;
        if step_this {
            alloc::start_counting();
        }
        tracer.next_op();
        let episode_span = tracer.enter("bench", "episode");

        let started = Instant::now();
        let mut fab = build_fabric(&tier, seed, tracer);
        let setup_s = started.elapsed().as_secs_f64();

        let before = fab.net.telemetry().metrics().snapshot();
        let alloc_before = alloc::reading();
        let cloned_before = attr_clone_bytes();
        let sim_before = fab.net.now();
        let started = Instant::now();
        let span = tracer.enter("simnet", "originate");
        originate_default(&mut fab);
        for &(pod, rack) in &origins {
            let rsw = fab.idx.rsw[pod][rack];
            fab.net
                .originate(rsw, rack_prefix(pod, rack), [well_known::RACK_PREFIX]);
        }
        tracer.exit(span);
        let span = tracer.enter("simnet", "converge");
        let report = converge(&mut fab.net, step_this.then_some(&mut steps));
        tracer.exit(span);
        let wall_s = started.elapsed().as_secs_f64();
        let alloc_after = alloc::reading();
        let cloned = attr_clone_bytes() - cloned_before;

        let end = fab.net.telemetry().metrics().snapshot();
        let diff = end.diff(&before);
        out.check(report.converged, || {
            format!("episode {e}: did not converge")
        });
        let span = tracer.enter("simnet", "verify_rib_consistency");
        let violations = verify_rib_consistency(&fab.net);
        tracer.exit(span);
        out.check(violations.is_empty(), || {
            format!(
                "episode {e}: {} RIB inconsistencies, first: {}",
                violations.len(),
                violations[0]
            )
        });
        // The backbone devices originate the default route themselves and
        // so hold no FIB entry for it; every other device must.
        let without_default = fab
            .net
            .device_ids()
            .into_iter()
            .filter(|id| !fab.idx.backbone.contains(id))
            .filter(|&id| {
                fab.net
                    .device(id)
                    .is_none_or(|d| d.fib.entry(Prefix::DEFAULT).is_none())
            })
            .count();
        out.check(without_default == 0, || {
            format!("episode {e}: {without_default} devices lack a default-route FIB entry")
        });
        let snap_started = Instant::now();
        let snapshot = tracer.time("simnet", "fib_snapshot", || fab.net.fib_snapshot());
        let snapshot_ms = snap_started.elapsed().as_secs_f64() * 1e3;
        let (digest, entries) = fib_digest(&snapshot);
        drop(snapshot);
        let det = Deterministic::collect(
            digest,
            fab.net.now() - sim_before,
            report.events_processed,
            &diff,
        );

        if traced {
            // The program-loop episode carries the phase counters; the
            // stepped one the allocator readings. Later episodes overwrite
            // earlier ones: per seed the counts are the same.
            if step_this {
                let timed = alloc::AllocReading {
                    live: 0,
                    cumulative: alloc_after.cumulative - alloc_before.cumulative,
                    allocs: alloc_after.allocs - alloc_before.allocs,
                };
                layers::from_alloc(
                    alloc_after,
                    timed,
                    tier.devices(),
                    det.routes(),
                    &mut out.layer,
                );
            } else {
                layers::from_registry(&diff, &end, det.events, &mut out.layer);
                out.layer.insert("bgp.attr_clone_bytes", cloned as f64);
                out.layer.insert("simnet.fib_snapshot_ms", snapshot_ms);
                out.layer.insert("simnet.fib_entries", entries as f64);
            }
        }
        tracer.exit(episode_span);
        drop(fab);
        if step_this {
            alloc::stop_counting();
        }
        let episode = Episode {
            setup_s,
            wall_s,
            det,
        };
        if step_this {
            stepped.push(episode);
        } else {
            control.push(episode);
        }
    }

    // Equal seed, equal inputs: every episode must agree with the first,
    // whichever loop drove it.
    let reference = control[0].det.clone();
    for (i, ep) in control.iter().skip(1).chain(&stepped).enumerate() {
        let difference = reference.first_difference(&ep.det);
        out.check(difference.is_none(), || {
            format!(
                "episode {} differs from episode 0: {}",
                i + 1,
                difference.unwrap_or_default()
            )
        });
    }

    let stepped_events: u64 = stepped.iter().map(|e| e.det.events).sum();
    out.check(steps.count() == stepped_events, || {
        format!(
            "{} step() samples for {stepped_events} events",
            steps.count()
        )
    });

    let all: Vec<&Episode> = control.iter().chain(&stepped).collect();
    let walls: Vec<f64> = all.iter().map(|e| e.wall_s).collect();
    setups.extend(all.iter().map(|e| e.setup_s));
    out.end_to_end(
        &setups,
        walls.iter().sum(),
        median(&walls) * 1e3,
        all.iter().map(|e| e.det.routes()).sum(),
    );

    if traced {
        let l = &mut out.layer;
        reference.record(reference.sim_us as f64 / 1e3, l);
        layers::from_steps(&steps, l);
        let stepped_walls: Vec<f64> = stepped.iter().map(|e| e.wall_s).collect();
        let control_walls: Vec<f64> = control.iter().map(|e| e.wall_s).collect();
        l.insert(
            "telemetry.trace_overhead_ratio",
            median(&stepped_walls) / median(&control_walls),
        );
        // Accounting closure: the timed steps should cover the stepped wall.
        l.insert(
            "simnet.step_time_share",
            steps.sum() as f64 / 1e9 / stepped_walls.iter().sum::<f64>(),
        );
        layers::from_setup_spans(&tracer.spans(), l);
    }
}
