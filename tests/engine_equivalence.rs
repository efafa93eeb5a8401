//! One run loop, two ways to drive it: `step()` takes a window of exactly one
//! event — plain pop order, the obviously-correct reference — while
//! `run_until_quiescent` and `run_until` take whole causality-safe windows,
//! one base latency wide, and run each window's events grouped by device.
//! Both must leave the same fabric behind: FIBs, clock, event count, RIB
//! consistency and every counter that counts work.
//!
//! The script is built to reach the shapes where grouping could reorder
//! work: multi-prefix batches that keep absorbing output until one latency
//! before delivery, a withdraw/re-announce race and a session flap inside one
//! wave, a Route Filter removal (route-refresh requests scheduled one latency
//! out), an RPA deadline that passes inside a window holding other jobs of
//! the same spine (the expiry is an ordinary job), and split delivery with
//! coalescing off (per-prefix messages shuffled per session). Every leg
//! checks that its windowed run grouped events at all, and the coalescing
//! legs that batches merged, so that none can pass vacuously.

use centralium_bgp::attrs::{well_known, PathAttributes};
use centralium_bgp::{FibEntry, Prefix};
use centralium_rpa::{
    Destination, NextHopWeight, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature,
    PeerSignature, PrefixFilter, RouteAttributeRpa, RouteAttributeStatement, RouteFilterRpa,
    RouteFilterStatement, RpaDocument,
};
use centralium_simnet::{verify_rib_consistency, NetEvent, SimConfig, SimNet};
use centralium_topology::builder::FabricIndex;
use centralium_topology::{
    build_fabric, build_three_tier, DeviceId, FabricSpec, ThreeTierSpec, Topology,
};
use std::collections::BTreeMap;

/// Registry counters that count work, not host time.
const DETERMINISTIC_COUNTERS: &[&str] = &[
    "simnet.announcements",
    "simnet.withdrawals",
    "simnet.messages_delivered",
    "simnet.batches_delivered",
    "simnet.updates_coalesced",
    "simnet.session_events",
    "simnet.rpa_operations",
    "simnet.rpa_failures",
    "simnet.rpa_scoped_reevals",
    "simnet.rpa_full_reevals",
    "bgp.decisions",
    "bgp.best_path_changes",
    "rpa.cache_hits",
    "rpa.cache_misses",
    "rpa.eval_fallbacks",
    "rpa.installs",
    "rpa.removals",
];

struct Outcome {
    fibs: BTreeMap<DeviceId, Vec<FibEntry>>,
    now: u64,
    events: u64,
    rib_violations: Vec<String>,
    counters: Vec<(&'static str, u64)>,
    windows: u64,
}

/// Settle the network one event at a time.
fn stepped(net: &mut SimNet) -> u64 {
    let mut events = 0;
    while net.step() {
        events += 1;
    }
    events
}

/// Settle the network in whole windows, through both entry points: a
/// deadline that falls inside the wave clips the windows of `run_until`, and
/// `run_until_quiescent` takes the rest.
fn windowed(net: &mut SimNet) -> u64 {
    let early = net.run_until(net.now() + 500);
    let rest = net
        .run_until_quiescent()
        .expect_converged()
        .events_processed;
    assert!(rest > 0, "the deadline must fall inside the wave");
    early + rest
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

/// An ingress-only filter admitting nothing but the default route, so that
/// installing it evicts the rack prefixes and removing it asks every
/// neighbor for a route refresh.
fn boundary_filter() -> RpaDocument {
    RpaDocument::RouteFilter(RouteFilterRpa {
        name: "boundary".into(),
        statements: vec![RouteFilterStatement {
            peer_signature: PeerSignature::Any,
            ingress_filter: Some(vec![PrefixFilter::exact(Prefix::DEFAULT)]),
            egress_filter: None,
        }],
    })
}

/// Weight `dev`'s default route 3:1 toward its first upstream neighbor
/// until `deadline`.
fn expiring_split(topo: &Topology, dev: DeviceId, deadline: u64) -> RpaDocument {
    let (up, _) = topo.uplinks(dev)[0];
    RpaDocument::RouteAttribute(RouteAttributeRpa::single(
        "split",
        RouteAttributeStatement::new(
            Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
            vec![NextHopWeight {
                signature: PathSignature {
                    first_asn: topo.device(up).map(|d| d.asn),
                    ..Default::default()
                },
                weight: 3,
            }],
        )
        .expires_at(deadline),
    ))
}

/// One backbone device retracts the default route and re-originates it
/// 40 µs later, well inside the propagation time of the withdraw wave.
fn withdraw_reannounce_race(net: &mut SimNet, racer: DeviceId) {
    net.schedule_in(
        0,
        NetEvent::WithdrawOrigin {
            dev: racer,
            prefix: Prefix::DEFAULT,
        },
    );
    net.schedule_in(
        40,
        NetEvent::Originate {
            dev: racer,
            prefix: Prefix::DEFAULT,
            attrs: Box::new(PathAttributes::originated([
                well_known::BACKBONE_DEFAULT_ROUTE,
            ])),
        },
    );
}

fn run_script(
    topo: Topology,
    idx: &FabricIndex,
    cfg: SimConfig,
    settle: fn(&mut SimNet) -> u64,
) -> Outcome {
    let mut net = SimNet::new(topo, cfg);
    let mut events = 0;

    // Cold origination: the default route plus a /24 from each of four racks.
    // A split on a spine expires 2 ms in, inside a window that also holds
    // deliveries of the default route to that spine (on the default fabric).
    net.establish_all();
    let spine = idx.ssw[0][0];
    let split = expiring_split(net.topology(), spine, 2_000);
    net.deploy_rpa(spine, split, 100);
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    for (rack, &rsw) in idx.rsw[0].iter().take(4).enumerate() {
        let prefix = Prefix::new(0x0A00_0000 | (rack as u32) << 8, 24);
        net.originate(rsw, prefix, [well_known::RACK_PREFIX]);
    }
    events += settle(&mut net);

    // Withdraw/re-announce race: both waves coexist in the queue.
    withdraw_reannounce_race(&mut net, idx.backbone[0]);
    events += settle(&mut net);

    // Session flap: one spine session drops and returns inside the wave.
    let peer = net.device(spine).expect("spine exists").daemon.peer_ids()[0];
    let far = DeviceId(peer.device());
    let far_peer = centralium_bgp::PeerId::compose(spine.0, peer.session_index());
    for (offset, up) in [(0, false), (150, true)] {
        for (dev, peer) in [(spine, peer), (far, far_peer)] {
            let event = if up {
                NetEvent::SessionUp { dev, peer }
            } else {
                NetEvent::SessionDown { dev, peer }
            };
            net.schedule_in(offset, event);
        }
    }
    events += settle(&mut net);

    // Device bounce.
    let agg = idx.fsw[0][0];
    net.device_down(agg);
    events += settle(&mut net);
    net.device_up(agg);
    events += settle(&mut net);

    // RPA deploy on every spine, a Route Filter on one aggregation switch,
    // then the filter's removal — with an unrelated event queued 250 µs
    // behind it, so that the removal's refresh requests (one latency, 200 µs,
    // out) must sort ahead of it.
    for plane in &idx.ssw {
        for &ssw in plane {
            net.deploy_rpa(ssw, equalize_doc(), 300);
        }
    }
    let filtered = idx.fsw[0][1];
    net.deploy_rpa(filtered, boundary_filter(), 300);
    events += settle(&mut net);
    net.remove_rpa(filtered, "boundary", 100);
    net.schedule_in(350, NetEvent::Reevaluate { dev: agg });
    events += settle(&mut net);

    let snap = net.telemetry().metrics().snapshot();
    Outcome {
        fibs: net.fib_snapshot(),
        now: net.now(),
        events,
        rib_violations: verify_rib_consistency(&net),
        counters: DETERMINISTIC_COUNTERS
            .iter()
            .map(|&name| (name, snap.counter(name)))
            .collect(),
        windows: snap.counter("simnet.phase.windows"),
    }
}

fn assert_equivalent(build: impl Fn() -> (Topology, FabricIndex), cfg: SimConfig, what: &str) {
    let coalescing = cfg.coalesce_updates;
    let (topo, idx) = build();
    let reference = run_script(topo, &idx, cfg.clone(), stepped);
    let (topo, idx) = build();
    let grouped = run_script(topo, &idx, cfg, windowed);
    assert!(reference.events > 0 && !reference.fibs.is_empty());
    assert_eq!(reference.rib_violations, Vec::<String>::new(), "{what}");
    // Neither leg may pass vacuously: the windowed run must have grouped
    // events, and with coalescing on, batches must have merged.
    assert!(
        grouped.windows < grouped.events,
        "{what}: {} windows for {} events",
        grouped.windows,
        grouped.events
    );
    let merged = grouped
        .counters
        .iter()
        .any(|&(name, n)| name == "simnet.updates_coalesced" && n > 0);
    assert_eq!(merged, coalescing, "{what}: merged batches");
    // Compare field by field: a FIB snapshot diff is unreadable, the rest
    // says where the runs parted.
    assert_eq!(reference.events, grouped.events, "{what}: event count");
    assert_eq!(reference.now, grouped.now, "{what}: final sim time");
    assert_eq!(reference.counters, grouped.counters, "{what}: counters");
    assert_eq!(
        reference.rib_violations, grouped.rib_violations,
        "{what}: RIB consistency"
    );
    assert!(reference.fibs == grouped.fibs, "{what}: FIBs differ");
}

fn default_fabric() -> (Topology, FabricIndex) {
    let (topo, idx, _) = build_fabric(&FabricSpec::default());
    (topo, idx)
}

#[test]
fn windows_match_stepping_on_the_default_fabric() {
    for seed in [7, 21, 1337] {
        let cfg = SimConfig::builder().seed(seed).build();
        assert_equivalent(default_fabric, cfg, &format!("seed {seed}"));
    }
}

#[test]
fn windows_match_stepping_with_split_delivery() {
    let cfg = SimConfig::builder().seed(7).coalesce_updates(false).build();
    assert_equivalent(default_fabric, cfg, "split delivery, seed 7");
}

#[test]
fn windows_match_stepping_on_the_2k_fabric() {
    let build = || {
        let (topo, idx, _) = build_three_tier(&ThreeTierSpec::ci_2k());
        (topo, idx)
    };
    assert_equivalent(build, SimConfig::builder().seed(7).build(), "2k, seed 7");
}
