//! Cross-crate RPA lifecycle tests: expiry, replacement, orthogonality and
//! the debugging surface, all end-to-end through the emulator.

use centralium::health::HealthCheck;
use centralium::{ControlTransport, InProcessTransport, SwitchAgent};
use centralium_bench::scenarios::{converged_fabric, ConvergedFabric};
use centralium_bgp::attrs::{well_known, PathAttributes};
use centralium_bgp::Prefix;
use centralium_rpa::{
    Destination, NextHopWeight, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature,
    RouteAttributeRpa, RouteAttributeStatement, RpaDocument,
};
use centralium_simnet::{ManagementPlane, NetEvent, SimNet, SimTime};
use centralium_topology::{DeviceId, FabricSpec};

/// The fabric every expiry test starts from: `tiny`, seed 2020, converged.
fn fabric() -> ConvergedFabric {
    converged_fabric(&FabricSpec::tiny(), 2020)
}

/// A 3:1 split of `ssw`'s default route over its two upstream neighbors,
/// expiring at `deadline` (absolute sim µs).
fn te_split(net: &SimNet, ssw: DeviceId, deadline: SimTime) -> RpaDocument {
    let topo = net.topology();
    let neighbors: Vec<_> = topo
        .uplinks(ssw)
        .into_iter()
        .filter_map(|(up, _)| topo.device(up).map(|d| d.asn))
        .collect();
    assert_eq!(neighbors.len(), 2);
    let weight = |i: usize, weight| NextHopWeight {
        signature: PathSignature {
            first_asn: Some(neighbors[i]),
            ..Default::default()
        },
        weight,
    };
    RpaDocument::RouteAttribute(RouteAttributeRpa::single(
        "te-split",
        RouteAttributeStatement::new(
            Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
            vec![weight(0, 3), weight(1, 1)],
        )
        .expires_at(deadline),
    ))
}

/// The FIB weights of `dev`'s default route, ascending.
fn weights(net: &SimNet, dev: DeviceId) -> Vec<u32> {
    let entry = net.device(dev).unwrap().fib.entry(Prefix::DEFAULT).unwrap();
    let mut weights: Vec<u32> = entry.nexthops.iter().map(|(_, w)| *w).collect();
    weights.sort_unstable();
    weights
}

fn decisions(net: &SimNet) -> u64 {
    net.telemetry()
        .metrics()
        .snapshot()
        .counter("bgp.decisions")
}

/// Route Attribute RPAs expire: prescribed weights apply before the
/// deadline, and at the deadline itself BGP falls back to its native
/// distribution, with no other event to trigger it (§4.3 ExpirationTime).
#[test]
fn route_attribute_rpa_expires_to_native_distribution() {
    let mut fab = fabric();
    let ssw = fab.idx.ssw[0][0];
    let deadline = fab.net.now() + 2_000_000;
    let doc = te_split(&fab.net, ssw, deadline);
    fab.net.deploy_rpa(ssw, doc, 100);
    fab.net.run_until(deadline - 1);
    assert_eq!(weights(&fab.net, ssw), [1, 3], "prescribed 3:1");
    let due = fab.net.run_until(deadline);
    assert_eq!(
        weights(&fab.net, ssw),
        [1, 1],
        "expired statement falls back to ECMP"
    );
    assert_eq!(due, 1, "the expiry is the only event due");
    let rest = fab.net.run_until_quiescent().expect_converged();
    assert_eq!(rest.events_processed, 0, "a weight change sends nothing");
}

/// One step of an expiry script. Times are µs after the converged start.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Deploy the 3:1 split on the SSW, expiring at `deadline`, over an RPC
    /// taking `rpc` µs.
    Deploy { deadline: SimTime, rpc: SimTime },
    /// Make the split, expiring at `deadline`, the SSW's intended state and
    /// reconcile it through the Switch Agent.
    Intend { deadline: SimTime },
    /// Withdraw the default route at one backbone device and re-originate
    /// it 40 µs later: a wave that takes far longer than 300 µs to settle.
    Flap,
    /// Queue a crash-restart of the SSW's RPA agent at `at`.
    Restart { at: SimTime },
    /// Run to `at`; the SSW's default route has these weights (ascending).
    Weights { at: SimTime, weights: [u32; 2] },
    /// Run to `at`: exactly one event (an expiry) is due, and nothing is
    /// decided.
    Idle { at: SimTime },
    /// Step to quiescence; the SSW never holds the split on the way.
    NeverSplit,
    /// Run to quiescence: the FIBs are those of the script without any
    /// deploy.
    Settle,
    /// Poll the fleet: nothing is out of sync, a reconcile issues no op and
    /// the health check's `expect_rpa` finds the document.
    InSync,
}

/// Run one expiry script on a fresh fabric.
fn run_expiry_script(name: &str, steps: &[Step]) {
    let mut fab = fabric();
    let (ssw, racer) = (fab.idx.ssw[0][0], fab.idx.backbone[0]);
    let t0 = fab.net.now();
    let mgmt = ManagementPlane::compute(fab.net.topology(), fab.idx.rsw[0][0]);
    let mut agent = SwitchAgent::new(mgmt);
    for (i, &step) in steps.iter().enumerate() {
        let at = format!("{name}, step {i} ({step:?})");
        let net = &mut fab.net;
        match step {
            Step::Deploy { deadline, rpc } => {
                let doc = te_split(net, ssw, t0 + deadline);
                net.deploy_rpa(ssw, doc, rpc);
            }
            Step::Intend { deadline } => {
                let doc = te_split(net, ssw, t0 + deadline);
                let mut control = InProcessTransport::new(net, &mut agent);
                control.set_intended(ssw, &doc).unwrap();
                assert_eq!(control.reconcile().unwrap().len(), 1, "{at}");
            }
            Step::Flap => flap(net, racer),
            Step::Restart { at } => {
                net.schedule_in(t0 + at - net.now(), NetEvent::AgentRestart { dev: ssw });
            }
            Step::Weights { at: t, weights: w } => {
                net.run_until(t0 + t);
                assert_eq!(weights(net, ssw), w, "{at}");
            }
            Step::Idle { at: t } => {
                let before = decisions(net);
                assert_eq!(net.run_until(t0 + t), 1, "{at}: events");
                assert_eq!(decisions(net), before, "{at}: decisions");
            }
            Step::NeverSplit => {
                while net.step() {
                    assert_ne!(weights(net, ssw), [1, 3], "{at}: t = {}", net.now());
                }
            }
            Step::Settle => {
                let rest = net.run_until_quiescent().expect_converged();
                let mut reference = fabric();
                if steps.iter().any(|s| matches!(s, Step::Flap)) {
                    assert!(rest.events_processed > 0, "{at}: the wave had settled");
                    flap(&mut reference.net, racer);
                }
                reference.net.run_until_quiescent().expect_converged();
                assert!(
                    net.fib_snapshot() == reference.net.fib_snapshot(),
                    "{at}: FIBs differ from the run without a deploy"
                );
                centralium_simnet::assert_rib_consistent(net);
            }
            Step::InSync => {
                let mut control = InProcessTransport::new(net, &mut agent);
                control.poll_current().unwrap();
                assert_eq!(
                    control.out_of_sync_paths().unwrap(),
                    Vec::<String>::new(),
                    "{at}"
                );
                assert!(control.reconcile().unwrap().is_empty(), "{at}: reconcile");
                let check = HealthCheck {
                    expect_rpa: vec![(ssw, "te-split".into())],
                    ..HealthCheck::default()
                };
                let report = control.health_check(&check).unwrap();
                assert!(report.passed(), "{at}: {:?}", report.failures);
            }
        }
    }
}

fn flap(net: &mut SimNet, racer: DeviceId) {
    let prefix = Prefix::DEFAULT;
    net.schedule_in(0, NetEvent::WithdrawOrigin { dev: racer, prefix });
    let attrs = Box::new(PathAttributes::originated([
        well_known::BACKBONE_DEFAULT_ROUTE,
    ]));
    net.schedule_in(
        40,
        NetEvent::Originate {
            dev: racer,
            prefix,
            attrs,
        },
    );
}

/// An expiry is a queued event that acts only on what is installed when it
/// pops, so none of these needs a cancellation: a deadline that passes
/// mid-convergence, a replace that moves the deadline either way, an agent
/// restart before it, an install delayed past it, and a controller that
/// reconciles the expired document (it stays installed, so there is
/// nothing to re-push).
#[test]
fn expiry_edges_need_no_cancellation() {
    use Step::*;
    const S: SimTime = 1_000_000;
    let cases: &[(&str, &[Step])] = &[
        (
            "deadline mid-convergence",
            &[
                Flap,
                Deploy {
                    deadline: 300,
                    rpc: 100,
                },
                Weights {
                    at: 299,
                    weights: [1, 3],
                },
                Weights {
                    at: 300,
                    weights: [1, 1],
                },
                Settle,
            ],
        ),
        (
            "replace moves the deadline later",
            &[
                Deploy {
                    deadline: S,
                    rpc: 100,
                },
                Weights {
                    at: S / 2,
                    weights: [1, 3],
                },
                Deploy {
                    deadline: 2 * S,
                    rpc: 100,
                },
                Weights {
                    at: S - 1,
                    weights: [1, 3],
                },
                Idle { at: S },
                Weights {
                    at: S,
                    weights: [1, 3],
                },
                Weights {
                    at: 2 * S - 1,
                    weights: [1, 3],
                },
                Weights {
                    at: 2 * S,
                    weights: [1, 1],
                },
                Settle,
            ],
        ),
        (
            "replace moves the deadline earlier",
            &[
                Deploy {
                    deadline: 2 * S,
                    rpc: 100,
                },
                Weights {
                    at: S / 2,
                    weights: [1, 3],
                },
                Deploy {
                    deadline: S,
                    rpc: 100,
                },
                Weights {
                    at: S - 1,
                    weights: [1, 3],
                },
                Weights {
                    at: S,
                    weights: [1, 1],
                },
                Weights {
                    at: 2 * S - 1,
                    weights: [1, 1],
                },
                Idle { at: 2 * S },
                Settle,
            ],
        ),
        (
            "agent restart before the deadline",
            &[
                Deploy {
                    deadline: 2 * S,
                    rpc: 100,
                },
                Weights {
                    at: S / 2,
                    weights: [1, 3],
                },
                Restart { at: S },
                Weights {
                    at: 2 * S - 1,
                    weights: [1, 1],
                },
                Idle { at: 2 * S },
                Settle,
            ],
        ),
        (
            "install delayed past its deadline",
            &[
                Deploy {
                    deadline: 1_000,
                    rpc: 5_000,
                },
                NeverSplit,
                Settle,
            ],
        ),
        (
            "reconciled through the Switch Agent past the deadline",
            &[
                Intend { deadline: S },
                Weights {
                    at: S - 1,
                    weights: [1, 3],
                },
                Weights {
                    at: S,
                    weights: [1, 1],
                },
                Settle,
                InSync,
            ],
        ),
    ];
    for (name, steps) in cases {
        run_expiry_script(name, steps);
    }
}

/// Re-deploying a document with the same name replaces it in place, and
/// orthogonal RPAs (different destinations) coexist without interference.
#[test]
fn replacement_and_orthogonality() {
    let mut fab = converged_fabric(&FabricSpec::tiny(), 2021);
    let ssw = fab.idx.ssw[0][0];
    let make = |min: usize| {
        RpaDocument::PathSelection(PathSelectionRpa::single(
            "guard",
            PathSelectionStatement::native_guard(
                Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
                centralium_rpa::MinNextHop::Absolute(min),
                true,
            ),
        ))
    };
    fab.net.deploy_rpa(ssw, make(1), 100);
    fab.net.run_until_quiescent().expect_converged();
    // Replace with a stricter guard under the same name.
    fab.net.deploy_rpa(ssw, make(2), 100);
    fab.net.run_until_quiescent().expect_converged();
    let dev = fab.net.device(ssw).unwrap();
    assert_eq!(
        dev.engine.installed(),
        vec!["guard"],
        "replaced, not duplicated"
    );
    // An orthogonal RPA for a different destination coexists.
    let anycast = RpaDocument::PathSelection(PathSelectionRpa::single(
        "anycast",
        PathSelectionStatement::select(
            Destination::Community(well_known::ANYCAST_VIP),
            vec![PathSet::new("all", PathSignature::any())],
        ),
    ));
    fab.net.deploy_rpa(ssw, anycast, 100);
    fab.net.run_until_quiescent().expect_converged();
    let dev = fab.net.device(ssw).unwrap();
    // Listed in name order, the order that gives precedence.
    assert_eq!(dev.engine.installed(), vec!["anycast", "guard"]);
    // The default route is still governed by the guard statement, not the
    // anycast one (§7.2: highlight the active RPA for a route).
    let candidates: Vec<_> = dev.daemon.rib_in_routes(Prefix::DEFAULT).to_vec();
    let governing = dev.engine.governing_statement(Prefix::DEFAULT, &candidates);
    assert_eq!(governing, Some(("guard".to_string(), 0)));
    // Default-route behaviour is unaffected by the anycast RPA.
    assert_eq!(dev.fib.entry(Prefix::DEFAULT).unwrap().nexthops.len(), 2);
}

/// Removing an RPA mid-flight restores native selection without churn
/// beyond the affected prefixes.
#[test]
fn removal_is_clean() {
    let mut fab = converged_fabric(&FabricSpec::tiny(), 2022);
    let ssw = fab.idx.ssw[0][0];
    let doc = RpaDocument::PathSelection(PathSelectionRpa::single(
        "equalize",
        PathSelectionStatement::select(
            Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
            vec![PathSet::new("all", PathSignature::any())],
        ),
    ));
    fab.net.deploy_rpa(ssw, doc, 100);
    fab.net.run_until_quiescent().expect_converged();
    let before = fab
        .net
        .device(ssw)
        .unwrap()
        .fib
        .entry(Prefix::DEFAULT)
        .unwrap()
        .clone();
    fab.net.remove_rpa(ssw, "equalize", 100);
    fab.net.run_until_quiescent().expect_converged();
    let dev = fab.net.device(ssw).unwrap();
    assert!(dev.engine.installed().is_empty());
    // Symmetric fabric: native selection picks the same two paths.
    let after = dev.fib.entry(Prefix::DEFAULT).unwrap();
    assert_eq!(before.nexthops, after.nexthops);
    centralium_simnet::assert_rib_consistent(&fab.net);
}

/// Lifting a Route Filter RPA restores routes the filter evicted: the
/// emulator issues route-refresh requests to every neighbor on removal.
#[test]
fn removing_a_route_filter_restores_evicted_routes() {
    use centralium_rpa::{PeerSignature, PrefixFilter, RouteFilterRpa, RouteFilterStatement};
    let mut fab = converged_fabric(&FabricSpec::tiny(), 2023);
    let rogue: Prefix = "99.99.99.0/24".parse().unwrap();
    fab.net.originate(fab.idx.backbone[0], rogue, []);
    fab.net.run_until_quiescent().expect_converged();
    let fauu = fab.idx.fauu[0][0];
    assert!(fab
        .net
        .device(fauu)
        .unwrap()
        .daemon
        .loc_rib_entry(rogue)
        .is_some());
    // Deploy a boundary filter that admits only the default route: the
    // rogue /24 is evicted from the RIB.
    let doc = RpaDocument::RouteFilter(RouteFilterRpa {
        name: "boundary".into(),
        statements: vec![RouteFilterStatement {
            peer_signature: PeerSignature::AsnRange(
                centralium_topology::Asn(60_000),
                centralium_topology::Asn(69_999),
            ),
            ingress_filter: Some(vec![PrefixFilter::exact(Prefix::DEFAULT)]),
            egress_filter: None,
        }],
    });
    fab.net.deploy_rpa(fauu, doc, 100);
    fab.net.run_until_quiescent().expect_converged();
    assert!(fab
        .net
        .device(fauu)
        .unwrap()
        .daemon
        .loc_rib_entry(rogue)
        .is_none());
    // Lift the filter: the route-refresh machinery re-learns the route
    // without bouncing any session.
    fab.net.remove_rpa(fauu, "boundary", 100);
    fab.net.run_until_quiescent().expect_converged();
    assert!(
        fab.net
            .device(fauu)
            .unwrap()
            .daemon
            .loc_rib_entry(rogue)
            .is_some(),
        "route restored via refresh after the filter was lifted"
    );
    centralium_simnet::assert_rib_consistent(&fab.net);
}

/// An `AsnRange` Route Filter on a fabric switch, covering the AS of one
/// rack switch below it and not the other's, admits only the default route
/// from the covered rack and sends it only rack prefixes; the other rack's
/// session is unconstrained. The daemon hands the hook each session's
/// remote AS, so a session recabled to a rack outside the range is
/// unconstrained too. Both FIB snapshots are pinned by digest.
#[test]
fn an_asn_range_route_filter_follows_each_sessions_asn() {
    use centralium_bench::scenarios::originate_rack_prefixes;
    use centralium_bgp::PeerId;
    use centralium_rpa::{PeerSignature, PrefixFilter, RouteFilterRpa, RouteFilterStatement};
    use centralium_simnet::verify_rib_consistency;
    use centralium_topology::{MigrationStage, TopologyDelta};

    /// FNV-1a over the printed FIB snapshot.
    fn fib_digest(net: &SimNet) -> u64 {
        let text = format!("{:?}", net.fib_snapshot());
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    let mut fab = fabric();
    let racks = originate_rack_prefixes(&mut fab);
    fab.net.run_until_quiescent().expect_converged();
    let fsw = fab.idx.fsw[0][0];
    let [(rsw0, rack0), (rsw1, rack1)] = [racks[0], racks[1]];
    let (far, far_rack) = racks[2];
    let net = &mut fab.net;
    let device = |net: &SimNet, d: DeviceId| net.topology().device(d).unwrap().clone();
    let covered = device(net, rsw0).asn;
    assert!(device(net, rsw1).asn != covered && device(net, far).asn != covered);
    net.deploy_rpa(
        fsw,
        RpaDocument::RouteFilter(RouteFilterRpa {
            name: "rack-boundary".into(),
            statements: vec![RouteFilterStatement {
                peer_signature: PeerSignature::AsnRange(covered, covered),
                ingress_filter: Some(vec![PrefixFilter::exact(Prefix::DEFAULT)]),
                egress_filter: Some(vec![PrefixFilter::within(
                    "10.0.0.0/8".parse().unwrap(),
                    24,
                )]),
            }],
        }),
        100,
    );
    net.run_until_quiescent().expect_converged();
    let session = |d: DeviceId| PeerId::compose(d.0, 0);
    let learned = |net: &SimNet, prefix, from: DeviceId| {
        let routes = net.device(fsw).unwrap().daemon.rib_in_routes(prefix);
        routes.iter().any(|r| r.learned_from == Some(session(from)))
    };
    let sent = |net: &SimNet, to: DeviceId, prefix| {
        let daemon = &net.device(fsw).unwrap().daemon;
        daemon.advertised_to(session(to), prefix).is_some()
    };
    // The covered rack: only the default route in, only rack prefixes out.
    assert!(!learned(net, rack0, rsw0), "ingress filter admitted a rack");
    assert!(
        !sent(net, rsw0, Prefix::DEFAULT),
        "egress filter sent default"
    );
    assert!(sent(net, rsw0, rack1));
    // The other rack: unconstrained either way.
    assert!(learned(net, rack1, rsw1));
    assert!(sent(net, rsw1, Prefix::DEFAULT));
    assert_eq!(verify_rib_consistency(net), Vec::<String>::new());
    assert_eq!(fib_digest(net), 3_140_393_537_774_364_189);

    // Recable: the covered rack's uplink to the fabric switch goes, and a
    // rack of the other pod, outside the range, is cabled in its place.
    let uplink = net.topology().links().find(|l| (l.a, l.b) == (rsw0, fsw));
    let stage = MigrationStage::new(
        "recable",
        vec![
            TopologyDelta::RemoveLink {
                id: uplink.expect("the covered rack's uplink").id,
            },
            TopologyDelta::AddLinkByName {
                a: device(net, far).name,
                b: device(net, fsw).name,
                capacity_gbps: 100.0,
            },
        ],
    );
    net.apply_migration_stage(&stage).unwrap();
    net.run_until_quiescent().expect_converged();
    assert!(!net
        .device(fsw)
        .unwrap()
        .daemon
        .is_established(session(rsw0)));
    assert!(learned(net, far_rack, far), "the recabled rack is filtered");
    assert!(sent(net, far, Prefix::DEFAULT));
    assert_eq!(verify_rib_consistency(net), Vec::<String>::new());
    assert_eq!(fib_digest(net), 701_541_650_787_439_160);
}
