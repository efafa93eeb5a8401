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
