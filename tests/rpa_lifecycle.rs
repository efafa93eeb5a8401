//! Cross-crate RPA lifecycle tests: expiry, replacement, orthogonality and
//! the debugging surface, all end-to-end through the emulator.

use centralium_bench::scenarios::converged_fabric;
use centralium_bgp::attrs::well_known;
use centralium_bgp::Prefix;
use centralium_rpa::{
    Destination, NextHopWeight, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature,
    RouteAttributeRpa, RouteAttributeStatement, RpaDocument,
};
use centralium_simnet::NetEvent;
use centralium_topology::{Asn, FabricSpec};

/// Route Attribute RPAs expire: prescribed weights apply before the
/// deadline and BGP falls back to its native distribution on the first
/// re-evaluation after it (§4.3 ExpirationTime).
#[test]
fn route_attribute_rpa_expires_to_native_distribution() {
    let mut fab = converged_fabric(&FabricSpec::tiny(), 2020);
    let ssw = fab.idx.ssw[0][0];
    // Prescribe a 3:1 split toward the SSW's two FADU neighbors, expiring
    // at t = +2 seconds.
    let neighbors: Vec<Asn> = fab
        .net
        .topology()
        .uplinks(ssw)
        .into_iter()
        .filter_map(|(up, _)| fab.net.topology().device(up).map(|d| d.asn))
        .collect();
    assert_eq!(neighbors.len(), 2);
    let deadline = fab.net.now() + 2_000_000;
    let doc = RpaDocument::RouteAttribute(RouteAttributeRpa::single(
        "te-split",
        RouteAttributeStatement::new(
            Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
            vec![
                NextHopWeight {
                    signature: PathSignature {
                        first_asn: Some(neighbors[0]),
                        ..Default::default()
                    },
                    weight: 3,
                },
                NextHopWeight {
                    signature: PathSignature {
                        first_asn: Some(neighbors[1]),
                        ..Default::default()
                    },
                    weight: 1,
                },
            ],
        )
        .expires_at(deadline),
    ));
    fab.net.deploy_rpa(ssw, doc, 100);
    fab.net.run_until_quiescent().expect_converged();
    let weights: Vec<u32> = fab
        .net
        .device(ssw)
        .unwrap()
        .fib
        .entry(Prefix::DEFAULT)
        .unwrap()
        .nexthops
        .iter()
        .map(|(_, w)| *w)
        .collect();
    assert!(
        weights.contains(&3) && weights.contains(&1),
        "prescribed 3:1, got {weights:?}"
    );
    // Past the deadline, any event that re-runs the decision falls back to
    // native (equal) distribution. Trigger one via a drain/undrain bounce
    // far in the future.
    let fadu = fab.idx.fadu[0][0];
    fab.net.schedule_in(
        3_000_000,
        NetEvent::SetExportPolicy {
            dev: fadu,
            policy: centralium_bgp::policy::Policy::accept_all(),
        },
    );
    fab.net.run_until_quiescent().expect_converged();
    // Force re-evaluation on the SSW itself (production re-applies RPAs on
    // any local event; model with an explicit reevaluate via a no-op deploy).
    fab.net.deploy_rpa(
        ssw,
        RpaDocument::PathSelection(PathSelectionRpa::single(
            "noop",
            PathSelectionStatement::select(
                Destination::PrefixExact("203.0.113.0/24".parse().unwrap()),
                vec![PathSet::new("none", PathSignature::any())],
            ),
        )),
        100,
    );
    fab.net.run_until_quiescent().expect_converged();
    let weights: Vec<u32> = fab
        .net
        .device(ssw)
        .unwrap()
        .fib
        .entry(Prefix::DEFAULT)
        .unwrap()
        .nexthops
        .iter()
        .map(|(_, w)| *w)
        .collect();
    assert_eq!(weights, vec![1, 1], "expired statement falls back to ECMP");
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
