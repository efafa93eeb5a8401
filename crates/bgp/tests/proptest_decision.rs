//! Property-based tests for the decision process and daemon behaviour.

use centralium_bgp::decision::best_route;
use centralium_bgp::{
    compare_routes, multipath_set, BgpDaemon, DaemonConfig, NativePolicy, Outbox, PathAttributes,
    PeerConfig, PeerId, Prefix, Route, UpdateMessage,
};
use centralium_topology::Asn;
use proptest::prelude::*;
use std::cmp::Ordering;

fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
    (
        proptest::collection::vec(1u32..100, 0..6),
        0u32..3,
        50u32..150,
        0u32..5,
    )
        .prop_map(|(path, origin, local_pref, med)| {
            let mut attrs = PathAttributes::default();
            for asn in path.iter().rev() {
                attrs.prepend(Asn(*asn), 1);
            }
            attrs.origin = match origin {
                0 => centralium_bgp::Origin::Igp,
                1 => centralium_bgp::Origin::Egp,
                _ => centralium_bgp::Origin::Incomplete,
            };
            attrs.local_pref = local_pref;
            attrs.med = med;
            attrs
        })
}

fn arb_routes(n: usize) -> impl Strategy<Value = Vec<Route>> {
    proptest::collection::vec(arb_attrs(), 1..n).prop_map(|attrs| {
        attrs
            .into_iter()
            .enumerate()
            .map(|(i, a)| Route::learned(Prefix::DEFAULT, a, PeerId(i as u64)))
            .collect()
    })
}

/// The default route's entry, if installed, advertises one of its
/// installed paths, and a native entry the best of them.
fn check_advertised(d: &BgpDaemon) -> Result<(), TestCaseError> {
    let Some(entry) = d.loc_rib_entry(Prefix::DEFAULT) else {
        return Ok(());
    };
    let advertised = entry.advertised().expect("a native entry advertises");
    prop_assert!(entry
        .paths()
        .iter()
        .any(|path| std::ptr::eq(path, advertised)));
    let routes: Vec<Route> = entry
        .paths()
        .iter()
        .map(|path| path.route(Prefix::DEFAULT))
        .collect();
    prop_assert_eq!(
        Some(advertised.route(Prefix::DEFAULT)),
        best_route(&routes).cloned()
    );
    Ok(())
}

/// Two hops, one preference, told apart by the ASNs (never the own, 1).
fn arb_tied_attrs() -> impl Strategy<Value = PathAttributes> {
    (2u32..6, 2u32..100).prop_map(|(first, second)| {
        let mut attrs = PathAttributes::default();
        attrs.prepend(Asn(second), 1);
        attrs.prepend(Asn(first), 1);
        attrs
    })
}

/// Session `i` announces `attrs[i]`, in the order `keys[..n]` sorts the
/// sessions, after `local` is originated; then every session withdraws, in
/// the order `keys[n..]` sorts them. One decide per step, each checked.
fn last_writer(
    attrs: &[PathAttributes],
    local: Option<&PathAttributes>,
    keys: &[u32],
) -> Result<(), TestCaseError> {
    let n = attrs.len();
    let order = |keys: &[u32]| {
        let mut sessions: Vec<usize> = (0..n).collect();
        sessions.sort_by_key(|&i| keys[i]);
        sessions
    };
    let mut d = BgpDaemon::new(DaemonConfig::fabric(Asn(1)));
    for i in 0..n {
        d.add_peer(PeerConfig::open(PeerId(i as u64), Asn(2 + i as u32), 100.0));
        d.peer_up(PeerId(i as u64), &NativePolicy);
    }
    if let Some(local) = local {
        d.originate(Prefix::DEFAULT, local.clone());
        d.decide(&NativePolicy, &mut (), &mut Outbox::default());
    }
    for i in order(&keys[..n]) {
        // Routes containing our ASN will be dropped by loop check; that
        // must not corrupt state either.
        d.ingest(
            PeerId(i as u64),
            UpdateMessage::announce(Prefix::DEFAULT, attrs[i].clone()),
            &NativePolicy,
        );
        d.decide(&NativePolicy, &mut (), &mut Outbox::default());
        check_advertised(&d)?;
    }
    let surviving = attrs.iter().filter(|a| !a.path_contains(Asn(1))).count();
    if surviving == 0 && local.is_none() {
        prop_assert!(d.loc_rib_entry(Prefix::DEFAULT).is_none());
    } else {
        let entry = d.loc_rib_entry(Prefix::DEFAULT).unwrap();
        prop_assert!(!entry.paths().is_empty());
        prop_assert!(entry.paths().len() <= surviving + usize::from(local.is_some()));
    }
    for i in order(&keys[n..2 * n]) {
        d.ingest(
            PeerId(i as u64),
            UpdateMessage::withdraw(Prefix::DEFAULT),
            &NativePolicy,
        );
        d.decide(&NativePolicy, &mut (), &mut Outbox::default());
        check_advertised(&d)?;
    }
    prop_assert_eq!(d.loc_rib_entry(Prefix::DEFAULT).is_none(), local.is_none());
    prop_assert!(d.fib().is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// compare_routes is a total order: antisymmetric and transitive over
    /// any route set (distinct sessions guarantee no true ties).
    #[test]
    fn route_comparison_is_total_order(routes in arb_routes(8)) {
        for a in &routes {
            prop_assert_eq!(compare_routes(a, a), Ordering::Equal);
            for b in &routes {
                let ab = compare_routes(a, b);
                let ba = compare_routes(b, a);
                prop_assert_eq!(ab, ba.reverse());
                for c in &routes {
                    if ab == Ordering::Greater && compare_routes(b, c) == Ordering::Greater {
                        prop_assert_eq!(compare_routes(a, c), Ordering::Greater);
                    }
                }
            }
        }
    }

    /// The multipath set always contains the best route, and every member
    /// compares Equal on preference with every other member.
    #[test]
    fn multipath_contains_best_and_is_homogeneous(routes in arb_routes(8)) {
        let mp = multipath_set(&routes);
        prop_assert!(!mp.is_empty());
        let best = routes.iter().max_by(|a, b| compare_routes(a, b)).unwrap();
        let best_idx = routes.iter().position(|r| r == best).unwrap();
        prop_assert!(mp.contains(&best_idx));
        for &i in &mp {
            for &j in &mp {
                prop_assert!(
                    centralium_bgp::PathPreference::of(&routes[i].attrs)
                        .multipath_equal(&centralium_bgp::PathPreference::of(&routes[j].attrs))
                );
            }
        }
        // Non-members are strictly less preferred than members.
        for (k, r) in routes.iter().enumerate() {
            if !mp.contains(&k) {
                prop_assert_eq!(compare_routes(best, r), Ordering::Greater);
            }
        }
    }

    /// Announce/withdraw sequences leave the daemon's Loc-RIB equal to the
    /// decision over whatever survives — and an announce-then-withdraw of
    /// everything leaves it empty, or holding the local route. After every
    /// step the entry advertises its native best.
    #[test]
    fn daemon_state_reflects_last_writer(
        attrs in proptest::collection::vec(arb_attrs(), 1..6),
        local in proptest::option::of(arb_attrs()),
        keys in proptest::collection::vec(0u32..1000, 16),
    ) {
        last_writer(&attrs, local.as_ref(), &keys)?;
    }

    /// The same, with every route of one preference: each arrival ties the
    /// incumbent and lands below, at or above the advertised path.
    #[test]
    fn tied_arrivals_keep_the_native_best_advertised(
        attrs in proptest::collection::vec(arb_tied_attrs(), 1..8),
        local in proptest::option::of(arb_tied_attrs()),
        keys in proptest::collection::vec(0u32..1000, 16),
    ) {
        last_writer(&attrs, local.as_ref(), &keys)?;
    }

    /// Weight derivation is scale-invariant: multiplying every bandwidth by
    /// a constant leaves the weights unchanged.
    #[test]
    fn wcmp_weights_scale_invariant(
        bws in proptest::collection::vec(1.0f64..1000.0, 1..8),
        scale in 0.5f64..20.0,
    ) {
        let mk = |values: &[f64]| -> Vec<Route> {
            values
                .iter()
                .enumerate()
                .map(|(i, bw)| {
                    let a = PathAttributes {
                        link_bandwidth_gbps: Some(*bw),
                        ..Default::default()
                    };
                    Route::learned(Prefix::DEFAULT, a, PeerId(i as u64))
                })
                .collect()
        };
        let w1 = centralium_bgp::wcmp::derive_weights(&mk(&bws));
        let scaled: Vec<f64> = bws.iter().map(|b| b * scale).collect();
        let w2 = centralium_bgp::wcmp::derive_weights(&mk(&scaled));
        prop_assert_eq!(w1, w2);
    }
}
