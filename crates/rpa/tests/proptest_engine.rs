//! Property-based tests for the RPA engine: cache transparency, priority
//! semantics, and document serialization laws.

use centralium_bgp::attrs::well_known;
use centralium_bgp::{Community, PathAttributes, PathChoice, PeerId, Prefix, RibPolicy, Route};
use centralium_rpa::{
    Destination, NextHopWeight, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature,
    RouteAttributeRpa, RouteAttributeStatement, RpaDocument, RpaEngine,
};
use centralium_topology::Asn;
use proptest::prelude::*;

fn arb_route() -> impl Strategy<Value = Route> {
    (
        proptest::collection::vec(1u32..200_000, 1..6),
        proptest::bool::ANY,
        0u64..8,
    )
        .prop_map(|(path, tagged, peer)| {
            let mut attrs = PathAttributes::default();
            for asn in path.iter().rev() {
                attrs.prepend(Asn(*asn), 1);
            }
            if tagged {
                attrs.add_community(well_known::BACKBONE_DEFAULT_ROUTE);
            }
            Route::learned(Prefix::DEFAULT, attrs, PeerId(peer))
        })
}

fn equalize_engine(cache: bool) -> RpaEngine {
    let mut e = RpaEngine::new();
    e.set_cache_enabled(cache);
    e.install(RpaDocument::PathSelection(PathSelectionRpa::single(
        "equalize",
        PathSelectionStatement::select(
            Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
            vec![PathSet::new("any", PathSignature::as_path("\\d+$"))],
        ),
    )))
    .unwrap();
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The evaluation cache is semantically transparent: cached and uncached
    /// engines agree on every selection, for any candidate set, evaluated
    /// repeatedly.
    #[test]
    fn cache_is_semantically_transparent(candidates in proptest::collection::vec(arb_route(), 1..8)) {
        let cached = equalize_engine(true);
        let uncached = equalize_engine(false);
        for _ in 0..3 {
            let a = cached.select_paths(Prefix::DEFAULT, &candidates);
            let b = uncached.select_paths(Prefix::DEFAULT, &candidates);
            prop_assert_eq!(a, b);
        }
    }

    /// A selection, when made, only ever contains candidates matching the
    /// path-set signature, and respects the min-next-hop floor.
    #[test]
    fn selection_respects_signature_and_floor(
        candidates in proptest::collection::vec(arb_route(), 1..10),
        min in 1usize..4,
    ) {
        let mut e = RpaEngine::new();
        e.install(RpaDocument::PathSelection(PathSelectionRpa::single(
            "origin-band",
            PathSelectionStatement::select(
                Destination::Any,
                vec![PathSet::new(
                    "low-band",
                    // Origin ASN below 100_000.
                    PathSignature::as_path("(^| )\\d{1,5}$"),
                )
                .with_min_next_hop(min)],
            ),
        )))
        .unwrap();
        let matching = candidates
            .iter()
            .filter(|r| r.attrs.origin_asn().map(|a| a.0 < 100_000).unwrap_or(false))
            .count();
        match e.select_paths(Prefix::DEFAULT, &candidates) {
            PathChoice::Rpa(sel) => {
                prop_assert!(matching >= min);
                prop_assert_eq!(sel.selected.len(), matching);
                for i in sel.selected {
                    let origin = candidates[i].attrs.origin_asn().unwrap();
                    prop_assert!(origin.0 < 100_000);
                }
            }
            PathChoice::Native(guard) => {
                prop_assert!(matching < min, "fallback only when the floor is unmet");
                prop_assert_eq!(guard, None);
            }
        }
    }

    /// Route Attribute weights are parallel to the input and every weight
    /// comes from the matched entry or defaults to 1.
    #[test]
    fn weights_are_parallel_and_positive(
        selected in proptest::collection::vec(arb_route(), 1..8),
        w in 1u32..32,
    ) {
        let mut e = RpaEngine::new();
        e.install(RpaDocument::RouteAttribute(RouteAttributeRpa::single(
            "weights",
            RouteAttributeStatement::new(
                Destination::Any,
                vec![NextHopWeight {
                    signature: PathSignature::with_community(well_known::BACKBONE_DEFAULT_ROUTE),
                    weight: w,
                }],
            ),
        )))
        .unwrap();
        let weights = e.assign_weights(Prefix::DEFAULT, &selected).unwrap();
        prop_assert_eq!(weights.len(), selected.len());
        for (route, weight) in selected.iter().zip(&weights) {
            if route.attrs.has_community(well_known::BACKBONE_DEFAULT_ROUTE) {
                prop_assert_eq!(*weight, w);
            } else {
                prop_assert_eq!(*weight, 1);
            }
        }
    }

    /// Documents roundtrip through JSON and report stable LOC.
    #[test]
    fn documents_roundtrip_and_loc_is_stable(
        n_sets in 1usize..4,
        min in 1usize..5,
        fib_warm in proptest::bool::ANY,
    ) {
        let doc = RpaDocument::PathSelection(PathSelectionRpa::single(
            "doc",
            PathSelectionStatement {
                destination: Destination::Community(Community::from_pair(65000, 7)),
                path_set_list: (0..n_sets)
                    .map(|i| {
                        PathSet::new(format!("set{i}"), PathSignature::as_path(format!("^{i}")))
                            .with_min_next_hop(min)
                    })
                    .collect(),
                bgp_native_min_next_hop: Some(centralium_rpa::MinNextHop::Absolute(min)),
                keep_fib_warm_if_mnh_violated: fib_warm,
            },
        ));
        let json = serde_json::to_string(&doc).unwrap();
        let back: RpaDocument = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&doc, &back);
        prop_assert_eq!(doc.loc(), back.loc());
        prop_assert!(doc.loc() > 0);
    }

    /// Install/remove is idempotent with respect to engine behaviour: after
    /// removing everything, the engine behaves natively again.
    #[test]
    fn remove_restores_native(candidates in proptest::collection::vec(arb_route(), 1..6)) {
        let mut e = equalize_engine(true);
        let _ = e.select_paths(Prefix::DEFAULT, &candidates);
        e.remove("equalize").unwrap();
        prop_assert_eq!(e.select_paths(Prefix::DEFAULT, &candidates), PathChoice::Native(None));
        prop_assert!(e.assign_weights(Prefix::DEFAULT, &candidates).is_none());
        prop_assert!(e.installed().is_empty());
    }
}
