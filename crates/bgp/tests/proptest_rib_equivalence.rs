//! Model check: `AdjRibIn`'s per-prefix session table must be
//! observationally identical to a plain `BTreeMap` slab.
//!
//! The model below is the simplest correct Adj-RIB-In — one full `Route`
//! per (prefix, peer) in a `BTreeMap<Prefix, Vec<Route>>`, each vector kept
//! sorted by session id — driven through random interleavings of announce /
//! re-announce / withdraw / session-flush / purge across up to 64 peers.
//! After every operation the two must agree on: per-operation return
//! values, `len()` totals, per-prefix iteration order and content (which
//! fixes candidate order, and with it every tie-break downstream), and the
//! decision-process outcome (best route + multipath set) over the
//! materialized candidates.

use centralium_bgp::decision::best_route;
use centralium_bgp::rib::AdjRibIn;
use centralium_bgp::{multipath_set, PathAttributes, PeerId, Prefix, Route};
use centralium_topology::Asn;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The model Adj-RIB-In: a per-prefix `Vec<Route>` slab sorted by session
/// id.
#[derive(Default)]
struct SlabRib {
    routes: BTreeMap<Prefix, Vec<Route>>,
    total: usize,
}

impl SlabRib {
    fn insert(&mut self, route: Route) -> bool {
        let peer = route.learned_from.expect("slab stores learned routes");
        let slab = self.routes.entry(route.prefix).or_default();
        match slab.binary_search_by_key(&peer, |r| {
            r.learned_from.expect("slab stores learned routes")
        }) {
            Ok(i) => {
                if *slab[i].attrs == *route.attrs {
                    return false;
                }
                slab[i] = route;
                true
            }
            Err(i) => {
                slab.insert(i, route);
                self.total += 1;
                true
            }
        }
    }

    fn remove(&mut self, peer: PeerId, prefix: Prefix) -> bool {
        let Some(slab) = self.routes.get_mut(&prefix) else {
            return false;
        };
        let Ok(i) = slab.binary_search_by_key(&peer, |r| {
            r.learned_from.expect("slab stores learned routes")
        }) else {
            return false;
        };
        slab.remove(i);
        self.total -= 1;
        if slab.is_empty() {
            self.routes.remove(&prefix);
        }
        true
    }

    fn flush_peer(&mut self, peer: PeerId) -> Vec<Prefix> {
        let mut prefixes = Vec::new();
        let mut removed = 0;
        self.routes.retain(|prefix, slab| {
            let before = slab.len();
            slab.retain(|r| r.learned_from != Some(peer));
            if slab.len() < before {
                removed += before - slab.len();
                prefixes.push(*prefix);
            }
            !slab.is_empty()
        });
        self.total -= removed;
        prefixes
    }

    fn purge(&mut self, mut keep: impl FnMut(&Route) -> bool) -> Vec<Prefix> {
        let mut prefixes = Vec::new();
        let mut removed = 0;
        self.routes.retain(|prefix, slab| {
            let before = slab.len();
            slab.retain(|r| keep(r));
            if slab.len() < before {
                removed += before - slab.len();
                prefixes.push(*prefix);
            }
            !slab.is_empty()
        });
        self.total -= removed;
        prefixes
    }

    fn routes_for(&self, prefix: Prefix) -> Vec<Route> {
        self.routes.get(&prefix).cloned().unwrap_or_default()
    }

    fn prefixes(&self) -> Vec<Prefix> {
        self.routes.keys().copied().collect()
    }
}

/// A small palette of distinct attribute classes. Ops pick from few of them
/// so peers often repeat one another's content, which exercises the
/// content-equal re-announcement short-circuit and purges that hit many
/// peers at once.
fn class_attrs(class: u8) -> PathAttributes {
    let mut attrs = PathAttributes::default();
    attrs.prepend(Asn(900 + class as u32), 1);
    attrs.local_pref = 100 + (class as u32 % 2) * 50;
    attrs.med = class as u32;
    attrs
}

const PREFIXES: [&str; 3] = ["0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16"];

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Announce (or re-announce) `class` from `peer` for `prefix`.
    Announce(u8, u8, u8),
    /// Withdraw whatever `peer` announced for `prefix`.
    Withdraw(u8, u8),
    /// Drop every route of `peer` (session reset).
    Flush(u8),
    /// Evict every stored route carrying `class` (route-filter purge).
    Purge(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Weighted op mix via the kind field: 6 announce : 3 withdraw :
    // 1 flush : 1 purge, so tables stay populated between teardown events.
    (0u8..11, 0u8..64, 0u8..3, 0u8..4).prop_map(|(kind, peer, prefix, class)| match kind {
        0..=5 => Op::Announce(peer, prefix, class),
        6..=8 => Op::Withdraw(peer, prefix),
        9 => Op::Flush(peer),
        _ => Op::Purge(class),
    })
}

fn check_equivalent(rib: &AdjRibIn, slab: &SlabRib) -> Result<(), TestCaseError> {
    prop_assert_eq!(rib.len(), slab.total, "total route counts");
    prop_assert_eq!(rib.is_empty(), slab.total == 0);
    let prefixes: Vec<Prefix> = rib.tables().map(|(prefix, _)| prefix).collect();
    prop_assert_eq!(prefixes, slab.prefixes(), "prefix sets");
    for name in PREFIXES {
        let prefix: Prefix = name.parse().unwrap();
        let got: Vec<Route> = rib.routes_for(prefix).collect();
        let want = slab.routes_for(prefix);
        // Iteration order and content: the slab order IS the candidate
        // order the decision process consumes.
        prop_assert_eq!(&got, &want, "routes_for({}) order/content", name);
        prop_assert_eq!(rib.routes_for_len(prefix), want.len());
        // Point lookups agree with the slab.
        for r in &want {
            let peer = r.learned_from.unwrap();
            let held = rib.route(peer, prefix);
            prop_assert_eq!(held.as_ref(), Some(r), "route({:?}, {})", peer, name);
        }
        // Decision outcomes over the materialized candidates: identical
        // best path and identical multipath index set.
        if !want.is_empty() {
            prop_assert_eq!(
                best_route(&got),
                best_route(&want),
                "best route for {}",
                name
            );
            prop_assert_eq!(
                multipath_set(&got),
                multipath_set(&want),
                "multipath set for {}",
                name
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random interleaved announce/withdraw/re-announce/flush/purge across
    /// up to 64 peers: the RIB and the slab model must agree
    /// on every return value and every observable after every step.
    #[test]
    fn adj_rib_in_is_observationally_equal_to_the_slab(
        ops in proptest::collection::vec(arb_op(), 1..120)
    ) {
        let mut rib = AdjRibIn::default();
        let mut slab = SlabRib::default();
        for op in ops {
            match op {
                Op::Announce(peer, prefix, class) => {
                    let prefix: Prefix = PREFIXES[prefix as usize].parse().unwrap();
                    let attrs = Arc::new(class_attrs(class));
                    let a = rib
                        .insert(Route::learned(prefix, Arc::clone(&attrs), PeerId(peer as u64)))
                        .expect("learned routes are always accepted");
                    let b = slab.insert(Route::learned(prefix, attrs, PeerId(peer as u64)));
                    prop_assert_eq!(a, b, "insert outcome for {:?}", op);
                }
                Op::Withdraw(peer, prefix) => {
                    let prefix: Prefix = PREFIXES[prefix as usize].parse().unwrap();
                    let a = rib.remove(PeerId(peer as u64), prefix);
                    let b = slab.remove(PeerId(peer as u64), prefix);
                    prop_assert_eq!(a, b, "remove outcome for {:?}", op);
                }
                Op::Flush(peer) => {
                    let a = rib.flush_peer(PeerId(peer as u64));
                    let b = slab.flush_peer(PeerId(peer as u64));
                    prop_assert_eq!(a, b, "flush_peer prefixes for {:?}", op);
                }
                Op::Purge(class) => {
                    let evict = Arc::new(class_attrs(class));
                    let a = rib.purge(|r| *r.attrs != *evict);
                    let b = slab.purge(|r| *r.attrs != *evict);
                    prop_assert_eq!(a, b, "purge prefixes for {:?}", op);
                }
            }
            check_equivalent(&rib, &slab)?;
        }
    }
}
