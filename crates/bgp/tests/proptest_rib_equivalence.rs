//! Model check: the per-prefix slot table must be observationally identical
//! to plain `BTreeMap` slabs.
//!
//! The model below is the simplest correct speaker state — one full `Route`
//! per (prefix, peer) in a `BTreeMap<Prefix, Vec<Route>>` for the
//! Adj-RIB-In, each vector kept sorted by session id, a `BTreeMap` per
//! prefix for the Adj-RIB-Out, and a set each of originated and installed
//! prefixes — driven through random interleavings of announce /
//! re-announce / withdraw / export / session-flush / purge / originate /
//! install across up to 64 peers. After every operation the two must agree
//! on: per-operation return values, route totals, which prefixes hold a slot
//! (exactly those with some part non-empty), per-prefix iteration order and
//! content of both fans (which fixes candidate order, and with it every
//! tie-break downstream), and the decision-process outcome (best route +
//! multipath set) over the materialized candidates.

use centralium_bgp::decision::best_route;
use centralium_bgp::rib::{held, PrefixTable};
use centralium_bgp::{multipath_set, LocRibEntry, PathAttributes, PeerId, Prefix, Route};
use centralium_topology::Asn;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The model: per-prefix `Vec<Route>` slabs sorted by session id for the
/// Adj-RIB-In, per-prefix maps for the Adj-RIB-Out, and the prefixes that
/// hold an origination or a Loc-RIB entry.
#[derive(Default)]
struct Slab {
    routes: BTreeMap<Prefix, Vec<Route>>,
    total: usize,
    sent: BTreeMap<Prefix, BTreeMap<PeerId, Arc<PathAttributes>>>,
    originated: BTreeSet<Prefix>,
    installed: BTreeSet<Prefix>,
}

fn session(r: &Route) -> PeerId {
    r.learned_from.expect("slab stores learned routes")
}

impl Slab {
    fn insert(&mut self, route: Route) -> bool {
        let slab = self.routes.entry(route.prefix).or_default();
        match slab.binary_search_by_key(&session(&route), session) {
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
        let Ok(i) = slab.binary_search_by_key(&peer, session) else {
            return false;
        };
        slab.remove(i);
        self.total -= 1;
        if slab.is_empty() {
            self.routes.remove(&prefix);
        }
        true
    }

    /// Drop `peer`'s out-state everywhere and, if `rib_in`, its routes;
    /// returns the prefixes that lost a route.
    fn flush_peer(&mut self, peer: PeerId, rib_in: bool) -> Vec<Prefix> {
        self.sent.retain(|_, fan| {
            fan.remove(&peer);
            !fan.is_empty()
        });
        if !rib_in {
            return Vec::new();
        }
        self.purge(|r| session(r) != peer)
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

    /// The per-session reference export: one lookup per wanted session.
    fn export(
        &mut self,
        prefix: Prefix,
        wants: &[(PeerId, Option<Arc<PathAttributes>>)],
    ) -> Vec<(PeerId, Option<Arc<PathAttributes>>)> {
        let fan = self.sent.entry(prefix).or_default();
        let mut changes = Vec::new();
        for (peer, want) in wants {
            match want {
                None => {
                    if fan.remove(peer).is_some() {
                        changes.push((*peer, None));
                    }
                }
                Some(want) => {
                    if fan.get(peer).is_none_or(|held| **held != **want) {
                        fan.insert(*peer, Arc::clone(want));
                        changes.push((*peer, Some(Arc::clone(want))));
                    }
                }
            }
        }
        if fan.is_empty() {
            self.sent.remove(&prefix);
        }
        changes
    }

    fn routes_for(&self, prefix: Prefix) -> Vec<Route> {
        self.routes.get(&prefix).cloned().unwrap_or_default()
    }

    /// Prefixes with some part non-empty: the slots the table must hold.
    fn slots(&self) -> Vec<Prefix> {
        let mut all: BTreeSet<Prefix> = self.routes.keys().copied().collect();
        all.extend(self.sent.keys());
        all.extend(&self.originated);
        all.extend(&self.installed);
        all.into_iter().collect()
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

fn prefix(i: u8) -> Prefix {
    PREFIXES[i as usize].parse().unwrap()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Announce (or re-announce) `class` from `peer` for `prefix`.
    Announce(u8, u8, u8),
    /// Withdraw whatever `peer` announced for `prefix`.
    Withdraw(u8, u8),
    /// Export `prefix` to every session `peer..64` in steps of `stride`:
    /// `class` to each, or a withdrawal for class 0.
    Export(u8, u8, u8, u8),
    /// Drop `peer`'s out-state and, if set, its routes (session down or
    /// removed).
    Flush(u8, bool),
    /// Evict every stored route carrying `class` (route-filter purge).
    Purge(u8),
    /// Set or clear `prefix`'s origination.
    Originate(u8, bool),
    /// Set or clear `prefix`'s Loc-RIB entry.
    Install(u8, bool),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Weighted op mix via the kind field, so tables stay populated between
    // teardown events: 6 announce : 3 withdraw : 3 export : 1 flush :
    // 1 purge : 1 originate : 1 install.
    (0u8..16, 0u8..64, 0u8..3, 0u8..4, 1u8..8).prop_map(|(kind, peer, prefix, class, stride)| {
        let on = class % 2 == 0;
        match kind {
            0..=5 => Op::Announce(peer, prefix, class),
            6..=8 => Op::Withdraw(peer, prefix),
            9..=11 => Op::Export(peer, stride, prefix, class),
            12 => Op::Flush(peer, on),
            13 => Op::Purge(class),
            14 => Op::Originate(prefix, on),
            _ => Op::Install(prefix, on),
        }
    })
}

fn check_equivalent(table: &PrefixTable, slab: &Slab) -> Result<(), TestCaseError> {
    let (rib_in, rib_out, _) = table.footprints();
    prop_assert_eq!(rib_in.peer_refs, slab.total, "total route counts");
    let sent: usize = slab.sent.values().map(BTreeMap::len).sum();
    prop_assert_eq!(rib_out.peer_refs, sent, "total out-fan entries");
    prop_assert_eq!(table.installed(), slab.installed.len());
    let slots: Vec<Prefix> = table.iter().map(|(prefix, _)| prefix).collect();
    prop_assert_eq!(slots, slab.slots(), "slots live exactly while a part holds");
    for i in 0..PREFIXES.len() as u8 {
        let prefix = prefix(i);
        let slot = table.get(prefix);
        let got: Vec<Route> = slot.map_or_else(Vec::new, |s| s.learned(prefix).collect());
        let want = slab.routes_for(prefix);
        // Iteration order and content: the slab order IS the candidate
        // order the decision process consumes.
        prop_assert_eq!(&got, &want, "in-fan of {} order/content", prefix);
        for r in &want {
            let held = slot.and_then(|s| held(s.rib_in(), session(r)));
            prop_assert_eq!(held, Some(&r.attrs), "in-fan lookup at {}", prefix);
        }
        let got: Vec<(PeerId, Arc<PathAttributes>)> = slot.map_or_else(Vec::new, |s| {
            s.rib_out()
                .iter()
                .map(|(p, a)| (*p, Arc::clone(a)))
                .collect()
        });
        let want: Vec<(PeerId, Arc<PathAttributes>)> =
            slab.sent.get(&prefix).map_or_else(Vec::new, |fan| {
                fan.iter().map(|(p, a)| (*p, Arc::clone(a))).collect()
            });
        prop_assert_eq!(got, want, "out-fan of {}", prefix);
        prop_assert_eq!(
            slot.is_some_and(|s| s.origination.is_some()),
            slab.originated.contains(&prefix)
        );
        prop_assert_eq!(
            slot.is_some_and(|s| s.loc.is_some()),
            slab.installed.contains(&prefix)
        );
        // Decision outcomes over the materialized candidates: identical
        // best path and identical multipath index set.
        let got: Vec<Route> = slot.map_or_else(Vec::new, |s| s.learned(prefix).collect());
        let want = slab.routes_for(prefix);
        if !want.is_empty() {
            prop_assert_eq!(
                best_route(&got),
                best_route(&want),
                "best route for {}",
                prefix
            );
            prop_assert_eq!(
                multipath_set(&got),
                multipath_set(&want),
                "multipath set for {}",
                prefix
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random interleaved announce/withdraw/export/flush/purge/originate/
    /// install across up to 64 peers: the table and the slab model must
    /// agree on every return value and every observable after every step.
    #[test]
    fn the_slot_table_is_observationally_equal_to_the_slabs(
        ops in proptest::collection::vec(arb_op(), 1..120)
    ) {
        let mut table = PrefixTable::default();
        let mut slab = Slab::default();
        for op in ops {
            match op {
                Op::Announce(peer, i, class) => {
                    let (prefix, peer) = (prefix(i), PeerId(peer as u64));
                    let attrs = Arc::new(class_attrs(class));
                    let a = table.with_slot(prefix, |s| s.learn(peer, &attrs));
                    let b = slab.insert(Route::learned(prefix, attrs, peer));
                    prop_assert_eq!(a, b, "learn outcome for {:?}", op);
                }
                Op::Withdraw(peer, i) => {
                    let (prefix, peer) = (prefix(i), PeerId(peer as u64));
                    let a = table.with_slot(prefix, |s| s.forget(peer));
                    let b = slab.remove(peer, prefix);
                    prop_assert_eq!(a, b, "forget outcome for {:?}", op);
                }
                Op::Export(first, stride, i, class) => {
                    let prefix = prefix(i);
                    let want = (class > 0).then(|| Arc::new(class_attrs(class)));
                    let wants: Vec<_> = (first as u64..64)
                        .step_by(stride as usize)
                        .map(|peer| (PeerId(peer), want.clone()))
                        .collect();
                    let mut a = Vec::new();
                    table.with_slot(prefix, |s| {
                        s.export(wants.iter().cloned(), |peer, body| a.push((peer, body)));
                    });
                    let b = slab.export(prefix, &wants);
                    prop_assert_eq!(a, b, "export changes for {:?}", op);
                }
                Op::Flush(peer, rib_in) => {
                    let peer = PeerId(peer as u64);
                    let mut a = Vec::new();
                    table.edit_all(|prefix, s| {
                        if s.flush(peer, rib_in) {
                            a.push(prefix);
                        }
                    });
                    let b = slab.flush_peer(peer, rib_in);
                    prop_assert_eq!(a, b, "flush prefixes for {:?}", op);
                }
                Op::Purge(class) => {
                    let evict = Arc::new(class_attrs(class));
                    let mut a = Vec::new();
                    table.edit_all(|prefix, s| {
                        if s.retain_learned(prefix, |r| *r.attrs != *evict) {
                            a.push(prefix);
                        }
                    });
                    let b = slab.purge(|r| *r.attrs != *evict);
                    prop_assert_eq!(a, b, "purge prefixes for {:?}", op);
                }
                Op::Originate(i, on) => {
                    let prefix = prefix(i);
                    let attrs = on.then(|| Arc::new(class_attrs(0)));
                    table.with_slot(prefix, |s| s.origination = attrs);
                    if on {
                        slab.originated.insert(prefix);
                    } else {
                        slab.originated.remove(&prefix);
                    }
                }
                Op::Install(i, on) => {
                    let prefix = prefix(i);
                    let entry = on.then(|| LocRibEntry::new(Vec::new(), None, false));
                    table.with_slot(prefix, |s| s.loc = entry);
                    if on {
                        slab.installed.insert(prefix);
                    } else {
                        slab.installed.remove(&prefix);
                    }
                }
            }
            check_equivalent(&table, &slab)?;
        }
    }
}
