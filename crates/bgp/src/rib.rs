//! Routing Information Bases: one slot per prefix.
//!
//! A speaker keeps everything it holds for one prefix in one
//! [`PrefixState`]: the Adj-RIB-In fan (the body each session announced),
//! the local origination, the installed Loc-RIB entry and the Adj-RIB-Out fan
//! (the body last sent to each session). [`PrefixTable`] keeps the slots
//! sorted by prefix, so a step finds a prefix's slot with one search and then
//! reads and edits all four parts in place; a walk over ascending prefixes
//! (an UPDATE's runs, a decide's dirty list) carries a cursor from step to
//! step and searches only the gap to the next slot. A slot lives while any
//! part holds something; a fan that empties drops its allocation.
//!
//! Both fans are session-sorted tables of `(peer, Arc<PathAttributes>)` — the
//! per-destination `(route, peer)` table a speaker walks to gather
//! candidates. Attribute bodies are shared, never interned: the export pass
//! computes one body per prefix and hands the same `Arc` to every session's
//! Adj-RIB-Out slot and UPDATE, and a pass-through import policy stores that
//! `Arc` again on the receiving side. Content equality only detects an
//! identical re-announcement. Candidate gathering materializes `Route` values
//! on the fly (an `Arc` bump per route, never a deep copy) in ascending
//! session-id order, a property the proptest equivalence suite pins against
//! a plain `BTreeMap` slab.

use crate::attrs::PathAttributes;
use crate::flat::{maybe_shrink, reserve_for_insert, FlatMap};
use crate::types::{PeerId, Prefix};
use std::sync::Arc;

/// A route as stored in the Adj-RIB-In: post-import-policy attributes plus
/// which session it was learned from. Locally-originated routes use
/// `learned_from = None`.
///
/// Attributes are `Arc`-shared: cloning a route — candidate gathering,
/// Loc-RIB installation, re-advertisement — is a pointer bump, never a deep
/// attribute copy. Mutating attributes on a shared route goes through
/// `Arc::make_mut`, which copies only when the allocation is actually shared.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Destination.
    pub prefix: Prefix,
    /// Post-import-policy attributes (shared).
    pub attrs: Arc<PathAttributes>,
    /// Session the route arrived on; `None` for locally-originated routes.
    pub learned_from: Option<PeerId>,
}

impl Route {
    /// A route learned from a peer.
    pub fn learned(prefix: Prefix, attrs: impl Into<Arc<PathAttributes>>, peer: PeerId) -> Self {
        Route {
            prefix,
            attrs: attrs.into(),
            learned_from: Some(peer),
        }
    }

    /// A locally-originated route.
    pub fn local(prefix: Prefix, attrs: impl Into<Arc<PathAttributes>>) -> Self {
        Route {
            prefix,
            attrs: attrs.into(),
            learned_from: None,
        }
    }

    /// Whether the route came from the local speaker.
    pub fn is_local(&self) -> bool {
        self.learned_from.is_none()
    }
}

/// Memory/occupancy summary of one adjacency RIB, for the `mem.*` and
/// `bgp.peer_refs` telemetry gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RibFootprint {
    /// `(peer, body)` entries stored.
    pub peer_refs: usize,
    /// Estimated resident bytes of the table storage: one flat-map slot per
    /// prefix the RIB holds plus that prefix's session table
    /// (capacity-based). Attribute bodies are shared with the sender and
    /// counted nowhere.
    pub bytes: usize,
}

/// One prefix's table in either adjacency RIB: the body held per session,
/// sorted by session id.
type Fan = Vec<(PeerId, Arc<PathAttributes>)>;

/// `peer`'s body in `fan`, if any.
pub fn held(fan: &[(PeerId, Arc<PathAttributes>)], peer: PeerId) -> Option<&Arc<PathAttributes>> {
    let i = fan.binary_search_by_key(&peer, |(p, _)| *p).ok()?;
    Some(&fan[i].1)
}

/// Store `attrs` as `peer`'s body in `fan`. Returns `false`, storing
/// nothing, when the peer already held content-equal attributes. One search.
fn set(fan: &mut Fan, peer: PeerId, attrs: &Arc<PathAttributes>) -> bool {
    match fan.binary_search_by_key(&peer, |(p, _)| *p) {
        // Content equality is cheap: scalars plus short slices, which a
        // pointer compare settles when the bodies share them.
        Ok(i) if *fan[i].1 == **attrs => return false,
        Ok(i) => fan[i].1 = Arc::clone(attrs),
        Err(i) => insert_at(fan, i, peer, Arc::clone(attrs)),
    }
    true
}

/// Insert `peer`'s body at index `i` of `fan`, growing it as a `FlatMap`
/// grows.
fn insert_at(fan: &mut Fan, i: usize, peer: PeerId, attrs: Arc<PathAttributes>) {
    reserve_for_insert(fan);
    fan.insert(i, (peer, attrs));
}

/// Drop `peer`'s body from `fan`; returns whether one existed.
fn unset(fan: &mut Fan, peer: PeerId) -> bool {
    let Ok(i) = fan.binary_search_by_key(&peer, |(p, _)| *p) else {
        return false;
    };
    fan.remove(i);
    settle(fan);
    true
}

/// After a removal: shrink `fan` as a `FlatMap` shrinks, and drop its
/// allocation once it is empty.
fn settle(fan: &mut Fan) {
    maybe_shrink(fan);
    if fan.is_empty() {
        *fan = Fan::new();
    }
}

/// Everything a speaker holds for one prefix. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct PrefixState {
    /// Adj-RIB-In: the post-import body each session announced.
    rib_in: Fan,
    /// The attributes the speaker originates the prefix with, if it does.
    pub origination: Option<Arc<PathAttributes>>,
    /// The installed Loc-RIB entry.
    pub loc: Option<LocRibEntry>,
    /// Adj-RIB-Out: the body last sent to each session.
    rib_out: Fan,
}

impl PrefixState {
    /// Whether every part is empty: a slot the table drops.
    pub fn is_empty(&self) -> bool {
        self.rib_in.is_empty()
            && self.origination.is_none()
            && self.loc.is_none()
            && self.rib_out.is_empty()
    }

    /// The Adj-RIB-In fan.
    pub fn rib_in(&self) -> &[(PeerId, Arc<PathAttributes>)] {
        &self.rib_in
    }

    /// The Adj-RIB-Out fan.
    pub fn rib_out(&self) -> &[(PeerId, Arc<PathAttributes>)] {
        &self.rib_out
    }

    /// The in-fan's routes toward `prefix` (this slot's), in ascending
    /// session-id order. Each costs one `Arc` bump.
    pub fn learned(&self, prefix: Prefix) -> impl Iterator<Item = Route> + '_ {
        self.rib_in
            .iter()
            .map(move |(peer, attrs)| Route::learned(prefix, Arc::clone(attrs), *peer))
    }

    /// Store `attrs` as the route `peer` announced. Returns whether the
    /// stored state changed — an identical re-announcement is a no-op the
    /// caller can skip re-running decisions for.
    pub fn learn(&mut self, peer: PeerId, attrs: &Arc<PathAttributes>) -> bool {
        set(&mut self.rib_in, peer, attrs)
    }

    /// Drop the route `peer` announced; returns whether one existed.
    pub fn forget(&mut self, peer: PeerId) -> bool {
        unset(&mut self.rib_in, peer)
    }

    /// Drop `peer`'s out-fan entry and, if `rib_in`, its route (a session
    /// that went down or was removed); returns whether a route went.
    pub fn flush(&mut self, peer: PeerId, rib_in: bool) -> bool {
        unset(&mut self.rib_out, peer);
        rib_in && unset(&mut self.rib_in, peer)
    }

    /// Keep only the routes `keep` accepts (each materialized toward
    /// `prefix`); returns whether any went.
    pub fn retain_learned(&mut self, prefix: Prefix, mut keep: impl FnMut(&Route) -> bool) -> bool {
        let before = self.rib_in.len();
        self.rib_in
            .retain(|(peer, attrs)| keep(&Route::learned(prefix, Arc::clone(attrs), *peer)));
        settle(&mut self.rib_in);
        self.rib_in.len() < before
    }

    /// Bring the out-fan to `wants` — `(session, body)` pairs ascending by
    /// session, `None` to withdraw — and report each change to `sent`: the
    /// body itself (the caller puts exactly that `Arc` on the wire, so
    /// in-flight UPDATEs share the table's allocation) or `None` for a
    /// withdrawal. A content-equal body changes nothing. Entries of sessions
    /// `wants` skips stay as they are. The fan and `wants` are walked side by
    /// side: no session costs a search.
    pub fn export(
        &mut self,
        wants: impl IntoIterator<Item = (PeerId, Option<Arc<PathAttributes>>)>,
        mut sent: impl FnMut(PeerId, Option<Arc<PathAttributes>>),
    ) {
        let fan = &mut self.rib_out;
        let mut at = 0;
        for (peer, want) in wants {
            while fan.get(at).is_some_and(|(p, _)| *p < peer) {
                at += 1;
            }
            let held = fan.get(at).is_some_and(|(p, _)| *p == peer);
            match want {
                None if held => {
                    fan.remove(at);
                    settle(fan);
                    sent(peer, None);
                }
                None => {}
                Some(want) => {
                    if !held {
                        insert_at(fan, at, peer, Arc::clone(&want));
                        sent(peer, Some(want));
                    } else if *fan[at].1 != *want {
                        fan[at].1 = Arc::clone(&want);
                        sent(peer, Some(want));
                    }
                    at += 1;
                }
            }
        }
    }
}

/// Running totals over every slot of a [`PrefixTable`]: the in-fans'
/// entries and bytes, the out-fans' entries and bytes (see
/// [`RibFootprint`]), and the installed Loc-RIB entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Totals([usize; 5]);

impl Totals {
    /// What one slot adds to the totals.
    fn of(slot: &PrefixState) -> Self {
        let bytes = |fan: &Fan| match fan.len() {
            0 => 0,
            _ => {
                std::mem::size_of::<Prefix>()
                    + std::mem::size_of::<Fan>()
                    + fan.capacity() * std::mem::size_of::<(PeerId, Arc<PathAttributes>)>()
            }
        };
        let (rib_in, rib_out) = (&slot.rib_in, &slot.rib_out);
        let installed = usize::from(slot.loc.is_some());
        Totals([
            rib_in.len(),
            bytes(rib_in),
            rib_out.len(),
            bytes(rib_out),
            installed,
        ])
    }

    /// Run `edit` on `slot` and move the totals by the change it made.
    fn track<R>(&mut self, slot: &mut PrefixState, edit: impl FnOnce(&mut PrefixState) -> R) -> R {
        let before = Totals::of(slot);
        let result = edit(slot);
        let after = Totals::of(slot);
        for ((total, was), is) in self.0.iter_mut().zip(before.0).zip(after.0) {
            *total = *total + is - was;
        }
        result
    }
}

/// A speaker's prefixes, each with its [`PrefixState`], ascending by prefix.
/// Every edit goes through [`with_slot_from`](Self::with_slot_from) (a
/// walk's step; [`with_slot`](Self::with_slot) is one with a fresh cursor)
/// or [`edit_all`](Self::edit_all), which keep the footprint totals in step
/// and drop slots that empty.
#[derive(Debug, Clone, Default)]
pub struct PrefixTable {
    slots: FlatMap<Prefix, PrefixState>,
    totals: Totals,
}

impl PrefixTable {
    /// `prefix`'s slot, if any part of it holds something.
    pub fn get(&self, prefix: Prefix) -> Option<&PrefixState> {
        self.slots.get(&prefix)
    }

    /// Every slot, ascending by prefix.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &PrefixState)> {
        self.slots.iter().map(|(&prefix, slot)| (prefix, slot))
    }

    /// Edit `prefix`'s slot — an empty one when there is none — and keep it
    /// exactly while it holds something. One search.
    pub fn with_slot<R>(&mut self, prefix: Prefix, edit: impl FnOnce(&mut PrefixState) -> R) -> R {
        self.with_slot_from(&mut 0, prefix, edit)
    }

    /// [`with_slot`](Self::with_slot) as one step of a walk: `cursor` is the
    /// walk's own, starting at 0, and is left where `prefix`'s slot is or
    /// would be. The next step's search starts there
    /// ([`FlatMap::find_from`]), so a walk over ascending prefixes pays for
    /// the gaps between them; any other order costs a plain search per step
    /// and edits the same slots.
    pub fn with_slot_from<R>(
        &mut self,
        cursor: &mut usize,
        prefix: Prefix,
        edit: impl FnOnce(&mut PrefixState) -> R,
    ) -> R {
        let found = self.slots.find_from(*cursor, &prefix);
        let (Ok(i) | Err(i)) = found;
        *cursor = i;
        match found {
            Ok(i) => {
                let slot = self.slots.at_mut(i);
                let result = self.totals.track(slot, edit);
                if slot.is_empty() {
                    self.slots.remove_at(i);
                }
                result
            }
            Err(i) => {
                let mut slot = PrefixState::default();
                let result = self.totals.track(&mut slot, edit);
                if !slot.is_empty() {
                    self.slots.insert_at(i, prefix, slot);
                }
                result
            }
        }
    }

    /// Edit every slot in ascending prefix order, dropping those that empty.
    pub fn edit_all(&mut self, mut edit: impl FnMut(Prefix, &mut PrefixState)) {
        let totals = &mut self.totals;
        self.slots.retain(|&prefix, slot| {
            totals.track(slot, |slot| edit(prefix, slot));
            !slot.is_empty()
        });
    }

    /// Footprints of the adjacency RIBs `(in, out)`: running totals, O(1).
    pub fn footprints(&self) -> (RibFootprint, RibFootprint) {
        let [in_refs, in_bytes, out_refs, out_bytes, _] = self.totals.0;
        let fp = |peer_refs, bytes| RibFootprint { peer_refs, bytes };
        (fp(in_refs, in_bytes), fp(out_refs, out_bytes))
    }

    /// Slots with an installed Loc-RIB entry.
    pub fn installed(&self) -> usize {
        self.totals.0[4]
    }
}

/// Move the routes at `indices` out of an owned candidate set.
///
/// The decision process gathers candidates once (materialized out of the
/// Adj-RIB-In) and then used to clone each selected route a *second* time
/// when assembling the [`LocRibEntry`]. Since the candidate set is discarded
/// after selection, the selected routes can simply be moved out. Indices must
/// be distinct (each candidate can be selected at most once) and in bounds —
/// both guaranteed by the native selectors and required of RPA hooks.
pub(crate) fn take_selected(candidates: Vec<Route>, indices: &[usize]) -> Vec<Route> {
    let mut slots: Vec<Option<Route>> = candidates.into_iter().map(Some).collect();
    indices
        .iter()
        .map(|&i| slots[i].take().expect("selection indices must be distinct"))
        .collect()
}

/// The outcome of path selection for one prefix, as installed in the Loc-RIB.
#[derive(Debug, Clone, PartialEq)]
pub struct LocRibEntry {
    /// Routes selected for forwarding (the multipath set).
    pub selected: Vec<Route>,
    /// Per-selected-route relative WCMP weights, parallel to `selected`.
    pub weights: Vec<u32>,
    /// The route to advertise to peers, if any. Under native BGP this is the
    /// single best path; under a Path Selection RPA it is the *least
    /// favorable* selected route (§5.3.1 loop-avoidance rule).
    pub advertised: Option<Route>,
    /// True when the entry is kept in the FIB despite being withdrawn from
    /// peers (`KeepFibWarmIfMnhViolated`, §4.3).
    pub fib_warm_only: bool,
}

impl LocRibEntry {
    /// Entry with equal weights.
    pub fn ecmp(selected: Vec<Route>, advertised: Option<Route>) -> Self {
        let weights = vec![1; selected.len()];
        LocRibEntry {
            selected,
            weights,
            advertised,
            fib_warm_only: false,
        }
    }

    /// The forwarding projection, borrowed in place: each selected learned
    /// route's session and weight, in selection order.
    pub fn fib_nexthops(&self) -> impl Iterator<Item = (PeerId, u32)> + '_ {
        self.selected
            .iter()
            .zip(&self.weights)
            .filter_map(|(r, w)| r.learned_from.map(|p| (p, *w)))
    }

    /// Next-hop sessions of the selected routes (local routes contribute no
    /// next-hop).
    pub fn nexthop_sessions(&self) -> Vec<PeerId> {
        self.selected
            .iter()
            .filter_map(|r| r.learned_from)
            .collect()
    }
}

#[cfg(test)]
impl PrefixTable {
    /// The totals recomputed by walking every slot: what the running totals
    /// must equal.
    fn walked(&self) -> Totals {
        let mut sum = Totals::default();
        for slot in self.slots.values() {
            for (total, part) in sum.0.iter_mut().zip(Totals::of(slot).0) {
                *total += part;
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn route(peer: u64, prefix: &str) -> Route {
        Route::learned(p(prefix), PathAttributes::default(), PeerId(peer))
    }

    fn body(local_pref: u32) -> Arc<PathAttributes> {
        Arc::new(PathAttributes {
            local_pref,
            ..PathAttributes::default()
        })
    }

    fn learn(
        table: &mut PrefixTable,
        peer: u64,
        prefix: &str,
        attrs: &Arc<PathAttributes>,
    ) -> bool {
        table.with_slot(p(prefix), |s| s.learn(PeerId(peer), attrs))
    }

    fn routes(table: &PrefixTable, prefix: &str) -> Vec<Route> {
        table
            .get(p(prefix))
            .map_or_else(Vec::new, |s| s.learned(p(prefix)).collect())
    }

    fn prefixes(table: &PrefixTable) -> Vec<Prefix> {
        table.iter().map(|(prefix, _)| prefix).collect()
    }

    /// Announce `attrs` to every session in `peers` (ascending), as an
    /// export pass does, returning the sessions told.
    fn export(
        table: &mut PrefixTable,
        prefix: &str,
        peers: &[u64],
        attrs: Option<&Arc<PathAttributes>>,
    ) -> Vec<u64> {
        let mut told = Vec::new();
        table.with_slot(p(prefix), |s| {
            let wants = peers.iter().map(|&peer| (PeerId(peer), attrs.cloned()));
            s.export(wants, |peer, _| told.push(peer.0));
        });
        told
    }

    #[test]
    fn learn_replace_and_lookup() {
        let mut table = PrefixTable::default();
        assert!(learn(&mut table, 1, "10.0.0.0/8", &body(100)));
        assert!(
            !learn(&mut table, 1, "10.0.0.0/8", &body(100)),
            "identical re-announcement reports no change"
        );
        assert!(learn(&mut table, 1, "10.0.0.0/8", &body(500)));
        assert_eq!(
            table.footprints().0.peer_refs,
            1,
            "same (peer, prefix) replaces"
        );
        let held = held(table.get(p("10.0.0.0/8")).unwrap().rib_in(), PeerId(1));
        assert_eq!(held.unwrap().local_pref, 500);
    }

    #[test]
    fn learned_routes_are_the_stored_bodies_in_session_order() {
        let mut table = PrefixTable::default();
        let bodies: Vec<Arc<PathAttributes>> = (0..64).map(|_| body(100)).collect();
        // Arrival order is not session order.
        for peer in (1..=64u64).rev() {
            learn(&mut table, peer, "10.0.0.0/8", &bodies[peer as usize - 1]);
        }
        assert_eq!(table.footprints().0.peer_refs, 64);
        let all = routes(&table, "10.0.0.0/8");
        let peers: Vec<u64> = all.iter().map(|r| r.learned_from.unwrap().0).collect();
        assert_eq!(peers, (1..=64).collect::<Vec<_>>());
        for (r, body) in all.iter().zip(&bodies) {
            assert!(Arc::ptr_eq(&r.attrs, body), "the stored Arc, not a copy");
        }
    }

    #[test]
    fn flush_drops_one_session_and_slots_live_while_a_part_holds() {
        let mut table = PrefixTable::default();
        learn(&mut table, 1, "10.0.0.0/8", &body(100));
        learn(&mut table, 1, "11.0.0.0/8", &body(100));
        learn(&mut table, 2, "10.0.0.0/8", &body(100));
        table.with_slot(p("12.0.0.0/8"), |s| s.origination = Some(body(100)));
        let mut flushed = Vec::new();
        table.edit_all(|prefix, s| {
            if s.flush(PeerId(1), true) {
                flushed.push(prefix);
            }
        });
        assert_eq!(flushed, vec![p("10.0.0.0/8"), p("11.0.0.0/8")]);
        assert_eq!(prefixes(&table), vec![p("10.0.0.0/8"), p("12.0.0.0/8")]);
        assert_eq!(table.footprints().0.peer_refs, 1);
        table.with_slot(p("12.0.0.0/8"), |s| s.origination = None);
        assert!(table.with_slot(p("10.0.0.0/8"), |s| s.forget(PeerId(2))));
        assert!(!table.with_slot(p("10.0.0.0/8"), |s| s.forget(PeerId(2))));
        assert!(prefixes(&table).is_empty());
        assert_eq!(table.footprints(), Default::default());
    }

    #[test]
    fn locrib_entry_helpers() {
        let r1 = route(1, "0.0.0.0/0");
        let r2 = route(2, "0.0.0.0/0");
        let local = Route::local(p("0.0.0.0/0"), PathAttributes::default());
        let entry = LocRibEntry::ecmp(vec![r1.clone(), r2, local], Some(r1));
        assert_eq!(entry.weights, vec![1, 1, 1]);
        assert_eq!(entry.nexthop_sessions(), vec![PeerId(1), PeerId(2)]);
        assert!(!entry.fib_warm_only);
    }

    #[test]
    fn running_totals_equal_the_walk_after_random_mutations() {
        let mut table = PrefixTable::default();
        let prefixes = ["0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16"];
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        for _ in 0..4_000 {
            let prefix = p(prefixes[next(4) as usize]);
            let peer = PeerId(next(48));
            let attrs = body(100 + next(3) as u32);
            match next(9) {
                0..=2 => {
                    table.with_slot(prefix, |s| s.learn(peer, &attrs));
                }
                3 => {
                    table.with_slot(prefix, |s| s.forget(peer));
                }
                4 | 5 => {
                    // An export pass over every third session from `peer`
                    // on, announcing or withdrawing.
                    let want = (next(3) > 0).then_some(attrs);
                    let wants = (peer.0..48).step_by(3).map(|q| (PeerId(q), want.clone()));
                    table.with_slot(prefix, |s| s.export(wants, |_, _| {}));
                }
                6 => {
                    let rib_in = next(2) == 0;
                    table.edit_all(|_, s| {
                        s.flush(peer, rib_in);
                    });
                }
                7 => {
                    let cut = next(48);
                    table.edit_all(|prefix, s| {
                        s.retain_learned(prefix, |r| r.learned_from.unwrap().0 < cut);
                    });
                }
                _ => {
                    let on = next(2) == 0;
                    table.with_slot(prefix, |s| {
                        s.origination = on.then(|| Arc::clone(&attrs));
                        s.loc = (next(2) == 0).then(|| LocRibEntry::ecmp(Vec::new(), None));
                    });
                }
            }
            assert_eq!(table.totals, table.walked());
            assert!(
                table.iter().all(|(_, s)| !s.is_empty()),
                "empty slots are dropped"
            );
        }
        assert!(table.walked().0[1] > 0, "the mix leaves state behind");
    }

    proptest::proptest! {
        /// Edits through one walk's cursor land where per-prefix
        /// `with_slot` edits do, whatever the order: ascending (an UPDATE's
        /// run, a decide's dirty list), descending, repeated or random, with
        /// slots that appear and empty on the way.
        #[test]
        fn a_cursor_walk_edits_what_per_prefix_edits_do(
            seeded in proptest::collection::vec((0u8..24, 0u64..4), 0..24),
            steps in proptest::collection::vec((0u8..24, 0u64..4, 0u8..4), 0..48),
            order in 0u8..3,
        ) {
            let prefix = |i: u8| Prefix::new(u32::from(i / 3) << 24, 8 + 8 * (i % 3));
            // Built alike, not cloned: a clone's fans would be exact-fit.
            let (mut walked, mut stepped) = (PrefixTable::default(), PrefixTable::default());
            for table in [&mut walked, &mut stepped] {
                for &(i, peer) in &seeded {
                    table.with_slot(prefix(i), |s| s.learn(PeerId(peer), &body(100)));
                }
            }
            let mut steps = steps;
            match order {
                0 => steps.sort_by_key(|&(i, ..)| prefix(i)),
                1 => steps.sort_by_key(|&(i, ..)| std::cmp::Reverse(prefix(i))),
                _ => {}
            }
            let edit = |peer: u64, op: u8| {
                move |s: &mut PrefixState| match op {
                    0 => s.learn(PeerId(peer), &body(100 + peer as u32)),
                    1 => s.forget(PeerId(peer)),
                    2 => s.origination.replace(body(7)).is_none(),
                    _ => s.origination.take().is_some(),
                }
            };
            let mut cursor = 0;
            for &(i, peer, op) in &steps {
                let by_walk = walked.with_slot_from(&mut cursor, prefix(i), edit(peer, op));
                let by_slot = stepped.with_slot(prefix(i), edit(peer, op));
                proptest::prop_assert_eq!(by_walk, by_slot);
            }
            proptest::prop_assert_eq!(format!("{:?}", walked.slots), format!("{:?}", stepped.slots));
            proptest::prop_assert_eq!(walked.totals, stepped.totals);
            proptest::prop_assert_eq!(walked.totals, walked.walked());
        }
    }

    #[test]
    fn export_returns_the_body_it_was_given() {
        let mut table = PrefixTable::default();
        let sessions: Vec<u64> = (1..=32).collect();
        let shared = body(100);
        let mut sent = Vec::new();
        table.with_slot(p("0.0.0.0/0"), |s| {
            let wants = sessions
                .iter()
                .map(|&peer| (PeerId(peer), Some(Arc::clone(&shared))));
            s.export(wants, |_, body| sent.push(body.unwrap()));
        });
        assert_eq!(sent.len(), 32);
        let slot = table.get(p("0.0.0.0/0")).unwrap();
        for (body, (_, held)) in sent.iter().zip(slot.rib_out().iter()) {
            assert!(Arc::ptr_eq(body, &shared) && Arc::ptr_eq(held, &shared));
        }
        assert_eq!(table.footprints().1.peer_refs, 32);
        // A content-equal re-advertisement in a fresh allocation: nothing to
        // send, and the stored body stays.
        assert!(export(&mut table, "0.0.0.0/0", &[5], Some(&body(100))).is_empty());
        let held = held(table.get(p("0.0.0.0/0")).unwrap().rib_out(), PeerId(5));
        assert!(Arc::ptr_eq(held.unwrap(), &shared));
        assert_eq!(export(&mut table, "0.0.0.0/0", &[5], None), vec![5]);
        assert!(export(&mut table, "0.0.0.0/0", &[5], None).is_empty());
        assert_eq!(table.footprints().1.peer_refs, 31);
    }

    #[test]
    fn export_leaves_sessions_it_skips_alone() {
        let mut table = PrefixTable::default();
        assert_eq!(
            export(&mut table, "10.0.0.0/8", &[1, 2, 3], Some(&body(100))),
            vec![1, 2, 3]
        );
        assert_eq!(
            export(&mut table, "10.0.0.0/8", &[1, 3, 4], Some(&body(200))),
            vec![1, 3, 4]
        );
        let held: Vec<(u64, u32)> = table
            .get(p("10.0.0.0/8"))
            .unwrap()
            .rib_out()
            .iter()
            .map(|(peer, attrs)| (peer.0, attrs.local_pref))
            .collect();
        assert_eq!(held, vec![(1, 200), (2, 100), (3, 200), (4, 200)]);
        table.edit_all(|_, s| {
            s.flush(PeerId(2), false);
        });
        assert_eq!(
            export(&mut table, "10.0.0.0/8", &[1, 3, 4], None),
            vec![1, 3, 4]
        );
        assert!(prefixes(&table).is_empty());
    }

    #[test]
    fn take_selected_moves_by_index() {
        let cands = vec![
            route(1, "0.0.0.0/0"),
            route(2, "0.0.0.0/0"),
            route(3, "0.0.0.0/0"),
        ];
        let selected = take_selected(cands, &[2, 0]);
        assert_eq!(selected.len(), 2);
        assert_eq!(selected[0].learned_from, Some(PeerId(3)));
        assert_eq!(selected[1].learned_from, Some(PeerId(1)));
    }

    #[test]
    #[should_panic(expected = "selection indices must be distinct")]
    fn take_selected_rejects_duplicate_indices() {
        let cands = vec![route(1, "0.0.0.0/0")];
        take_selected(cands, &[0, 0]);
    }
}
