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
//! The Loc-RIB entry is one allocation of installed [`Path`]s (body,
//! next-hop word, weight), an index to the advertised one and a bit.
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

/// Running totals over every slot of a [`PrefixTable`]: the in-fans' and
/// out-fans' entries and bytes (see [`RibFootprint`]), the installed Loc-RIB
/// entries and their paths' bytes (capacity-based).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Totals([usize; 6]);

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
        let paths = slot.loc.as_ref().map(|loc| &loc.paths);
        Totals([
            rib_in.len(),
            bytes(rib_in),
            rib_out.len(),
            bytes(rib_out),
            usize::from(paths.is_some()),
            paths.map_or(0, |p| p.capacity() * std::mem::size_of::<Path>()),
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

    /// Footprints of the adjacency RIBs `(in, out)` and the bytes of the
    /// Loc-RIB entries' paths (capacity-based): running totals, O(1).
    pub fn footprints(&self) -> (RibFootprint, RibFootprint, usize) {
        let [in_refs, in_bytes, out_refs, out_bytes, _, loc_bytes] = self.totals.0;
        let fp = |peer_refs, bytes| RibFootprint { peer_refs, bytes };
        (fp(in_refs, in_bytes), fp(out_refs, out_bytes), loc_bytes)
    }

    /// Slots with an installed Loc-RIB entry.
    pub fn installed(&self) -> usize {
        self.totals.0[4]
    }
}

/// Move the candidates at `indices` to the front of `candidates`, in that
/// order, and drop the rest: the selected set in the candidates' own
/// allocation. Indices must be distinct and in bounds, or it panics; the
/// native and RPA selectors ascend, so checking them costs one pass.
/// `indices` is left scrambled.
pub(crate) fn keep_selected(candidates: &mut Vec<Route>, indices: &mut [usize]) {
    assert!(
        indices.windows(2).all(|w| w[0] < w[1])
            || (1..indices.len()).all(|j| !indices[..j].contains(&indices[j])),
        "selection indices must be distinct"
    );
    for j in 0..indices.len() {
        // Step `p` swapped what stood at `p` to `indices[p]`: follow the
        // wanted candidate past the steps already taken.
        let mut at = indices[j];
        while at < j {
            at = indices[at];
        }
        candidates.swap(j, at);
        indices[j] = at;
    }
    candidates.truncate(indices.len());
}

/// One installed path of a [`LocRibEntry`]: the body, the next hop and the
/// WCMP weight. The prefix is the slot's, so the path does not repeat it.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// The path's attributes, shared with the Adj-RIB-In.
    pub attrs: Arc<PathAttributes>,
    /// The session the path was learned on, `u64::MAX` for the local route:
    /// a native entry's "ascending by session, local last" is ascending.
    pub(crate) nexthop: u64,
    /// Relative WCMP weight.
    pub weight: u32,
}

impl Path {
    /// The next-hop word of the locally-originated route.
    pub(crate) const LOCAL: u64 = u64::MAX;

    /// `route` installed with `weight`.
    pub fn new(route: Route, weight: u32) -> Self {
        let nexthop = route.learned_from.map_or(Path::LOCAL, |p| p.0);
        Path {
            attrs: route.attrs,
            nexthop,
            weight,
        }
    }

    /// The session the path was learned on; `None` for the local route.
    pub fn learned_from(&self) -> Option<PeerId> {
        (self.nexthop != Path::LOCAL).then_some(PeerId(self.nexthop))
    }

    /// The path as a route toward `prefix`: one `Arc` bump.
    pub fn route(&self, prefix: Prefix) -> Route {
        let learned_from = self.learned_from();
        Route {
            learned_from,
            ..Route::local(prefix, Arc::clone(&self.attrs))
        }
    }
}

/// The outcome of path selection for one prefix: one allocation of paths.
#[derive(Debug, Clone, PartialEq)]
pub struct LocRibEntry {
    /// The paths selected for forwarding (the multipath set), in the order
    /// the decision selected them.
    pub(crate) paths: Vec<Path>,
    /// Index into `paths` of the path to advertise, `u32::MAX` for none: the
    /// native best path, or under a Path Selection RPA the *least favorable*
    /// selected one (§5.3.1 loop-avoidance rule).
    pub(crate) advertised: u32,
    /// True when the entry is kept in the FIB despite being withdrawn from
    /// peers (`KeepFibWarmIfMnhViolated`, §4.3).
    pub fib_warm_only: bool,
}

const _: () = assert!(std::mem::size_of::<Path>() <= 24);
const _: () = assert!(std::mem::size_of::<LocRibEntry>() <= 32);
const _: () = assert!(std::mem::size_of::<PrefixState>() <= 88);

impl LocRibEntry {
    /// An entry installing `paths` and advertising `paths[advertised]`.
    pub fn new(paths: Vec<Path>, advertised: Option<usize>, fib_warm_only: bool) -> Self {
        assert!(advertised.is_none_or(|i| i < paths.len()));
        let advertised = advertised.map_or(u32::MAX, |i| i as u32);
        LocRibEntry {
            paths,
            advertised,
            fib_warm_only,
        }
    }

    /// The installed paths, in selection order.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// The path to advertise to peers, if any: always an installed one.
    pub fn advertised(&self) -> Option<&Path> {
        self.paths.get(self.advertised as usize)
    }

    /// The forwarding projection, borrowed in place: each selected learned
    /// path's session and weight, in selection order.
    pub fn fib_nexthops(&self) -> impl Iterator<Item = (PeerId, u32)> + '_ {
        self.paths
            .iter()
            .filter_map(|path| Some((path.learned_from()?, path.weight)))
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
        let paths = [(r2, 3), (local.clone(), 1), (r1.clone(), 2)];
        let entry = LocRibEntry::new(
            paths.into_iter().map(|(r, w)| Path::new(r, w)).collect(),
            Some(2),
            false,
        );
        let hops: Vec<_> = entry.fib_nexthops().collect();
        assert_eq!(hops, vec![(PeerId(2), 3), (PeerId(1), 2)]);
        assert_eq!(entry.advertised().unwrap().route(p("0.0.0.0/0")), r1);
        assert_eq!(entry.paths()[1].route(p("0.0.0.0/0")), local);
        assert!(entry.paths()[1].learned_from().is_none());
        let silent = LocRibEntry::new(entry.paths().to_vec(), None, true);
        assert!(silent.advertised().is_none() && silent.fib_warm_only);
    }

    #[test]
    #[should_panic(expected = "assertion failed: advertised")]
    fn an_entry_advertises_only_an_installed_path() {
        LocRibEntry::new(vec![Path::new(route(1, "0.0.0.0/0"), 1)], Some(1), false);
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
                        let paths =
                            vec![Path::new(route(peer.0, "0.0.0.0/0"), 1); next(5) as usize];
                        s.loc = (next(2) == 0).then(|| LocRibEntry::new(paths, None, false));
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
        assert_eq!(table.footprints().2, table.walked().0[5]);
        assert!(table.footprints().2 > 0, "and installed paths");
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
    fn keep_selected_moves_the_selection_to_the_front_in_its_order() {
        let peers = |routes: &[Route]| -> Vec<u64> {
            routes.iter().map(|r| r.learned_from.unwrap().0).collect()
        };
        // Every ordered selection of distinct indices out of five (326).
        let mut selections: Vec<Vec<usize>> = vec![Vec::new()];
        let mut i = 0;
        while let Some(taken) = selections.get(i).cloned() {
            for next in (0..5).filter(|n| !taken.contains(n)) {
                selections.push([taken.as_slice(), &[next]].concat());
            }
            i += 1;
        }
        assert_eq!(selections.len(), 326);
        for indices in selections {
            let mut cands: Vec<Route> = (0..5).map(|i| route(i, "0.0.0.0/0")).collect();
            let want: Vec<u64> = indices.iter().map(|&i| i as u64).collect();
            keep_selected(&mut cands, &mut indices.clone());
            assert_eq!(peers(&cands), want, "{indices:?}");
        }
    }

    #[test]
    #[should_panic(expected = "selection indices must be distinct")]
    fn keep_selected_rejects_duplicate_indices() {
        let mut cands = vec![route(1, "0.0.0.0/0"), route(2, "0.0.0.0/0")];
        keep_selected(&mut cands, &mut [1, 1]);
    }

    #[test]
    #[should_panic(expected = "selection indices must be distinct")]
    fn keep_selected_rejects_a_repeated_first_index() {
        // Unchecked, `[0, 0]` would spin the walk forever.
        let mut cands = vec![route(1, "0.0.0.0/0"), route(2, "0.0.0.0/0")];
        keep_selected(&mut cands, &mut [0, 0]);
    }
}
