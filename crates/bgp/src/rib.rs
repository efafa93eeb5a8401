//! Routing Information Bases: Adj-RIB-In, Loc-RIB and Adj-RIB-Out.
//!
//! Both adjacency RIBs hold, per prefix, a session-sorted table of
//! `(peer, Arc<PathAttributes>)` — the per-destination `(route, peer)` table
//! a speaker walks to gather candidates. Attribute bodies are shared, never
//! interned: the export pass computes one body per prefix and hands the same
//! `Arc` to every session's Adj-RIB-Out slot and UPDATE, and a pass-through
//! import policy stores that `Arc` again on the receiving side. Content
//! equality only detects an identical re-announcement. Candidate gathering
//! materializes `Route` values on the fly (an `Arc` bump per route, never a
//! deep copy) in ascending session-id order, a property the proptest
//! equivalence suite pins against a plain `BTreeMap` slab.

use crate::attrs::PathAttributes;
use crate::flat::FlatMap;
use crate::types::{PeerId, Prefix};
use std::fmt;
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

/// Attempt to store a route without a learning session in an adjacency RIB.
///
/// The adjacency RIBs index state by `(peer, prefix)`, so a locally-
/// originated route (`learned_from = None`) has no slot there — originations
/// live in the daemon's `originated` table instead. Surfaced as a typed
/// error (not a panic) so fuzz-shaped or wire-driven input can never abort a
/// daemon; native call sites construct routes via [`Route::learned`] and
/// treat the error as unreachable-but-ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalRouteError {
    /// The prefix of the rejected route.
    pub prefix: Prefix,
}

impl fmt::Display for LocalRouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "route for {} has no learning session: adjacency RIBs store learned routes only",
            self.prefix
        )
    }
}

impl std::error::Error for LocalRouteError {}

/// Memory/occupancy summary of one adjacency RIB, for the `mem.*` and
/// `bgp.peer_refs` telemetry gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RibFootprint {
    /// `(peer, body)` entries stored — what [`AdjRibIn::len`] counts.
    pub peer_refs: usize,
    /// Estimated resident bytes of the table storage: one flat-map slot per
    /// prefix plus that prefix's session table (capacity-based). Attribute
    /// bodies are shared with the sender and counted nowhere.
    pub bytes: usize,
}

/// One prefix's state in either adjacency RIB: the body held per session,
/// sorted by session id.
type Fan = FlatMap<PeerId, Arc<PathAttributes>>;

/// The storage both adjacency RIBs share.
#[derive(Debug, Default, Clone)]
struct Table {
    prefixes: FlatMap<Prefix, Fan>,
    /// `(peer, prefix)` entries across every prefix.
    total: usize,
}

impl Table {
    fn get(&self, peer: PeerId, prefix: Prefix) -> Option<&Arc<PathAttributes>> {
        self.prefixes.get(&prefix)?.get(&peer)
    }

    /// Store `attrs` as `peer`'s body for `prefix`. Returns `false`, storing
    /// nothing, when the peer already held content-equal attributes.
    fn set(&mut self, peer: PeerId, prefix: Prefix, attrs: &Arc<PathAttributes>) -> bool {
        let fan = self.prefixes.entry_or_default(prefix);
        // Content equality is cheap: scalars plus short slices, which a
        // pointer compare settles when the bodies share them.
        if fan.get(&peer).is_some_and(|held| **held == **attrs) {
            return false;
        }
        if fan.insert(peer, Arc::clone(attrs)).is_none() {
            self.total += 1;
        }
        true
    }

    /// Drop `peer`'s body for `prefix`; returns whether one existed.
    fn unset(&mut self, peer: PeerId, prefix: Prefix) -> bool {
        let Some(fan) = self.prefixes.get_mut(&prefix) else {
            return false;
        };
        if fan.remove(&peer).is_none() {
            return false;
        }
        self.total -= 1;
        if fan.is_empty() {
            self.prefixes.remove(&prefix);
        }
        true
    }

    /// Drop every body held for `peer`, reporting each affected prefix in
    /// ascending order.
    fn flush_peer(&mut self, peer: PeerId, mut flushed: impl FnMut(Prefix)) {
        let mut removed = 0;
        self.prefixes.retain(|prefix, fan| {
            if fan.remove(&peer).is_some() {
                removed += 1;
                flushed(*prefix);
            }
            !fan.is_empty()
        });
        self.total -= removed;
    }

    /// Allocation-free and O(1) per prefix: it runs over every RIB of the
    /// fabric at each quiescence.
    fn footprint(&self) -> RibFootprint {
        let mut f = RibFootprint::default();
        for fan in self.prefixes.values() {
            f.peer_refs += fan.len();
            f.bytes += std::mem::size_of::<Prefix>() + std::mem::size_of::<Fan>();
            f.bytes += fan.table_bytes();
        }
        f
    }
}

/// Per-peer received routes (after import policy, before path selection).
#[derive(Debug, Default, Clone)]
pub struct AdjRibIn {
    table: Table,
}

impl AdjRibIn {
    /// Insert or replace the route for `(peer, prefix)`. Returns whether the
    /// stored state changed — an identical re-announcement (cheap to detect:
    /// scalars plus short shared slices) is a no-op the caller can skip
    /// re-running decisions for. A route without a learning session has no
    /// `(peer, prefix)` slot and is rejected as a typed error.
    pub fn insert(&mut self, route: Route) -> Result<bool, LocalRouteError> {
        let Some(peer) = route.learned_from else {
            return Err(LocalRouteError {
                prefix: route.prefix,
            });
        };
        Ok(self.table.set(peer, route.prefix, &route.attrs))
    }

    /// Remove the route for `(peer, prefix)`; returns whether one existed.
    pub fn remove(&mut self, peer: PeerId, prefix: Prefix) -> bool {
        self.table.unset(peer, prefix)
    }

    /// Remove every route learned from `peer`, returning the affected
    /// prefixes (used when a session drops).
    pub fn flush_peer(&mut self, peer: PeerId) -> Vec<Prefix> {
        let mut prefixes = Vec::new();
        self.table.flush_peer(peer, |prefix| prefixes.push(prefix));
        prefixes
    }

    /// Remove every route failing `keep`, returning the affected prefixes
    /// (sorted, deduped). Used when a Route Filter RPA is installed: the new
    /// filter must be re-applied to routes already admitted to the RIB.
    pub fn purge(&mut self, mut keep: impl FnMut(&Route) -> bool) -> Vec<Prefix> {
        let mut prefixes = Vec::new();
        let mut removed = 0;
        self.table.prefixes.retain(|prefix, fan| {
            let before = fan.len();
            fan.retain(|&peer, attrs| {
                keep(&Route {
                    prefix: *prefix,
                    attrs: Arc::clone(attrs),
                    learned_from: Some(peer),
                })
            });
            if fan.len() < before {
                removed += before - fan.len();
                prefixes.push(*prefix);
            }
            !fan.is_empty()
        });
        self.table.total -= removed;
        prefixes
    }

    /// All routes toward `prefix`, across peers, in ascending session-id
    /// order. Each yielded `Route` costs one `Arc` bump.
    pub fn routes_for(&self, prefix: Prefix) -> RoutesFor<'_> {
        let entries = self
            .table
            .prefixes
            .get(&prefix)
            .map_or(&[][..], Fan::as_slice);
        RoutesFor {
            prefix,
            entries: entries.iter(),
        }
    }

    /// Number of routes held for `prefix` (without materializing them).
    pub fn routes_for_len(&self, prefix: Prefix) -> usize {
        self.table.prefixes.get(&prefix).map_or(0, Fan::len)
    }

    /// The route learned from `peer` for `prefix`, if any (materialized).
    pub fn route(&self, peer: PeerId, prefix: Prefix) -> Option<Route> {
        let attrs = self.table.get(peer, prefix)?;
        Some(Route {
            prefix,
            attrs: Arc::clone(attrs),
            learned_from: Some(peer),
        })
    }

    /// Every prefix held, ascending, with its `(session, body)` table in
    /// ascending session-id order — borrowed, no route materialized.
    pub fn tables(&self) -> impl Iterator<Item = (Prefix, &[(PeerId, Arc<PathAttributes>)])> {
        self.table
            .prefixes
            .iter()
            .map(|(prefix, fan)| (*prefix, fan.as_slice()))
    }

    /// Total stored routes.
    pub fn len(&self) -> usize {
        self.table.total
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.table.total == 0
    }

    /// Occupancy and byte-footprint summary for telemetry.
    pub(crate) fn footprint(&self) -> RibFootprint {
        self.table.footprint()
    }
}

/// Iterator over the materialized routes of one prefix, ascending by session
/// id (the candidate-gathering order the decision process depends on).
pub struct RoutesFor<'a> {
    prefix: Prefix,
    entries: std::slice::Iter<'a, (PeerId, Arc<PathAttributes>)>,
}

impl Iterator for RoutesFor<'_> {
    type Item = Route;

    fn next(&mut self) -> Option<Route> {
        let (peer, attrs) = self.entries.next()?;
        Some(Route {
            prefix: self.prefix,
            attrs: Arc::clone(attrs),
            learned_from: Some(*peer),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl ExactSizeIterator for RoutesFor<'_> {}

/// Per-peer advertised state: the body last sent to each session. The
/// daemon's export pass computes one body for every session and hands each
/// the same `Arc`, so a prefix advertised to N peers costs one body plus N
/// table slots.
#[derive(Debug, Default, Clone)]
pub struct AdjRibOut {
    table: Table,
}

impl AdjRibOut {
    /// Record that `attrs` is now advertised to `peer` for `prefix`.
    /// Returns `attrs` itself when the stored state changed (the caller puts
    /// exactly that `Arc` on the wire, so in-flight UPDATEs share the
    /// table's allocation), or `None` when the peer already held
    /// content-equal attributes (nothing to send).
    pub(crate) fn advertise(
        &mut self,
        peer: PeerId,
        prefix: Prefix,
        attrs: Arc<PathAttributes>,
    ) -> Option<Arc<PathAttributes>> {
        self.table.set(peer, prefix, &attrs).then_some(attrs)
    }

    /// Drop the advertisement state toward `peer` for `prefix`; returns
    /// whether one existed (i.e. whether a withdraw must be sent).
    pub(crate) fn withdraw(&mut self, peer: PeerId, prefix: Prefix) -> bool {
        self.table.unset(peer, prefix)
    }

    /// Drop all state toward `peer` (session removed or reset).
    pub(crate) fn flush_peer(&mut self, peer: PeerId) {
        self.table.flush_peer(peer, |_| {});
    }

    /// What is currently advertised to `peer` for `prefix`, if anything.
    pub(crate) fn attrs(&self, peer: PeerId, prefix: Prefix) -> Option<&Arc<PathAttributes>> {
        self.table.get(peer, prefix)
    }

    /// Everything advertised to `peer`, as `(prefix, shared body)` pairs in
    /// ascending prefix order.
    pub(crate) fn advertisements(
        &self,
        peer: PeerId,
    ) -> impl Iterator<Item = (Prefix, &Arc<PathAttributes>)> {
        self.table
            .prefixes
            .iter()
            .filter_map(move |(prefix, fan)| fan.get(&peer).map(|attrs| (*prefix, attrs)))
    }

    /// Occupancy and byte-footprint summary for telemetry.
    pub(crate) fn footprint(&self) -> RibFootprint {
        self.table.footprint()
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
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn route(peer: u64, prefix: &str) -> Route {
        Route::learned(p(prefix), PathAttributes::default(), PeerId(peer))
    }

    fn routes(rib: &AdjRibIn, prefix: &str) -> Vec<Route> {
        rib.routes_for(p(prefix)).collect()
    }

    fn prefixes(rib: &AdjRibIn) -> Vec<Prefix> {
        rib.tables().map(|(prefix, _)| prefix).collect()
    }

    #[test]
    fn insert_replace_and_lookup() {
        let mut rib = AdjRibIn::default();
        assert!(rib.insert(route(1, "10.0.0.0/8")).unwrap());
        assert!(
            !rib.insert(route(1, "10.0.0.0/8")).unwrap(),
            "identical re-insert reports no change"
        );
        let mut newer = route(1, "10.0.0.0/8");
        std::sync::Arc::make_mut(&mut newer.attrs).local_pref = 500;
        assert!(rib.insert(newer).unwrap());
        assert_eq!(rib.len(), 1, "same (peer, prefix) replaces");
        assert_eq!(
            rib.route(PeerId(1), p("10.0.0.0/8"))
                .unwrap()
                .attrs
                .local_pref,
            500
        );
    }

    #[test]
    fn routes_for_collects_across_peers() {
        let mut rib = AdjRibIn::default();
        rib.insert(route(1, "10.0.0.0/8")).unwrap();
        rib.insert(route(2, "10.0.0.0/8")).unwrap();
        rib.insert(route(1, "11.0.0.0/8")).unwrap();
        assert_eq!(routes(&rib, "10.0.0.0/8").len(), 2);
        assert_eq!(rib.routes_for_len(p("10.0.0.0/8")), 2);
        assert_eq!(routes(&rib, "11.0.0.0/8").len(), 1);
        assert_eq!(prefixes(&rib), vec![p("10.0.0.0/8"), p("11.0.0.0/8")]);
    }

    #[test]
    fn routes_for_yields_stored_bodies_in_session_order() {
        let mut rib = AdjRibIn::default();
        let bodies: Vec<Arc<PathAttributes>> = (0..64)
            .map(|_| Arc::new(PathAttributes::default()))
            .collect();
        // Arrival order is not session order.
        for peer in (1..=64u64).rev() {
            let r = Route::learned(
                p("10.0.0.0/8"),
                Arc::clone(&bodies[peer as usize - 1]),
                PeerId(peer),
            );
            rib.insert(r).unwrap();
        }
        assert_eq!(rib.footprint().peer_refs, 64);
        let all = routes(&rib, "10.0.0.0/8");
        let peers: Vec<u64> = all.iter().map(|r| r.learned_from.unwrap().0).collect();
        assert_eq!(peers, (1..=64).collect::<Vec<_>>());
        for (r, body) in all.iter().zip(&bodies) {
            assert!(Arc::ptr_eq(&r.attrs, body), "the stored Arc, not a copy");
        }
    }

    #[test]
    fn flush_peer_removes_only_that_peer() {
        let mut rib = AdjRibIn::default();
        rib.insert(route(1, "10.0.0.0/8")).unwrap();
        rib.insert(route(1, "11.0.0.0/8")).unwrap();
        rib.insert(route(2, "10.0.0.0/8")).unwrap();
        let flushed = rib.flush_peer(PeerId(1));
        assert_eq!(flushed.len(), 2);
        assert_eq!(rib.len(), 1);
        assert!(rib.route(PeerId(2), p("10.0.0.0/8")).is_some());
    }

    #[test]
    fn remove_single() {
        let mut rib = AdjRibIn::default();
        rib.insert(route(1, "10.0.0.0/8")).unwrap();
        assert!(rib.remove(PeerId(1), p("10.0.0.0/8")));
        assert!(!rib.remove(PeerId(1), p("10.0.0.0/8")));
        assert!(rib.is_empty());
        assert_eq!(rib.footprint(), RibFootprint::default());
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
    fn all_mutations_keep_counts_consistent() {
        let mut rib = AdjRibIn::default();
        rib.insert(route(1, "10.0.0.0/8")).unwrap();
        rib.insert(route(2, "10.0.0.0/8")).unwrap();
        rib.insert(route(2, "11.0.0.0/8")).unwrap();
        assert_eq!(routes(&rib, "10.0.0.0/8").len(), 2);
        rib.remove(PeerId(1), p("10.0.0.0/8"));
        assert_eq!(routes(&rib, "10.0.0.0/8").len(), 1);
        rib.purge(|r| r.prefix != p("11.0.0.0/8"));
        assert!(routes(&rib, "11.0.0.0/8").is_empty());
        assert_eq!(prefixes(&rib), vec![p("10.0.0.0/8")]);
        rib.flush_peer(PeerId(2));
        assert!(prefixes(&rib).is_empty());
        assert!(rib.is_empty());
    }

    #[test]
    fn inserting_local_route_is_a_typed_error() {
        let mut rib = AdjRibIn::default();
        let err = rib
            .insert(Route::local(p("0.0.0.0/0"), PathAttributes::default()))
            .unwrap_err();
        assert_eq!(err.prefix, p("0.0.0.0/0"));
        assert!(err.to_string().contains("no learning session"));
        assert!(rib.is_empty(), "rejected route leaves the RIB untouched");
    }

    #[test]
    fn advertise_returns_the_body_it_was_given() {
        let mut out = AdjRibOut::default();
        for peer in 1..=32 {
            let body = Arc::new(PathAttributes::default());
            let sent = out
                .advertise(PeerId(peer), p("0.0.0.0/0"), Arc::clone(&body))
                .expect("a new advertisement changes the state");
            assert!(Arc::ptr_eq(&sent, &body));
            assert!(Arc::ptr_eq(
                out.attrs(PeerId(peer), p("0.0.0.0/0")).unwrap(),
                &body
            ));
        }
        assert_eq!(out.footprint().peer_refs, 32);
        // A content-equal re-advertisement in a fresh allocation: nothing to
        // send, and the stored body stays.
        let held = Arc::clone(out.attrs(PeerId(5), p("0.0.0.0/0")).unwrap());
        assert!(out
            .advertise(
                PeerId(5),
                p("0.0.0.0/0"),
                Arc::new(PathAttributes::default())
            )
            .is_none());
        assert!(Arc::ptr_eq(
            out.attrs(PeerId(5), p("0.0.0.0/0")).unwrap(),
            &held
        ));
        assert!(out.withdraw(PeerId(5), p("0.0.0.0/0")));
        assert!(!out.withdraw(PeerId(5), p("0.0.0.0/0")));
        assert_eq!(out.footprint().peer_refs, 31);
    }

    #[test]
    fn adj_rib_out_enumeration_and_flush() {
        let mut out = AdjRibOut::default();
        out.advertise(
            PeerId(1),
            p("10.0.0.0/8"),
            Arc::new(PathAttributes::default()),
        );
        out.advertise(
            PeerId(1),
            p("11.0.0.0/8"),
            Arc::new(PathAttributes::default()),
        );
        out.advertise(
            PeerId(2),
            p("10.0.0.0/8"),
            Arc::new(PathAttributes::default()),
        );
        let for_one: Vec<Prefix> = out.advertisements(PeerId(1)).map(|(p, _)| p).collect();
        assert_eq!(for_one, vec![p("10.0.0.0/8"), p("11.0.0.0/8")]);
        assert!(out.attrs(PeerId(2), p("10.0.0.0/8")).is_some());
        assert!(out.attrs(PeerId(2), p("11.0.0.0/8")).is_none());
        out.flush_peer(PeerId(1));
        assert_eq!(out.footprint().peer_refs, 1);
        assert!(out.attrs(PeerId(2), p("10.0.0.0/8")).is_some());
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
