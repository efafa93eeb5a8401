//! Routing Information Bases: Adj-RIB-In, Loc-RIB and Adj-RIB-Out.
//!
//! Both adjacency RIBs are **fan-in compressed**: a prefix's state is one
//! canonical-route table (one shared attribute body per distinct attribute
//! class) plus a sorted small-vector of `(peer, class-index)` references.
//! N neighbors announcing the same attributes cost one route body plus N
//! 16-byte refs instead of N full routes — the difference between O(prefixes
//! × neighbors) and O(prefixes × attr-classes) route bodies, which is what
//! lets spine-layer devices with hundreds of sessions fit a per-device byte
//! budget at 100k-device fabrics. Candidate gathering materializes `Route`
//! values on the fly (an `Arc` bump per route, never a deep copy) in
//! ascending session-id order — byte-identical to the per-peer slab layout
//! this replaces, a property the proptest equivalence suite pins against a
//! reference implementation of the old slab.

use crate::attrs::PathAttributes;
use crate::flat::FlatMap;
use crate::inline::InlineVec;
use crate::types::{PeerId, Prefix};
use serde::{Deserialize, Serialize};
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
/// `bgp.canonical_routes`/`bgp.peer_refs` telemetry gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RibFootprint {
    /// Canonical attribute-class bodies stored (post fan-in dedup).
    pub canonical_routes: usize,
    /// `(peer, class)` references stored — what [`AdjRibIn::len`] counts.
    pub peer_refs: usize,
    /// Estimated resident bytes: per-prefix fan structures (one flat-map
    /// slot each), class tables (capacity-based), shared attribute bodies,
    /// and spilled peer-ref storage.
    pub bytes: usize,
}

impl RibFootprint {
    fn absorb(&mut self, fan: &Fan) {
        self.canonical_routes += fan.classes.len();
        self.peer_refs += fan.peers.len();
        self.bytes += std::mem::size_of::<Prefix>() + std::mem::size_of::<Fan>();
        self.bytes += fan.classes.capacity() * std::mem::size_of::<CanonClass>();
        // One shared body per class; the AS-path and community slices inside
        // it are shared with other routes and not counted here.
        self.bytes += fan.classes.len() * std::mem::size_of::<PathAttributes>();
        if fan.peers.spilled() {
            self.bytes += fan.peers.len() * std::mem::size_of::<PeerRef>();
        }
    }
}

/// One canonical attribute class within a prefix's fan: the shared route
/// body plus how many peer refs currently point at it.
#[derive(Debug, Clone)]
struct CanonClass {
    attrs: Arc<PathAttributes>,
    refs: u32,
}

/// A compact peer→class reference: 16 bytes per announcing session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PeerRef {
    peer: PeerId,
    class: u32,
}

impl Default for PeerRef {
    fn default() -> Self {
        PeerRef {
            peer: PeerId(0),
            class: 0,
        }
    }
}

/// Outcome of pointing a peer's ref at an attribute class.
enum FanSet {
    /// The peer already referenced a content-equal class; nothing changed.
    Unchanged,
    /// The peer's ref was inserted or retargeted.
    Changed,
}

/// The per-prefix compressed fan shared by both adjacency RIBs: canonical
/// classes in first-seen order, peer refs sorted by session id.
///
/// Invariants: `classes[i].refs` equals the number of peer refs with
/// `class == i`; zero-ref classes are removed eagerly (with refs above the
/// hole shifted down); `peers` is strictly sorted by `peer`.
#[derive(Debug, Clone, Default)]
struct Fan {
    classes: Vec<CanonClass>,
    peers: InlineVec<PeerRef, 4>,
}

impl Fan {
    fn position(&self, peer: PeerId) -> Result<usize, usize> {
        self.peers
            .as_slice()
            .binary_search_by_key(&peer, |r| r.peer)
    }

    /// Class index whose body is content-equal to `attrs`, interning a new
    /// class when none matches. Bumps the refcount.
    fn intern(&mut self, attrs: &Arc<PathAttributes>) -> u32 {
        // Content equality is cheap: scalars plus short slices, which a
        // pointer compare settles when the bodies share them.
        if let Some(i) = self.classes.iter().position(|c| *c.attrs == **attrs) {
            self.classes[i].refs += 1;
            return i as u32;
        }
        self.classes.push(CanonClass {
            attrs: Arc::clone(attrs),
            refs: 1,
        });
        (self.classes.len() - 1) as u32
    }

    /// Drop one reference to `class`, removing the class (and shifting every
    /// ref above the hole down) when it was the last.
    fn release(&mut self, class: u32) {
        let i = class as usize;
        self.classes[i].refs -= 1;
        if self.classes[i].refs == 0 {
            self.classes.remove(i);
            for r in self.peers.as_mut_slice() {
                if r.class > class {
                    r.class -= 1;
                }
            }
        }
    }

    /// Point `peer` at the class for `attrs`, interning/retargeting as
    /// needed. Detects identical re-announcements without touching refcounts.
    fn set(&mut self, peer: PeerId, attrs: &Arc<PathAttributes>) -> FanSet {
        match self.position(peer) {
            Ok(i) => {
                let old = self.peers.as_slice()[i].class;
                if *self.classes[old as usize].attrs == **attrs {
                    return FanSet::Unchanged;
                }
                let new = self.intern(attrs);
                self.peers.as_mut_slice()[i].class = new;
                self.release(old);
                FanSet::Changed
            }
            Err(i) => {
                let class = self.intern(attrs);
                self.peers.insert(i, PeerRef { peer, class });
                FanSet::Changed
            }
        }
    }

    /// Remove `peer`'s ref if present; `true` when one existed.
    fn unset(&mut self, peer: PeerId) -> bool {
        match self.position(peer) {
            Ok(i) => {
                let r = self.peers.remove(i);
                self.release(r.class);
                true
            }
            Err(_) => false,
        }
    }

    fn get(&self, peer: PeerId) -> Option<&Arc<PathAttributes>> {
        let i = self.position(peer).ok()?;
        Some(&self.classes[self.peers.as_slice()[i].class as usize].attrs)
    }

    fn len(&self) -> usize {
        self.peers.len()
    }

    fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// `(peer, shared body)` pairs in ascending session-id order.
    fn iter(&self) -> impl Iterator<Item = (PeerId, &Arc<PathAttributes>)> {
        self.peers
            .as_slice()
            .iter()
            .map(|r| (r.peer, &self.classes[r.class as usize].attrs))
    }
}

/// Per-peer received routes (after import policy, before path selection),
/// fan-in compressed (see the module docs).
#[derive(Debug, Default, Clone)]
pub struct AdjRibIn {
    prefixes: FlatMap<Prefix, Fan>,
    total: usize,
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
        let fan = self.prefixes.entry_or_default(route.prefix);
        let had = fan.len();
        let outcome = fan.set(peer, &route.attrs);
        self.total += fan.len() - had;
        Ok(matches!(outcome, FanSet::Changed))
    }

    /// Remove the route for `(peer, prefix)`; returns whether one existed.
    pub fn remove(&mut self, peer: PeerId, prefix: Prefix) -> bool {
        let Some(fan) = self.prefixes.get_mut(&prefix) else {
            return false;
        };
        if !fan.unset(peer) {
            return false;
        }
        self.total -= 1;
        if fan.is_empty() {
            self.prefixes.remove(&prefix);
        }
        true
    }

    /// Remove every route learned from `peer`, returning the affected
    /// prefixes (used when a session drops).
    pub fn flush_peer(&mut self, peer: PeerId) -> Vec<Prefix> {
        let mut prefixes = Vec::new();
        let mut removed = 0;
        self.prefixes.retain(|prefix, fan| {
            if fan.unset(peer) {
                removed += 1;
                prefixes.push(*prefix);
            }
            !fan.is_empty()
        });
        self.total -= removed;
        prefixes
    }

    /// Remove every route failing `keep`, returning the affected prefixes
    /// (sorted, deduped). Used when a Route Filter RPA is installed: the new
    /// filter must be re-applied to routes already admitted to the RIB.
    pub fn purge(&mut self, mut keep: impl FnMut(&Route) -> bool) -> Vec<Prefix> {
        let mut prefixes = Vec::new();
        let mut removed = 0;
        self.prefixes.retain(|prefix, fan| {
            // Judge every ref first (in peer order, like the old slab's
            // `retain`), then drop rejects back-to-front so ref positions
            // stay valid while classes are released.
            let mut evict: Vec<usize> = Vec::new();
            for (i, (peer, attrs)) in fan.iter().enumerate() {
                let route = Route {
                    prefix: *prefix,
                    attrs: Arc::clone(attrs),
                    learned_from: Some(peer),
                };
                if !keep(&route) {
                    evict.push(i);
                }
            }
            if !evict.is_empty() {
                for &i in evict.iter().rev() {
                    let r = fan.peers.remove(i);
                    fan.release(r.class);
                }
                removed += evict.len();
                prefixes.push(*prefix);
            }
            !fan.is_empty()
        });
        self.total -= removed;
        prefixes
    }

    /// All routes toward `prefix`, across peers, in ascending session-id
    /// order. Routes are materialized on the fly from the canonical table —
    /// each yielded `Route` costs one `Arc` bump.
    pub fn routes_for(&self, prefix: Prefix) -> RoutesFor<'_> {
        RoutesFor {
            prefix,
            fan: self.prefixes.get(&prefix),
            i: 0,
        }
    }

    /// Number of routes held for `prefix` (without materializing them).
    pub fn routes_for_len(&self, prefix: Prefix) -> usize {
        self.prefixes.get(&prefix).map(Fan::len).unwrap_or(0)
    }

    /// The route learned from `peer` for `prefix`, if any (materialized).
    pub fn route(&self, peer: PeerId, prefix: Prefix) -> Option<Route> {
        let attrs = self.prefixes.get(&prefix)?.get(peer)?;
        Some(Route {
            prefix,
            attrs: Arc::clone(attrs),
            learned_from: Some(peer),
        })
    }

    /// All distinct prefixes present.
    pub fn prefixes(&self) -> Vec<Prefix> {
        self.prefixes.keys().copied().collect()
    }

    /// Total stored routes (peer refs).
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Occupancy and byte-footprint summary for telemetry.
    pub fn footprint(&self) -> RibFootprint {
        let mut f = RibFootprint::default();
        for fan in self.prefixes.values() {
            f.absorb(fan);
        }
        f
    }
}

// Serialized as the flat route list in iteration order (prefix-major, peer
// ascending); deserialization re-compresses. The wire shape is route-level,
// so the fan layout can evolve without breaking stored snapshots.
impl Serialize for AdjRibIn {
    fn serialize(&self) -> serde::Value {
        let mut out = Vec::with_capacity(self.total);
        for (prefix, fan) in self.prefixes.iter() {
            for (peer, attrs) in fan.iter() {
                out.push(
                    Route {
                        prefix: *prefix,
                        attrs: Arc::clone(attrs),
                        learned_from: Some(peer),
                    }
                    .serialize(),
                );
            }
        }
        serde::Value::Array(out)
    }
}

impl Deserialize for AdjRibIn {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let routes = Vec::<Route>::deserialize(v)?;
        let mut rib = AdjRibIn::default();
        for route in routes {
            rib.insert(route).map_err(serde::Error::custom)?;
        }
        Ok(rib)
    }
}

/// Iterator over the materialized routes of one prefix, ascending by session
/// id (the candidate-gathering order the decision process depends on).
pub struct RoutesFor<'a> {
    prefix: Prefix,
    fan: Option<&'a Fan>,
    i: usize,
}

impl Iterator for RoutesFor<'_> {
    type Item = Route;

    fn next(&mut self) -> Option<Route> {
        let fan = self.fan?;
        let r = fan.peers.as_slice().get(self.i)?;
        self.i += 1;
        Some(Route {
            prefix: self.prefix,
            attrs: Arc::clone(&fan.classes[r.class as usize].attrs),
            learned_from: Some(r.peer),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n =
            self.fan.map(Fan::len).unwrap_or(0) - self.i.min(self.fan.map(Fan::len).unwrap_or(0));
        (n, Some(n))
    }
}

impl ExactSizeIterator for RoutesFor<'_> {}

/// Per-peer advertised state, fan-out compressed: one canonical exported
/// attribute body per class, fanned out to the set of peers it was sent to.
/// The daemon's egress path exports the same post-policy attributes to most
/// sessions, so a prefix advertised to N peers costs one body + N refs.
#[derive(Debug, Default, Clone)]
pub struct AdjRibOut {
    prefixes: FlatMap<Prefix, Fan>,
    total: usize,
}

impl AdjRibOut {
    /// Record that `attrs` is now advertised to `peer` for `prefix`.
    /// Returns the canonical shared body when the stored state changed (the
    /// caller puts exactly that `Arc` on the wire, so in-flight UPDATEs
    /// share the table's allocation), or `None` when the peer already held
    /// content-equal attributes (nothing to send).
    pub fn advertise(
        &mut self,
        peer: PeerId,
        prefix: Prefix,
        attrs: Arc<PathAttributes>,
    ) -> Option<Arc<PathAttributes>> {
        let fan = self.prefixes.entry_or_default(prefix);
        let had = fan.len();
        let outcome = fan.set(peer, &attrs);
        self.total += fan.len() - had;
        match outcome {
            FanSet::Unchanged => None,
            FanSet::Changed => fan.get(peer).map(Arc::clone),
        }
    }

    /// Drop the advertisement state toward `peer` for `prefix`; returns
    /// whether one existed (i.e. whether a withdraw must be sent).
    pub fn withdraw(&mut self, peer: PeerId, prefix: Prefix) -> bool {
        let Some(fan) = self.prefixes.get_mut(&prefix) else {
            return false;
        };
        if !fan.unset(peer) {
            return false;
        }
        self.total -= 1;
        if fan.is_empty() {
            self.prefixes.remove(&prefix);
        }
        true
    }

    /// Drop all state toward `peer` (session removed or reset).
    pub fn flush_peer(&mut self, peer: PeerId) {
        let mut removed = 0;
        self.prefixes.retain(|_, fan| {
            if fan.unset(peer) {
                removed += 1;
            }
            !fan.is_empty()
        });
        self.total -= removed;
    }

    /// What is currently advertised to `peer` for `prefix`, if anything.
    pub fn attrs(&self, peer: PeerId, prefix: Prefix) -> Option<&Arc<PathAttributes>> {
        self.prefixes.get(&prefix)?.get(peer)
    }

    /// Everything advertised to `peer`, as `(prefix, shared body)` pairs in
    /// ascending prefix order.
    pub fn advertisements(
        &self,
        peer: PeerId,
    ) -> impl Iterator<Item = (Prefix, &Arc<PathAttributes>)> {
        self.prefixes
            .iter()
            .filter_map(move |(prefix, fan)| fan.get(peer).map(|attrs| (*prefix, attrs)))
    }

    /// Total advertised `(peer, prefix)` refs.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Occupancy and byte-footprint summary for telemetry.
    pub fn footprint(&self) -> RibFootprint {
        let mut f = RibFootprint::default();
        for fan in self.prefixes.values() {
            f.absorb(fan);
        }
        f
    }
}

// Same route-level wire shape as `AdjRibIn`: `(peer, prefix, attrs)` triples
// in iteration order, re-compressed on the way in.
impl Serialize for AdjRibOut {
    fn serialize(&self) -> serde::Value {
        let mut out = Vec::with_capacity(self.total);
        for (prefix, fan) in self.prefixes.iter() {
            for (peer, attrs) in fan.iter() {
                out.push((peer, *prefix, Arc::clone(attrs)).serialize());
            }
        }
        serde::Value::Array(out)
    }
}

impl Deserialize for AdjRibOut {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let triples = Vec::<(PeerId, Prefix, Arc<PathAttributes>)>::deserialize(v)?;
        let mut rib = AdjRibOut::default();
        for (peer, prefix, attrs) in triples {
            rib.advertise(peer, prefix, attrs);
        }
        Ok(rib)
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
pub fn take_selected(candidates: Vec<Route>, indices: &[usize]) -> Vec<Route> {
    let mut slots: Vec<Option<Route>> = candidates.into_iter().map(Some).collect();
    indices
        .iter()
        .map(|&i| slots[i].take().expect("selection indices must be distinct"))
        .collect()
}

/// The outcome of path selection for one prefix, as installed in the Loc-RIB.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
        assert_eq!(rib.prefixes(), vec![p("10.0.0.0/8"), p("11.0.0.0/8")]);
    }

    #[test]
    fn fan_in_shares_one_body_across_peers() {
        let mut rib = AdjRibIn::default();
        for peer in 1..=64 {
            rib.insert(route(peer, "10.0.0.0/8")).unwrap();
        }
        let f = rib.footprint();
        assert_eq!(f.peer_refs, 64);
        assert_eq!(
            f.canonical_routes, 1,
            "64 identical announcements share one canonical body"
        );
        // The yielded routes all point at the same allocation.
        let all = routes(&rib, "10.0.0.0/8");
        assert!(all
            .windows(2)
            .all(|w| Arc::ptr_eq(&w[0].attrs, &w[1].attrs)));
        // Iteration order is ascending by session id.
        let peers: Vec<u64> = all.iter().map(|r| r.learned_from.unwrap().0).collect();
        assert_eq!(peers, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn class_release_remaps_refs() {
        let mut rib = AdjRibIn::default();
        // Three classes: peers 1-2 share class A, peer 3 holds class B,
        // peer 4 holds class C.
        let mut b = route(3, "10.0.0.0/8");
        Arc::make_mut(&mut b.attrs).local_pref = 200;
        let mut c = route(4, "10.0.0.0/8");
        Arc::make_mut(&mut c.attrs).local_pref = 300;
        rib.insert(route(1, "10.0.0.0/8")).unwrap();
        rib.insert(route(2, "10.0.0.0/8")).unwrap();
        rib.insert(b).unwrap();
        rib.insert(c.clone()).unwrap();
        assert_eq!(rib.footprint().canonical_routes, 3);
        // Dropping peer 3's route removes class B; peer 4 must still
        // resolve to its local_pref=300 body after the index shift.
        assert!(rib.remove(PeerId(3), p("10.0.0.0/8")));
        assert_eq!(rib.footprint().canonical_routes, 2);
        assert_eq!(
            rib.route(PeerId(4), p("10.0.0.0/8"))
                .unwrap()
                .attrs
                .local_pref,
            300
        );
        assert_eq!(
            rib.route(PeerId(1), p("10.0.0.0/8"))
                .unwrap()
                .attrs
                .local_pref,
            PathAttributes::DEFAULT_LOCAL_PREF
        );
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
        assert_eq!(rib.prefixes(), vec![p("10.0.0.0/8")]);
        rib.flush_peer(PeerId(2));
        assert!(rib.prefixes().is_empty());
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
    fn serde_roundtrip_recompresses() {
        let mut rib = AdjRibIn::default();
        for peer in 1..=8 {
            rib.insert(route(peer, "10.0.0.0/8")).unwrap();
        }
        let mut other = route(9, "10.0.0.0/8");
        Arc::make_mut(&mut other.attrs).med = 7;
        rib.insert(other).unwrap();
        let back = AdjRibIn::deserialize(&rib.serialize()).unwrap();
        assert_eq!(back.len(), rib.len());
        assert_eq!(
            routes(&back, "10.0.0.0/8"),
            routes(&rib, "10.0.0.0/8"),
            "route-level wire shape preserves iteration order and content"
        );
        assert_eq!(back.footprint().canonical_routes, 2);
    }

    #[test]
    fn adj_rib_out_fans_out_one_body() {
        let mut out = AdjRibOut::default();
        let body = Arc::new(PathAttributes::default());
        let first = out
            .advertise(PeerId(1), p("0.0.0.0/0"), Arc::clone(&body))
            .expect("new advertisement returns the canonical body");
        for peer in 2..=32 {
            // Fresh allocation per peer, as the export path produces.
            let canon = out
                .advertise(
                    PeerId(peer),
                    p("0.0.0.0/0"),
                    Arc::new(PathAttributes::default()),
                )
                .expect("state changed");
            assert!(
                Arc::ptr_eq(&canon, &first),
                "fan-out shares the first body seen"
            );
        }
        let f = out.footprint();
        assert_eq!(f.peer_refs, 32);
        assert_eq!(f.canonical_routes, 1);
        // Identical re-advertisement: nothing to send.
        assert!(out
            .advertise(
                PeerId(5),
                p("0.0.0.0/0"),
                Arc::new(PathAttributes::default())
            )
            .is_none());
        assert!(out.withdraw(PeerId(5), p("0.0.0.0/0")));
        assert!(!out.withdraw(PeerId(5), p("0.0.0.0/0")));
        assert_eq!(out.len(), 31);
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
        assert_eq!(out.len(), 1);
        let back = AdjRibOut::deserialize(&out.serialize()).unwrap();
        assert_eq!(back.len(), 1);
        assert!(back.attrs(PeerId(2), p("10.0.0.0/8")).is_some());
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
