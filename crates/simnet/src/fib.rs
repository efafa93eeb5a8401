//! The forwarding table with next-hop-group object accounting.
//!
//! §3.4 of the paper: packets of one forwarding-equivalence class hash over a
//! *next-hop group* object; switch ASICs support a bounded number of distinct
//! group objects, and transient convergence states can mint combinatorially
//! many (up to `s^m` upstream, `4^8` in the worked DU example), overflowing
//! the table and delaying forwarding updates. This module tracks exactly
//! that: the set of distinct groups currently referenced, its high-water
//! mark, cumulative group creations (churn), and overflow events. As an ASIC
//! entry points at a group object, an installed entry holds its group's one
//! allocation and remembers the group's id.
//!
//! The table changes only through a batch (`FibBatch`): the
//! [`ForwardingPlane`] a device's daemon programs during one decide, each
//! prefix whose Loc-RIB entry moved once and in ascending order, so a batch
//! costs its delta and never a rebuild. The §3.4 member-set dedup heuristic
//! runs on the same path. [`Fib::apply`] is one batch over a list.
//!
//! Storage is the sorted flat table the daemon keeps its prefixes in
//! ([`FlatMap<Prefix, _>`](centralium_bgp::flat::FlatMap)): the FIB
//! holds at most one entry per Loc-RIB entry, so both tables have the same
//! keys. A batch walks its table forward with one cursor
//! ([`FlatMap::find_from`](centralium_bgp::flat::FlatMap::find_from)), so
//! each program searches only the gap from the last; iteration is ascending
//! `(addr, len)` — `Prefix`'s `Ord`, the order snapshots, `Debug` output and
//! the `verify_full_equivalence` oracle are compared in; longest-prefix
//! match is a predecessor search ([`Fib::lookup`]).

use crate::hash::IdHashMap;
use centralium_bgp::flat::FlatMap;
use centralium_bgp::{FibEntry, ForwardingPlane, LocRibEntry, NextHops, PeerId, Prefix};
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;
use std::sync::Arc;

/// A next-hop group: the weighted next-hop set a prefix hashes over. Ordering
/// is canonical (sorted by session id) so identical groups compare equal.
pub(crate) type NextHopGroup = Vec<(PeerId, u32)>;

/// A live group as the table holds it: one allocation, shared by the
/// group → id index, the id → group map and every entry installed on it.
type SharedGroup = Arc<[(PeerId, u32)]>;

/// Counters describing next-hop-group pressure on a device.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NhgStats {
    /// Distinct groups referenced right now.
    pub current_groups: usize,
    /// Maximum distinct groups ever referenced simultaneously — the §3.4
    /// transient-explosion metric.
    pub max_groups: usize,
    /// Total group-object creations (churn); every new distinct group costs
    /// an ASIC programming operation.
    pub group_creations: u64,
    /// Batches that left more groups than the hardware table holds (a batch
    /// that changed nothing is not counted).
    pub overflow_events: u64,
}

/// Working memory of one FIB batch: a change's projected next hops and
/// the groups released to zero. Owned by whoever drives many FIBs and
/// lent to each batch, so no FIB keeps buffers between batches.
#[derive(Debug, Default)]
pub struct FibScratch {
    nexthops: NextHopGroup,
    released: Vec<u64>,
}

// ---------------------------------------------------------------------------
// Group table
// ---------------------------------------------------------------------------

/// Reference-counted next-hop-group objects with **creation-order ids**.
///
/// Every group alive in the table owns a monotonically-assigned id; lookups
/// that must pick among equivalent groups (the §3.4 dedup heuristic) choose
/// the lowest id, so the choice is deterministic by construction instead of
/// leaning on value ordering over hash-map iteration. A fully-released group
/// forgets its id — re-creating it later mints a fresh id and counts as a
/// new ASIC programming operation, exactly like the hardware it models.
#[derive(Debug, Clone, Default)]
struct GroupTable {
    /// Live group → its id. Point lookups only, by groups the local daemon
    /// projected: see [`crate::hash`] for why that allows the cheap hasher.
    ids: IdHashMap<SharedGroup, u64>,
    /// Live id → (group, refcount). Ordered so iteration (and `Debug`
    /// output) follows creation order deterministically. The group is the
    /// allocation `ids` keys by.
    live: BTreeMap<u64, (SharedGroup, usize)>,
    next_id: u64,
}

impl GroupTable {
    fn len(&self) -> usize {
        self.live.len()
    }

    fn contains(&self, group: &[(PeerId, u32)]) -> bool {
        self.ids.contains_key(group)
    }

    /// Take a reference on `group`, creating it (fresh id) when absent.
    /// Returns the group's id, the table's allocation of it, and whether the
    /// call created it — the only case that allocates.
    fn acquire(&mut self, group: &[(PeerId, u32)]) -> (u64, NextHops, bool) {
        if let Some(&id) = self.ids.get(group) {
            let (shared, count) = self.live.get_mut(&id).expect("live id");
            *count += 1;
            return (id, NextHops(Arc::clone(shared)), false);
        }
        let id = self.next_id;
        self.next_id += 1;
        let shared = SharedGroup::from(group);
        self.ids.insert(Arc::clone(&shared), id);
        self.live.insert(id, (Arc::clone(&shared), 1));
        (id, NextHops(shared), true)
    }

    /// Drop a reference on group `id`, noting it in `released` when that was
    /// the last. Zero-refcount groups stay until [`GroupTable::gc`] — batch
    /// semantics: a group released and re-acquired within one batch keeps
    /// its id and is not a new creation.
    fn release(&mut self, id: u64, released: &mut Vec<u64>) {
        let slot = self.live.get_mut(&id).filter(|(_, count)| *count > 0);
        // Invariant: each installed entry holds one reference on the group whose id it stores.
        debug_assert!(slot.is_some(), "group {id} released without a reference");
        if let Some((_, count)) = slot {
            *count -= 1;
            if *count == 0 {
                released.push(id);
            }
        }
    }

    /// Forget the groups in `released` that are still unreferenced (and
    /// their ids), visiting nothing else.
    fn gc(&mut self, released: &mut Vec<u64>) {
        for id in released.drain(..) {
            if let Entry::Occupied(slot) = self.live.entry(id) {
                if slot.get().1 == 0 {
                    self.ids.remove(&slot.remove().0);
                }
            }
        }
    }

    /// The §3.4 dedup heuristic: when `group` is not live, replace it with
    /// the lowest-id live group below `fresh` that has the same member
    /// sessions (any weights). The oldest candidate wins, so the choice is
    /// deterministic by construction.
    fn reuse_same_members(&self, group: &mut NextHopGroup, fresh: u64) {
        if self.contains(group) {
            return;
        }
        let same_members = |g: &[(PeerId, u32)]| {
            g.len() == group.len() && g.iter().zip(group.iter()).all(|(a, b)| a.0 == b.0)
        };
        let mut oldest_first = self.live.range(..fresh).map(|(_, (g, _))| g);
        if let Some(reused) = oldest_first.find(|g| same_members(g)) {
            group.clear();
            group.extend_from_slice(reused);
        }
    }
}

// ---------------------------------------------------------------------------
// Fib
// ---------------------------------------------------------------------------

/// A device's forwarding table.
#[derive(Clone)]
pub struct Fib {
    /// Installed entries, each with the id of the group its next hops share.
    entries: FlatMap<Prefix, (FibEntry, u64)>,
    /// Hardware limit on distinct next-hop group objects.
    capacity: usize,
    /// Groups currently referenced, with reference counts and stable ids.
    groups: GroupTable,
    stats: NhgStats,
    /// Best-effort dedup heuristic (the "native approach" of §3.4, e.g.
    /// in-place adjacency replace): when a prefix's group changes but has the
    /// same *member set* ignoring weights, reuse the old object instead of
    /// minting a new one. Best effort only — member-set changes still mint.
    pub dedup_heuristic: bool,
}

/// Deterministic `Debug`: entries in `(addr, len)` order and groups in
/// creation-id order. Parallel-determinism checks and the perf-bench shadow
/// oracle compare `{:?}` snapshots of whole FIBs, so this output must be
/// stable across runs and engines — never route it through hash-map
/// iteration.
impl fmt::Debug for Fib {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = self.entries.iter().map(|(p, (e, _))| (p, e));
        let groups = self.groups.live.values().map(|(g, count)| (g, count));
        f.debug_struct("Fib")
            .field("entries", &MapOf(entries))
            .field("capacity", &self.capacity)
            .field("groups", &MapOf(groups))
            .field("stats", &self.stats)
            .field("dedup_heuristic", &self.dedup_heuristic)
            .finish()
    }
}

/// Renders an iterator of pairs as a `Debug` map.
struct MapOf<I>(I);

impl<K: fmt::Debug, V: fmt::Debug, I: Iterator<Item = (K, V)> + Clone> fmt::Debug for MapOf<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.0.clone()).finish()
    }
}

impl Fib {
    /// Empty FIB with the given group-table capacity.
    pub fn new(capacity: usize) -> Self {
        Fib {
            entries: FlatMap::new(),
            capacity,
            groups: GroupTable::default(),
            stats: NhgStats::default(),
            dedup_heuristic: false,
        }
    }

    /// Open a batch of changes, projected in `scratch` (see [`FibBatch`]).
    /// The batch is accounted when it drops.
    pub(crate) fn batch<'a>(&'a mut self, scratch: &'a mut FibScratch) -> FibBatch<'a> {
        FibBatch {
            fresh: self.groups.next_id,
            fib: self,
            scratch,
            changed: false,
            cursor: 0,
        }
    }

    /// Apply `changes` as one batch: each a prefix and the Loc-RIB entry it
    /// now projects from (`None`: removed), as a daemon decide programs
    /// them — each prefix once, ascending.
    pub fn apply<'a>(
        &mut self,
        changes: impl IntoIterator<Item = (Prefix, Option<&'a LocRibEntry>)>,
        scratch: &mut FibScratch,
    ) {
        let mut batch = self.batch(scratch);
        for (prefix, entry) in changes {
            batch.program(prefix, entry);
        }
    }

    /// The entry that installs `prefix` on `group`, taking a reference on it.
    fn install(&mut self, prefix: Prefix, group: &[(PeerId, u32)], warm: bool) -> (FibEntry, u64) {
        let (id, nexthops, created) = self.groups.acquire(group);
        self.stats.group_creations += u64::from(created);
        let entry = FibEntry {
            prefix,
            nexthops,
            warm,
        };
        (entry, id)
    }

    /// Refresh the current / high-water / overflow accounting after a batch.
    fn note_group_pressure(&mut self) {
        self.stats.current_groups = self.groups.len();
        self.stats.max_groups = self.stats.max_groups.max(self.stats.current_groups);
        if self.stats.current_groups > self.capacity {
            self.stats.overflow_events += 1;
        }
    }

    /// Longest-prefix-match lookup, as a predecessor search. Every prefix
    /// covering `dest` sorts at or below it (same leading bits, shorter), so
    /// take the greatest entry `<=` the probe. If it covers `dest` it is the
    /// longest match: a longer one would sort between the two. If it does
    /// not, it lies between `dest` and whatever does cover `dest`, so that
    /// cover contains both and is no longer than the bits they share — retry
    /// at `dest` cut to those bits. An installed destination or a default
    /// route answers in the first round; a miss among dense neighbours climbs
    /// one shared-bit boundary per round, 32 at most, each a binary search.
    pub fn lookup(&self, dest: &Prefix) -> Option<&FibEntry> {
        let mut probe = *dest;
        loop {
            let (found, (entry, _)) = self.entries.floor(&probe)?;
            if found.contains(dest) {
                return Some(entry);
            }
            let shared = (found.addr() ^ dest.addr()).leading_zeros() as u8;
            probe = Prefix::new(dest.addr(), shared.min(found.len()).min(dest.len()));
        }
    }

    /// Exact-prefix entry.
    pub fn entry(&self, prefix: Prefix) -> Option<&FibEntry> {
        self.entries.get(&prefix).map(|(entry, _)| entry)
    }

    /// All entries, in ascending `(addr, len)` order.
    pub fn entries(&self) -> impl Iterator<Item = &FibEntry> {
        self.entries.values().map(|(entry, _)| entry)
    }

    /// Number of installed prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the FIB is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Group-table counters.
    pub fn nhg_stats(&self) -> NhgStats {
        self.stats
    }

    /// Reset the high-water mark and churn counters (keeps current state).
    pub fn reset_stats(&mut self) {
        self.stats = NhgStats {
            current_groups: self.groups.len(),
            max_groups: self.groups.len(),
            group_creations: 0,
            overflow_events: 0,
        };
    }

    /// Hardware group-table capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// One batch of changes to a [`Fib`] — the only way a FIB changes — and the
/// [`ForwardingPlane`] a device's daemon programs during one decide. Each
/// program is a prefix and the Loc-RIB entry it now projects from, borrowed
/// in place; `None`, or an entry without learned next hops, removes the
/// prefix. A decide programs each prefix it moved once, ascending, and the
/// batch follows with one cursor over its table. Group accounting is per
/// batch: a group counts as *created* only if it was absent before the
/// batch (one released to zero and re-acquired keeps its id), and the
/// high-water mark and overflow are checked once, when the batch drops. A
/// program that projects to the installed entry is skipped entirely, and a
/// batch of nothing but those performs no accounting.
///
/// Each program is projected into the scratch and sorted into canonical
/// (session-id) order there — a linear scan when already in order, as
/// native multipath sets are — so the projection *is* the group key. Under
/// [`Fib::dedup_heuristic`] a projection that is not a live group becomes
/// the lowest-id group that was live before the batch with the same member
/// sessions, if there is one. An installed entry shares the group table's
/// allocation and remembers its group's id, so a release is by id: nothing
/// is allocated unless the group is new to this FIB.
pub(crate) struct FibBatch<'a> {
    fib: &'a mut Fib,
    scratch: &'a mut FibScratch,
    /// Groups minted from here on are this batch's: never reuse targets.
    fresh: u64,
    /// Whether a program changed the table, so the drop accounts the batch.
    changed: bool,
    /// The walk's place in `fib.entries`: where the last program's prefix
    /// is or would be.
    cursor: usize,
}

impl ForwardingPlane for FibBatch<'_> {
    fn program(&mut self, prefix: Prefix, desired: Option<&LocRibEntry>) {
        let (fib, FibScratch { nexthops, released }) = (&mut *self.fib, &mut *self.scratch);
        nexthops.clear();
        if let Some(entry) = desired {
            nexthops.extend(entry.fib_nexthops());
        }
        nexthops.sort_unstable_by_key(|(p, _)| *p);
        if fib.dedup_heuristic {
            fib.groups.reuse_same_members(nexthops, self.fresh);
        }
        let warm = desired.is_some_and(|e| e.fib_warm_only);
        let found = fib.entries.find_from(self.cursor, &prefix);
        let (Ok(at) | Err(at)) = found;
        self.cursor = at;
        match found {
            Err(_) if nexthops.is_empty() => return,
            Err(at) => {
                let installed = fib.install(prefix, nexthops, warm);
                fib.entries.insert_at(at, prefix, installed);
            }
            Ok(at) => match fib.entries.at_mut(at) {
                (installed, _) if *installed.nexthops == **nexthops => {
                    if installed.warm == warm {
                        return;
                    }
                    installed.warm = warm;
                }
                (_, id) => {
                    fib.groups.release(*id, released);
                    if nexthops.is_empty() {
                        fib.entries.remove_at(at);
                    } else {
                        *fib.entries.at_mut(at) = fib.install(prefix, nexthops, warm);
                    }
                }
            },
        }
        self.changed = true;
    }
}

/// The batch's accounting: forget the groups it released to zero, then
/// refresh the current / high-water / overflow counts once.
impl Drop for FibBatch<'_> {
    fn drop(&mut self) {
        if self.changed {
            self.fib.groups.gc(&mut self.scratch.released);
            self.fib.note_group_pressure();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_bgp::{Path, PathAttributes, Route};
    use proptest::prelude::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// A Loc-RIB entry projecting to `nexthops`, selected in the order given.
    fn loc(nexthops: &[(u64, u32)], warm: bool) -> LocRibEntry {
        let route = |d| Route::learned(Prefix::DEFAULT, PathAttributes::default(), PeerId(d));
        let paths = nexthops.iter().map(|&(d, w)| Path::new(route(d), w));
        LocRibEntry::new(paths.collect(), None, warm)
    }

    /// One delta batch.
    fn apply(fib: &mut Fib, scratch: &mut FibScratch, changes: &[(&str, Option<&LocRibEntry>)]) {
        fib.apply(changes.iter().map(|(s, e)| (p(s), *e)), scratch);
    }

    /// One delta batch installing each prefix on the given next hops.
    fn install(fib: &mut Fib, batch: &[(&str, &[(u64, u32)])]) {
        let entries: Vec<_> = batch
            .iter()
            .map(|(s, hops)| (*s, loc(hops, false)))
            .collect();
        let changes: Vec<_> = entries.iter().map(|(s, e)| (*s, Some(e))).collect();
        apply(fib, &mut FibScratch::default(), &changes);
    }

    fn group_id(fib: &Fib, prefix: &str) -> u64 {
        fib.entries.get(&p(prefix)).expect("installed").1
    }

    /// The full rebuild the delta path replaced, kept as its reference: the
    /// whole desired table canonicalized against the groups live before
    /// the batch (under the dedup heuristic, a group that is not live
    /// becomes the lowest-id live group with its member sessions), then
    /// every entry released and re-installed in prefix order. Releases are
    /// deferred, so a group that survives keeps its id.
    fn rebuild(fib: &mut Fib, desired: &[FibEntry]) {
        let mut canonical = FlatMap::new();
        for e in desired {
            let mut group: NextHopGroup = e.nexthops.to_vec();
            group.sort_unstable_by_key(|(p, _)| *p);
            if fib.dedup_heuristic && !fib.groups.contains(&group) {
                let members = |g: &[(PeerId, u32)]| g.iter().map(|(p, _)| *p).collect::<Vec<_>>();
                let mut live = fib.groups.live.values().map(|(g, _)| g);
                if let Some(existing) = live.find(|g| members(g) == members(&group)) {
                    group = existing.to_vec();
                }
            }
            canonical.insert(e.prefix, (group, e.warm));
        }
        let mut released = Vec::new();
        for (_, id) in fib.entries.values() {
            fib.groups.release(*id, &mut released);
        }
        fib.entries = FlatMap::new();
        for (&prefix, (group, warm)) in canonical.iter() {
            let installed = fib.install(prefix, group, *warm);
            fib.entries.insert(prefix, installed);
        }
        fib.groups.gc(&mut released);
        fib.note_group_pressure();
    }

    /// Everything the group table holds: `(id, group, refcount)` in id order.
    fn live_groups(fib: &Fib) -> Vec<(u64, NextHopGroup, usize)> {
        let live = fib.groups.live.iter();
        live.map(|(id, (g, count))| (*id, g.to_vec(), *count))
            .collect()
    }

    #[test]
    fn identical_groups_are_shared() {
        let mut fib = Fib::new(16);
        install(
            &mut fib,
            &[
                ("10.0.0.0/8", &[(1, 1), (2, 1)]),
                ("11.0.0.0/8", &[(1, 1), (2, 1)]),
                ("12.0.0.0/8", &[(2, 1), (1, 1)]), // different order, same group
            ],
        );
        let stats = fib.nhg_stats();
        assert_eq!(stats.current_groups, 1);
        assert_eq!(stats.group_creations, 1);
    }

    #[test]
    fn distinct_weights_mint_distinct_groups() {
        let mut fib = Fib::new(16);
        install(
            &mut fib,
            &[
                ("10.0.0.0/8", &[(1, 1), (2, 1)]),
                ("11.0.0.0/8", &[(1, 1), (2, 3)]),
            ],
        );
        assert_eq!(fib.nhg_stats().current_groups, 2);
    }

    #[test]
    fn high_water_mark_persists_after_convergence() {
        let mut fib = Fib::new(16);
        // Transient: four prefixes, four distinct groups.
        install(
            &mut fib,
            &[
                ("10.0.0.0/8", &[(1, 1)]),
                ("11.0.0.0/8", &[(2, 1)]),
                ("12.0.0.0/8", &[(3, 1)]),
                ("13.0.0.0/8", &[(4, 1)]),
            ],
        );
        // Converged: all share one group.
        let converged: &[(u64, u32)] = &[(1, 1), (2, 1)];
        install(
            &mut fib,
            &[
                ("10.0.0.0/8", converged),
                ("11.0.0.0/8", converged),
                ("12.0.0.0/8", converged),
                ("13.0.0.0/8", converged),
            ],
        );
        let stats = fib.nhg_stats();
        assert_eq!(stats.current_groups, 1);
        assert_eq!(stats.max_groups, 4, "transient peak retained");
        assert_eq!(stats.group_creations, 5);
    }

    #[test]
    fn overflow_detected_when_groups_exceed_capacity() {
        let mut fib = Fib::new(2);
        install(
            &mut fib,
            &[
                ("10.0.0.0/8", &[(1, 1)]),
                ("11.0.0.0/8", &[(2, 1)]),
                ("12.0.0.0/8", &[(3, 1)]),
            ],
        );
        assert_eq!(fib.nhg_stats().overflow_events, 1);
    }

    #[test]
    fn dedup_heuristic_reuses_same_member_groups() {
        let mut fib = Fib::new(16);
        fib.dedup_heuristic = true;
        install(&mut fib, &[("10.0.0.0/8", &[(1, 1), (2, 1)])]);
        // Same members, different weights: heuristic reuses the object.
        install(&mut fib, &[("11.0.0.0/8", &[(1, 1), (2, 3)])]);
        let stats = fib.nhg_stats();
        assert_eq!(stats.current_groups, 1, "heuristic deduped by member set");
        assert_eq!(group_id(&fib, "11.0.0.0/8"), group_id(&fib, "10.0.0.0/8"));
        // But a different member set still mints a new group (best effort).
        install(&mut fib, &[("11.0.0.0/8", &[(1, 1), (3, 1)])]);
        assert_eq!(fib.nhg_stats().current_groups, 2);
    }

    #[test]
    fn dedup_never_reuses_a_group_minted_earlier_in_the_batch() {
        let mut fib = Fib::new(16);
        fib.dedup_heuristic = true;
        let mut reference = fib.clone();
        let batch: &[(&str, &[(u64, u32)])] = &[
            ("10.0.0.0/8", &[(1, 1), (2, 1)]),
            ("11.0.0.0/8", &[(1, 1), (2, 3)]),
        ];
        install(&mut fib, batch);
        // The rebuild canonicalizes against the table before the batch,
        // where neither group was live: both are minted.
        let desired: Vec<FibEntry> = fib.entries().cloned().collect();
        rebuild(&mut reference, &desired);
        assert_ne!(group_id(&fib, "10.0.0.0/8"), group_id(&fib, "11.0.0.0/8"));
        assert_eq!(fib.nhg_stats().group_creations, 2);
        assert_eq!(live_groups(&fib), live_groups(&reference));
        // In the next batch both are old: a third weighting reuses the
        // lower id.
        install(&mut fib, &[("12.0.0.0/8", &[(1, 2), (2, 2)])]);
        assert_eq!(group_id(&fib, "12.0.0.0/8"), group_id(&fib, "10.0.0.0/8"));
        assert_eq!(fib.nhg_stats().group_creations, 2);
    }

    #[test]
    fn longest_prefix_match() {
        let mut fib = Fib::new(16);
        install(
            &mut fib,
            &[
                ("0.0.0.0/0", &[(1, 1)]),
                ("10.0.0.0/8", &[(2, 1)]),
                ("10.1.0.0/16", &[(3, 1)]),
            ],
        );
        assert_eq!(
            fib.lookup(&p("10.1.2.0/24")).unwrap().prefix,
            p("10.1.0.0/16")
        );
        assert_eq!(
            fib.lookup(&p("10.2.0.0/16")).unwrap().prefix,
            p("10.0.0.0/8")
        );
        assert_eq!(fib.lookup(&p("99.0.0.0/8")).unwrap().prefix, p("0.0.0.0/0"));
    }

    #[test]
    fn reset_stats_keeps_current_groups() {
        let mut fib = Fib::new(16);
        install(
            &mut fib,
            &[("10.0.0.0/8", &[(1, 1)]), ("11.0.0.0/8", &[(2, 1)])],
        );
        fib.reset_stats();
        let stats = fib.nhg_stats();
        assert_eq!(stats.current_groups, 2);
        assert_eq!(stats.max_groups, 2);
        assert_eq!(stats.group_creations, 0);
    }

    #[test]
    fn trie_iteration_matches_ordered_map_order() {
        let mut fib = Fib::new(16);
        let prefixes = [
            "10.1.0.0/16",
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.128.0.0/9",
            "192.168.1.0/24",
            "10.1.0.0/24",
            "128.0.0.0/1",
        ];
        let batch: Vec<(&str, &[(u64, u32)])> =
            prefixes.iter().map(|s| (*s, &[(1, 1)][..])).collect();
        install(&mut fib, &batch);
        let got: Vec<Prefix> = fib.entries().map(|e| e.prefix).collect();
        let mut want: Vec<Prefix> = prefixes.iter().map(|s| p(s)).collect();
        want.sort();
        assert_eq!(got, want, "preorder must equal (addr, len) order");
    }

    #[test]
    fn delta_apply_removes_and_prunes() {
        let mut fib = Fib::new(16);
        install(
            &mut fib,
            &[("0.0.0.0/0", &[(1, 1)]), ("10.1.0.0/16", &[(2, 1)])],
        );
        let mut scratch = FibScratch::default();
        let hop = loc(&[(3, 1)], false);
        apply(
            &mut fib,
            &mut scratch,
            &[("10.1.0.0/16", None), ("10.2.0.0/16", Some(&hop))],
        );
        assert_eq!(fib.len(), 2);
        assert!(fib.entry(p("10.1.0.0/16")).is_none());
        assert_eq!(
            fib.lookup(&p("10.1.5.0/24")).unwrap().prefix,
            p("0.0.0.0/0")
        );
        assert_eq!(
            fib.lookup(&p("10.2.5.0/24")).unwrap().prefix,
            p("10.2.0.0/16")
        );
        // Removing the last deep entry must not leave dead interior nodes
        // that would surface in iteration.
        apply(&mut fib, &mut scratch, &[("10.2.0.0/16", None)]);
        assert_eq!(fib.entries().count(), 1);
    }

    #[test]
    fn group_ids_are_creation_ordered_and_forgotten_on_release() {
        let mut fib = Fib::new(16);
        install(
            &mut fib,
            &[("10.0.0.0/8", &[(1, 1)]), ("11.0.0.0/8", &[(2, 1)])],
        );
        // Replace both groups; the old ones are fully released.
        install(
            &mut fib,
            &[("10.0.0.0/8", &[(3, 1)]), ("11.0.0.0/8", &[(3, 1)])],
        );
        assert_eq!(fib.nhg_stats().group_creations, 3);
        // Re-creating a forgotten group is a fresh ASIC program.
        install(&mut fib, &[("10.0.0.0/8", &[(1, 1)])]);
        assert_eq!(fib.nhg_stats().group_creations, 4);
    }

    #[test]
    fn entries_with_one_next_hop_set_share_the_group_tables_allocation() {
        let mut fib = Fib::new(16);
        install(
            &mut fib,
            &[
                ("10.0.0.0/8", &[(1, 1), (2, 1)]),
                ("11.0.0.0/8", &[(2, 1), (1, 1)]),
            ],
        );
        let (same, other) = (loc(&[(2, 1), (1, 1)], false), loc(&[(3, 1)], false));
        apply(
            &mut fib,
            &mut FibScratch::default(),
            &[("12.0.0.0/8", Some(&same)), ("13.0.0.0/8", Some(&other))],
        );
        assert_eq!(fib.nhg_stats().current_groups, 2);
        for (entry, id) in fib.entries.values() {
            let (shared, _) = &fib.groups.live[id];
            assert!(
                Arc::ptr_eq(&entry.nexthops.0, shared),
                "{} holds the table's copy of its group",
                entry.prefix
            );
        }
        let held = |s| &fib.entry(p(s)).unwrap().nexthops.0;
        assert!(Arc::ptr_eq(held("10.0.0.0/8"), held("12.0.0.0/8")));
    }

    #[test]
    fn a_no_op_projection_keeps_the_installed_pointer_and_performs_no_accounting() {
        // Capacity 0: every accounting pass counts an overflow.
        let mut fib = Fib::new(0);
        let mut scratch = FibScratch::default();
        let first = loc(&[(1, 1), (2, 1)], false);
        apply(&mut fib, &mut scratch, &[("10.0.0.0/8", Some(&first))]);
        let installed = fib.entry(p("10.0.0.0/8")).unwrap().nexthops.clone();
        let stats = fib.nhg_stats();
        assert_eq!((stats.group_creations, stats.overflow_events), (1, 1));
        // The same projection from another entry, selected in reverse order.
        let again = loc(&[(2, 1), (1, 1)], false);
        apply(&mut fib, &mut scratch, &[("10.0.0.0/8", Some(&again))]);
        let now = &fib.entry(p("10.0.0.0/8")).unwrap().nexthops;
        assert!(Arc::ptr_eq(&installed.0, &now.0));
        assert_eq!(fib.nhg_stats(), stats);
        // A warm-only change re-programs the entry on the same group.
        let warm = loc(&[(1, 1), (2, 1)], true);
        apply(&mut fib, &mut scratch, &[("10.0.0.0/8", Some(&warm))]);
        let now = fib.entry(p("10.0.0.0/8")).unwrap();
        assert!(now.warm && Arc::ptr_eq(&installed.0, &now.nexthops.0));
        assert_eq!(fib.nhg_stats().group_creations, 1);
        assert_eq!(fib.nhg_stats().overflow_events, 2);
        // Under the heuristic, a projection that canonicalizes to the
        // installed group is a no-op too.
        fib.dedup_heuristic = true;
        let reweighted = loc(&[(1, 4), (2, 1)], true);
        apply(&mut fib, &mut scratch, &[("10.0.0.0/8", Some(&reweighted))]);
        assert_eq!(fib.nhg_stats().overflow_events, 2);
    }

    #[test]
    fn a_group_released_to_zero_and_reacquired_in_one_batch_keeps_its_id() {
        let mut fib = Fib::new(16);
        let mut scratch = FibScratch::default();
        let (a, b) = (loc(&[(1, 1)], false), loc(&[(2, 1)], false));
        apply(
            &mut fib,
            &mut scratch,
            &[("10.0.0.0/8", Some(&a)), ("11.0.0.0/8", Some(&b))],
        );
        let a_id = group_id(&fib, "10.0.0.0/8");
        // 10/8 drops group `a`'s last reference; 12/8 takes it up again.
        apply(
            &mut fib,
            &mut scratch,
            &[("10.0.0.0/8", Some(&b)), ("12.0.0.0/8", Some(&a))],
        );
        assert_eq!(group_id(&fib, "12.0.0.0/8"), a_id);
        let stats = fib.nhg_stats();
        assert_eq!((stats.group_creations, stats.current_groups), (2, 2));
    }

    #[test]
    fn a_group_released_to_zero_is_forgotten_while_the_others_stay_live() {
        let mut fib = Fib::new(16);
        let mut scratch = FibScratch::default();
        let (a, b) = (loc(&[(1, 1)], false), loc(&[(2, 1)], false));
        apply(
            &mut fib,
            &mut scratch,
            &[
                ("10.0.0.0/8", Some(&a)),
                ("11.0.0.0/8", Some(&b)),
                ("12.0.0.0/8", Some(&b)),
            ],
        );
        let a_id = group_id(&fib, "10.0.0.0/8");
        apply(
            &mut fib,
            &mut scratch,
            &[("10.0.0.0/8", None), ("11.0.0.0/8", None)],
        );
        assert!(!fib.groups.contains(&[(PeerId(1), 1)]));
        assert!(fib.groups.contains(&[(PeerId(2), 1)]));
        assert_eq!(fib.groups.live.len(), 1);
        assert!(scratch.released.is_empty(), "gc visited what was released");
        // Forgotten means re-creating it is a fresh ASIC program.
        apply(&mut fib, &mut scratch, &[("10.0.0.0/8", Some(&a))]);
        assert!(group_id(&fib, "10.0.0.0/8") > a_id);
        assert_eq!(fib.nhg_stats().group_creations, 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "released without a reference")]
    fn a_double_release_is_an_accounting_bug() {
        let mut fib = Fib::new(16);
        install(&mut fib, &[("10.0.0.0/8", &[(1, 1)])]);
        let id = group_id(&fib, "10.0.0.0/8");
        let mut released = Vec::new();
        fib.groups.release(id, &mut released);
        fib.groups.release(id, &mut released);
    }

    /// The `{:?}` rendering FIB snapshots are compared in: three scripted
    /// delta batches print exactly this.
    #[test]
    fn debug_rendering_is_unchanged() {
        let mut fib = Fib::new(2);
        install(
            &mut fib,
            &[
                ("0.0.0.0/0", &[(2, 1), (1, 1)]),
                ("10.0.0.0/8", &[(1, 1), (2, 1)]),
                ("10.1.0.0/16", &[(3, 2)]),
            ],
        );
        let mut scratch = FibScratch::default();
        let warm = loc(&[(1, 1), (2, 1)], true);
        let fresh = loc(&[(5, 3), (4, 1)], false);
        let single = loc(&[(6, 1)], false);
        apply(
            &mut fib,
            &mut scratch,
            &[
                ("10.0.0.0/8", None),
                ("10.1.0.0/16", Some(&warm)),
                ("10.2.0.0/16", Some(&fresh)),
                ("10.3.0.0/16", Some(&single)),
            ],
        );
        apply(&mut fib, &mut scratch, &[("10.3.0.0/16", Some(&single))]);
        let golden = "Fib { entries: {\
            Prefix { addr: 0, len: 0 }: FibEntry { prefix: Prefix { addr: 0, len: 0 }, \
            nexthops: [(PeerId(1), 1), (PeerId(2), 1)], warm: false }, \
            Prefix { addr: 167837696, len: 16 }: FibEntry { prefix: Prefix { addr: 167837696, len: 16 }, \
            nexthops: [(PeerId(1), 1), (PeerId(2), 1)], warm: true }, \
            Prefix { addr: 167903232, len: 16 }: FibEntry { prefix: Prefix { addr: 167903232, len: 16 }, \
            nexthops: [(PeerId(4), 1), (PeerId(5), 3)], warm: false }, \
            Prefix { addr: 167968768, len: 16 }: FibEntry { prefix: Prefix { addr: 167968768, len: 16 }, \
            nexthops: [(PeerId(6), 1)], warm: false }}, \
            capacity: 2, \
            groups: {[(PeerId(1), 1), (PeerId(2), 1)]: 2, [(PeerId(4), 1), (PeerId(5), 3)]: 1, \
            [(PeerId(6), 1)]: 1}, \
            stats: NhgStats { current_groups: 3, max_groups: 3, group_creations: 4, overflow_events: 1 }, \
            dedup_heuristic: false }";
        assert_eq!(format!("{fib:?}"), golden);
    }

    const PREFIXES: [&str; 6] = [
        "10.0.0.0/8",
        "10.1.0.0/16",
        "11.0.0.0/8",
        "12.0.0.0/8",
        "13.0.0.0/8",
        "14.0.0.0/8",
    ];

    /// A next-hop set over sessions 1–4: `members` is a bit mask (zero
    /// keeps session 1), weights cycle through 1–3 from `weights`.
    fn hops(members: u8, weights: u8) -> Vec<(u64, u32)> {
        let sessions = (1..=4).filter(|s| members & (1 << (s - 1)) != 0);
        let set: Vec<u64> = sessions.collect();
        let set = if set.is_empty() { vec![1] } else { set };
        let weight = |i: usize| 1 + (u32::from(weights) >> (2 * i)) % 3;
        set.into_iter()
            .enumerate()
            .map(|(i, s)| (s, weight(i)))
            .collect()
    }

    /// A prefix's desired next hops `(session, weight)` and warm flag.
    type Desired = (Vec<(u64, u32)>, bool);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dedup heuristic on the delta path lands exactly where the
        /// full rebuild does: entries, group ids and refcounts, and the
        /// current / high-water / creation counts, after every batch.
        /// Batches hold each prefix once, ascending, as a daemon drain does,
        /// and mix weight-only changes (op 0), member changes (1),
        /// removals (2), re-drained unchanged prefixes (3) and warm-only
        /// flips (4); a batch may repeat the previous one verbatim.
        #[test]
        fn dedup_on_the_delta_path_matches_the_full_rebuild(
            batches in proptest::collection::vec(
                (
                    any::<bool>(),
                    proptest::collection::vec((0u8..5, 0usize..6, 0u8..16, any::<u8>()), 0..6),
                ),
                1..24,
            )
        ) {
            let mut fib = Fib::new(4);
            fib.dedup_heuristic = true;
            let mut reference = fib.clone();
            let mut scratch = FibScratch::default();
            let mut desired: BTreeMap<Prefix, Desired> = BTreeMap::new();
            let mut batch: BTreeMap<Prefix, Option<Desired>> = BTreeMap::new();
            for (repeat, ops) in batches {
                if !repeat {
                    batch.clear();
                    for (op, at, members, weights) in ops {
                        let prefix = p(PREFIXES[at]);
                        let now = desired.get(&prefix).cloned();
                        let held = now.as_ref().map_or(members, |(h, _)| {
                            h.iter().map(|(s, _)| 1 << (s - 1)).sum()
                        });
                        let warm = now.as_ref().is_some_and(|(_, w)| *w);
                        let next = match op {
                            0 => Some((hops(held, weights), warm)),
                            1 => Some((hops(members, weights), warm)),
                            2 => None,
                            3 => now,
                            _ => now.map(|(h, w)| (h, !w)),
                        };
                        batch.insert(prefix, next);
                    }
                }
                for (prefix, next) in &batch {
                    match next {
                        Some(state) => desired.insert(*prefix, state.clone()),
                        None => desired.remove(prefix),
                    };
                }
                let entries: Vec<(Prefix, Option<LocRibEntry>)> = batch
                    .iter()
                    .map(|(prefix, next)| (*prefix, next.as_ref().map(|(h, w)| loc(h, *w))))
                    .collect();
                fib.apply(entries.iter().map(|(p, e)| (*p, e.as_ref())), &mut scratch);
                let projection: Vec<FibEntry> = desired
                    .iter()
                    .map(|(prefix, (h, warm))| {
                        let mut nexthops: NextHopGroup =
                            h.iter().map(|(s, w)| (PeerId(*s), *w)).collect();
                        nexthops.sort_unstable_by_key(|(p, _)| *p);
                        FibEntry { prefix: *prefix, nexthops: NextHops(nexthops.into()), warm: *warm }
                    })
                    .collect();
                rebuild(&mut reference, &projection);

                prop_assert!(fib.entries.iter().eq(reference.entries.iter()));
                prop_assert_eq!(live_groups(&fib), live_groups(&reference));
                let (got, want) = (fib.nhg_stats(), reference.nhg_stats());
                prop_assert_eq!(got.current_groups, want.current_groups);
                prop_assert_eq!(got.max_groups, want.max_groups);
                prop_assert_eq!(got.group_creations, want.group_creations);
            }
        }
    }
}
