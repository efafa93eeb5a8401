//! The forwarding table with next-hop-group object accounting.
//!
//! §3.4 of the paper: packets of one forwarding-equivalence class hash over a
//! *next-hop group* object; switch ASICs support a bounded number of distinct
//! group objects, and transient convergence states can mint combinatorially
//! many (up to `s^m` upstream, `4^8` in the worked DU example), overflowing
//! the table and delaying forwarding updates. This module tracks exactly
//! that: the set of distinct groups currently referenced, its high-water
//! mark, cumulative group creations (churn), and overflow events.
//!
//! Storage is the sorted flat table the Loc-RIB already uses
//! ([`FlatMap<Prefix, FibEntry>`](centralium_bgp::flat::FlatMap)): the FIB
//! holds at most one entry per Loc-RIB entry, so both tables have the same
//! keys. Exact match, install and removal are one binary search over a
//! contiguous array; iteration is ascending `(addr, len)` — `Prefix`'s `Ord`,
//! the order snapshots, `Debug` output and the `verify_full_equivalence`
//! oracle are compared in; longest-prefix match is a predecessor search
//! ([`Fib::lookup`]).

use crate::hash::IdHashMap;
use centralium_bgp::flat::FlatMap;
use centralium_bgp::{FibEntry, PeerId, Prefix};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A next-hop group: the weighted next-hop set a prefix hashes over. Ordering
/// is canonical (sorted by session id) so identical groups compare equal.
pub type NextHopGroup = Vec<(PeerId, u32)>;

/// A live group as the table holds it: one allocation, shared by the
/// group → id index and the id → group map.
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
    /// Number of sync operations that found more groups than the hardware
    /// table holds.
    pub overflow_events: u64,
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
    /// Returns `true` when the call created the group.
    fn acquire(&mut self, group: &[(PeerId, u32)]) -> bool {
        match self.ids.get(group) {
            Some(&id) => {
                self.live.get_mut(&id).expect("live id").1 += 1;
                false
            }
            None => {
                let id = self.next_id;
                self.next_id += 1;
                let group = SharedGroup::from(group);
                self.ids.insert(Arc::clone(&group), id);
                self.live.insert(id, (group, 1));
                true
            }
        }
    }

    /// Drop a reference on `group`, keeping zero-refcount groups in the
    /// table until [`GroupTable::gc`] — batch semantics: a group released
    /// and re-acquired within one batch is not a new creation.
    fn release(&mut self, group: &[(PeerId, u32)]) {
        if let Some(&id) = self.ids.get(group) {
            let slot = self.live.get_mut(&id).expect("live id");
            slot.1 = slot.1.saturating_sub(1);
        }
    }

    /// Forget fully-released groups (and their ids).
    fn gc(&mut self) {
        let dead: Vec<u64> = self
            .live
            .iter()
            .filter(|(_, (_, count))| *count == 0)
            .map(|(&id, _)| id)
            .collect();
        for id in dead {
            let (group, _) = self.live.remove(&id).expect("dead id");
            self.ids.remove(&group);
        }
    }

    /// The lowest-id live group with the given member sessions (ignoring
    /// weights), for the dedup heuristic.
    fn same_members(&self, members: &[PeerId]) -> Option<&[(PeerId, u32)]> {
        self.live
            .values()
            .map(|(group, _)| &**group)
            .find(|g| g.len() == members.len() && g.iter().map(|(p, _)| p).eq(members.iter()))
    }
}

// ---------------------------------------------------------------------------
// Fib
// ---------------------------------------------------------------------------

/// A device's forwarding table.
#[derive(Clone)]
pub struct Fib {
    entries: FlatMap<Prefix, FibEntry>,
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
        struct Groups<'a>(&'a GroupTable);
        impl fmt::Debug for Groups<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.live.values().map(|(group, count)| (group, count)))
                    .finish()
            }
        }
        f.debug_struct("Fib")
            .field("entries", &self.entries)
            .field("capacity", &self.capacity)
            .field("groups", &Groups(&self.groups))
            .field("stats", &self.stats)
            .field("dedup_heuristic", &self.dedup_heuristic)
            .finish()
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

    /// Synchronize with the daemon's desired forwarding state.
    pub fn sync(&mut self, desired: Vec<FibEntry>) {
        // Canonicalize against the pre-batch table (the dedup heuristic and
        // creation counting both compare to "present before the batch"),
        // then rebuild. Releases are deferred so a group that survives the
        // sync keeps its id.
        let canonical: Vec<FibEntry> = desired
            .into_iter()
            .map(|mut e| {
                e.nexthops = self.canonical_group(&e.nexthops);
                e
            })
            .collect();
        let old: Vec<NextHopGroup> = self
            .entries
            .values()
            .map(|e| {
                let mut g = e.nexthops.clone();
                g.sort_unstable_by_key(|(p, _)| *p);
                g
            })
            .collect();
        for g in &old {
            self.groups.release(g);
        }
        // The daemon hands `desired` over in ascending prefix order, so each
        // insert lands at the end of the table.
        let mut table = FlatMap::new();
        for e in canonical {
            if let Some(prev) = table.insert(e.prefix, e) {
                // Duplicate prefix in the desired list: last write wins.
                let mut g = prev.nexthops.clone();
                g.sort_unstable_by_key(|(p, _)| *p);
                self.groups.release(&g);
            }
        }
        for e in table.values() {
            // Canonicalized above: nexthops are already sorted.
            if self.groups.acquire(&e.nexthops) {
                self.stats.group_creations += 1;
            }
        }
        self.groups.gc();
        self.entries = table;
        self.note_group_pressure();
    }

    /// Apply a per-prefix delta instead of a full rebuild — the incremental
    /// counterpart of [`Fib::sync`]. `None` removes the entry. Group
    /// refcounts, creations, the high-water mark and overflow accounting
    /// follow `sync`'s batch semantics exactly: a group counts as *created*
    /// only if it was absent before the whole batch, and overflow is checked
    /// once per batch. No-op changes (new entry equal to the installed one)
    /// are skipped entirely, and an all-no-op batch performs no accounting —
    /// callers must not rely on `apply` bumping stats the way a redundant
    /// `sync` would. Cost is a few binary searches per changed prefix (plus
    /// the tail shift of an install or removal). Installed next hops are in
    /// canonical (session-id) order — `sync` and `apply` both see to it on
    /// the way in, and the daemon's projection already is — so an entry's
    /// next hops *are* its group and nothing is copied to look one up.
    ///
    /// Not valid with [`Fib::dedup_heuristic`] (its reuse choice depends on
    /// the whole-table rebuild order); callers fall back to `sync` there.
    pub fn apply(&mut self, mut changes: Vec<(Prefix, Option<FibEntry>)>) {
        debug_assert!(
            !self.dedup_heuristic,
            "delta apply bypasses the dedup heuristic"
        );
        changes.retain_mut(|(prefix, new)| {
            if let Some(entry) = new {
                // A linear scan when already in order, as the daemon's are.
                entry.nexthops.sort_unstable_by_key(|(p, _)| *p);
            }
            self.entries.get(prefix) != new.as_ref()
        });
        if changes.is_empty() {
            return;
        }
        // Phase 1: release the old groups, keeping zero-refcount groups in
        // the table so phase 2's creation counting still sees "present
        // before the batch".
        for (prefix, _) in &changes {
            if let Some(old) = self.entries.get(prefix) {
                self.groups.release(&old.nexthops);
            }
        }
        // Phase 2: install the new entries and acquire their groups.
        for (prefix, new) in changes {
            match new {
                Some(entry) => {
                    if self.groups.acquire(&entry.nexthops) {
                        self.stats.group_creations += 1;
                    }
                    self.entries.insert(prefix, entry);
                }
                None => {
                    self.entries.remove(&prefix);
                }
            }
        }
        // Phase 3: drop groups the batch fully released.
        self.groups.gc();
        self.note_group_pressure();
    }

    /// Refresh the current / high-water / overflow accounting after a batch.
    fn note_group_pressure(&mut self) {
        self.stats.current_groups = self.groups.len();
        self.stats.max_groups = self.stats.max_groups.max(self.stats.current_groups);
        if self.stats.current_groups > self.capacity {
            self.stats.overflow_events += 1;
        }
    }

    /// Canonicalize a group, optionally applying the dedup heuristic: if an
    /// existing group has the same member sessions (any weights), reuse it.
    /// The reuse choice is the *oldest* (lowest-id) live candidate, so it is
    /// deterministic by construction.
    fn canonical_group(&self, nexthops: &[(PeerId, u32)]) -> NextHopGroup {
        let mut group: NextHopGroup = nexthops.to_vec();
        group.sort_unstable_by_key(|(p, _)| *p);
        if self.dedup_heuristic && !self.groups.contains(&group) {
            let members: Vec<PeerId> = group.iter().map(|(p, _)| *p).collect();
            if let Some(existing) = self.groups.same_members(&members) {
                return existing.to_vec();
            }
        }
        group
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
            let (found, entry) = self.entries.floor(&probe)?;
            if found.contains(dest) {
                return Some(entry);
            }
            let shared = (found.addr() ^ dest.addr()).leading_zeros() as u8;
            probe = Prefix::new(dest.addr(), shared.min(found.len()).min(dest.len()));
        }
    }

    /// Exact-prefix entry.
    pub fn entry(&self, prefix: Prefix) -> Option<&FibEntry> {
        self.entries.get(&prefix)
    }

    /// All entries, in ascending `(addr, len)` order.
    pub fn entries(&self) -> impl Iterator<Item = &FibEntry> {
        self.entries.values()
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

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn entry(prefix: &str, nexthops: &[(u64, u32)]) -> FibEntry {
        FibEntry {
            prefix: p(prefix),
            nexthops: nexthops.iter().map(|(d, w)| (PeerId(*d), *w)).collect(),
            warm: false,
        }
    }

    #[test]
    fn identical_groups_are_shared() {
        let mut fib = Fib::new(16);
        fib.sync(vec![
            entry("10.0.0.0/8", &[(1, 1), (2, 1)]),
            entry("11.0.0.0/8", &[(1, 1), (2, 1)]),
            entry("12.0.0.0/8", &[(2, 1), (1, 1)]), // different order, same group
        ]);
        let stats = fib.nhg_stats();
        assert_eq!(stats.current_groups, 1);
        assert_eq!(stats.group_creations, 1);
    }

    #[test]
    fn distinct_weights_mint_distinct_groups() {
        let mut fib = Fib::new(16);
        fib.sync(vec![
            entry("10.0.0.0/8", &[(1, 1), (2, 1)]),
            entry("11.0.0.0/8", &[(1, 1), (2, 3)]),
        ]);
        assert_eq!(fib.nhg_stats().current_groups, 2);
    }

    #[test]
    fn high_water_mark_persists_after_convergence() {
        let mut fib = Fib::new(16);
        // Transient: four prefixes, four distinct groups.
        fib.sync(vec![
            entry("10.0.0.0/8", &[(1, 1)]),
            entry("11.0.0.0/8", &[(2, 1)]),
            entry("12.0.0.0/8", &[(3, 1)]),
            entry("13.0.0.0/8", &[(4, 1)]),
        ]);
        // Converged: all share one group.
        fib.sync(vec![
            entry("10.0.0.0/8", &[(1, 1), (2, 1)]),
            entry("11.0.0.0/8", &[(1, 1), (2, 1)]),
            entry("12.0.0.0/8", &[(1, 1), (2, 1)]),
            entry("13.0.0.0/8", &[(1, 1), (2, 1)]),
        ]);
        let stats = fib.nhg_stats();
        assert_eq!(stats.current_groups, 1);
        assert_eq!(stats.max_groups, 4, "transient peak retained");
        assert_eq!(stats.group_creations, 5);
    }

    #[test]
    fn overflow_detected_when_groups_exceed_capacity() {
        let mut fib = Fib::new(2);
        fib.sync(vec![
            entry("10.0.0.0/8", &[(1, 1)]),
            entry("11.0.0.0/8", &[(2, 1)]),
            entry("12.0.0.0/8", &[(3, 1)]),
        ]);
        assert_eq!(fib.nhg_stats().overflow_events, 1);
    }

    #[test]
    fn dedup_heuristic_reuses_same_member_groups() {
        let mut fib = Fib::new(16);
        fib.dedup_heuristic = true;
        fib.sync(vec![entry("10.0.0.0/8", &[(1, 1), (2, 1)])]);
        // Same members, different weights: heuristic reuses the object.
        fib.sync(vec![
            entry("10.0.0.0/8", &[(1, 1), (2, 1)]),
            entry("11.0.0.0/8", &[(1, 1), (2, 3)]),
        ]);
        let stats = fib.nhg_stats();
        assert_eq!(stats.current_groups, 1, "heuristic deduped by member set");
        // But a different member set still mints a new group (best effort).
        fib.sync(vec![
            entry("10.0.0.0/8", &[(1, 1), (2, 1)]),
            entry("11.0.0.0/8", &[(1, 1), (3, 1)]),
        ]);
        assert_eq!(fib.nhg_stats().current_groups, 2);
    }

    #[test]
    fn longest_prefix_match() {
        let mut fib = Fib::new(16);
        fib.sync(vec![
            entry("0.0.0.0/0", &[(1, 1)]),
            entry("10.0.0.0/8", &[(2, 1)]),
            entry("10.1.0.0/16", &[(3, 1)]),
        ]);
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
        fib.sync(vec![
            entry("10.0.0.0/8", &[(1, 1)]),
            entry("11.0.0.0/8", &[(2, 1)]),
        ]);
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
        fib.sync(prefixes.iter().map(|s| entry(s, &[(1, 1)])).collect());
        let got: Vec<Prefix> = fib.entries().map(|e| e.prefix).collect();
        let mut want: Vec<Prefix> = prefixes.iter().map(|s| p(s)).collect();
        want.sort();
        assert_eq!(got, want, "preorder must equal (addr, len) order");
    }

    #[test]
    fn delta_apply_matches_sync_and_prunes() {
        let mut fib = Fib::new(16);
        fib.sync(vec![
            entry("0.0.0.0/0", &[(1, 1)]),
            entry("10.1.0.0/16", &[(2, 1)]),
        ]);
        fib.apply(vec![
            (p("10.1.0.0/16"), None),
            (p("10.2.0.0/16"), Some(entry("10.2.0.0/16", &[(3, 1)]))),
        ]);
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
        fib.apply(vec![(p("10.2.0.0/16"), None)]);
        assert_eq!(fib.entries().count(), 1);
    }

    #[test]
    fn group_ids_are_creation_ordered_and_forgotten_on_release() {
        let mut fib = Fib::new(16);
        fib.sync(vec![
            entry("10.0.0.0/8", &[(1, 1)]),
            entry("11.0.0.0/8", &[(2, 1)]),
        ]);
        // Replace both groups; the old ones are fully released.
        fib.sync(vec![
            entry("10.0.0.0/8", &[(3, 1)]),
            entry("11.0.0.0/8", &[(3, 1)]),
        ]);
        assert_eq!(fib.nhg_stats().group_creations, 3);
        // Re-creating a forgotten group is a fresh ASIC program.
        fib.sync(vec![entry("10.0.0.0/8", &[(1, 1)])]);
        assert_eq!(fib.nhg_stats().group_creations, 4);
    }
}
