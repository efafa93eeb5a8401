//! A sorted flat map for small per-device tables.
//!
//! Every device in a simulated fabric carries a handful of keyed tables —
//! peers, Loc-RIB entries, adjacency-RIB prefixes and their per-session
//! tables — that hold between one and a few hundred entries. `BTreeMap`
//! pays for its first entry with a full
//! 11-slot node (0.6–1.2 KB for these value types); across 100k devices and
//! four tables per device that overhead alone is hundreds of MB, dwarfing
//! the entries themselves. [`FlatMap`] stores the entries as one sorted
//! `Vec<(K, V)>`: exact-fit-ish memory, binary-search lookups (as fast as a
//! B-tree walk at these sizes), and ascending-key iteration — the property
//! the decision process and the FIB's `{:?}` snapshots rely on.
//!
//! Inserts and removals shift the tail, so the type is only appropriate
//! where the entry count stays small-to-moderate (wiring-time peer setup,
//! per-prefix tables); it intentionally implements just the map surface the
//! daemon uses.

use std::fmt;

/// A map stored as a `Vec<(K, V)>` sorted by key. See the module docs.
#[derive(Clone)]
pub struct FlatMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        FlatMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> FlatMap<K, V> {
    /// An empty map (allocation-free).
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        let i = self.position(key).ok()?;
        Some(&self.entries[i].1)
    }

    /// The entry with the greatest key `<= key`, if any — the predecessor
    /// search behind the FIB's longest-prefix match. A probe at or below
    /// the first key is answered from the first entry alone: that is every
    /// default-route lookup, and one cache line instead of a search across a
    /// table nobody has touched since the last UPDATE.
    pub fn floor(&self, key: &K) -> Option<(&K, &V)> {
        let (first, value) = self.entries.first()?;
        if key <= first {
            return (key == first).then_some((first, value));
        }
        // `key` is above the first key, so at least one entry is `<=` it.
        let above = self.entries.partition_point(|(k, _)| k <= key);
        let (k, v) = &self.entries[above - 1];
        Some((k, v))
    }

    /// Mutable access to the value under `key`, if any.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.position(key).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// Grow capacity geometrically but modestly (~25%): doubling would
    /// strand up to a full table of slack on every device, and exact-fit
    /// growth is quadratic in copies for the few hundred-entry tables.
    fn reserve_for_insert(&mut self) {
        if self.entries.len() == self.entries.capacity() {
            let extra = (self.entries.len() / 4).max(4);
            self.entries.reserve_exact(extra);
        }
    }

    /// Insert or replace, returning the previous value if one existed.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.reserve_for_insert();
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Remove `key`, returning its value if one existed.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.position(key).ok()?;
        let (_, v) = self.entries.remove(i);
        self.maybe_shrink();
        Some(v)
    }

    /// The value under `key`, inserting a default when absent.
    pub(crate) fn entry_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        let i = match self.position(&key) {
            Ok(i) => i,
            Err(i) => {
                self.reserve_for_insert();
                self.entries.insert(i, (key, V::default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Keep only entries satisfying `keep`, preserving order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
        self.maybe_shrink();
    }

    /// Hand back capacity when occupancy drops well below it, so a table
    /// that churned (session flush, RPA purge) doesn't pin its high-water
    /// footprint forever.
    fn maybe_shrink(&mut self) {
        let cap = self.entries.capacity();
        if cap > 8 && self.entries.len() * 4 < cap {
            self.entries.shrink_to(self.entries.len() * 2);
        }
    }

    /// Keys in ascending order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// The entries as one slice, in ascending key order.
    pub fn as_slice(&self) -> &[(K, V)] {
        &self.entries
    }

    /// Heap bytes held by the entry storage itself (capacity-based; the
    /// values' own heap allocations are theirs to account).
    pub(crate) fn table_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(K, V)>()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for FlatMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_stay_sorted() {
        let mut m = FlatMap::new();
        for k in [5u32, 1, 9, 3, 7] {
            assert_eq!(m.insert(k, k * 10), None);
        }
        assert_eq!(m.insert(3, 333), Some(30));
        assert_eq!(m.len(), 5);
        assert_eq!(m.get(&3), Some(&333));
        assert_eq!(m.get(&4), None);
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
        assert_eq!(m.remove(&5), Some(50));
        assert_eq!(m.remove(&5), None);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn floor_is_the_greatest_key_at_or_below() {
        let mut m = FlatMap::new();
        assert_eq!(m.floor(&7u32), None);
        for k in [10u32, 20, 30] {
            m.insert(k, k + 1);
        }
        assert_eq!(m.floor(&9), None);
        assert_eq!(m.floor(&10), Some((&10, &11)));
        assert_eq!(m.floor(&29), Some((&20, &21)));
        assert_eq!(m.floor(&u32::MAX), Some((&30, &31)));
    }

    #[test]
    fn entry_or_default_and_retain() {
        let mut m: FlatMap<u8, Vec<u8>> = FlatMap::new();
        m.entry_or_default(2).push(20);
        m.entry_or_default(1).push(10);
        m.entry_or_default(2).push(21);
        assert_eq!(m.get(&2), Some(&vec![20, 21]));
        m.retain(|&k, _| k != 2);
        assert_eq!(m.len(), 1);
        assert!(m.get(&1).is_some());
    }

    #[test]
    fn shrinks_after_bulk_removal() {
        let mut m = FlatMap::new();
        for k in 0u32..100 {
            m.insert(k, [0u64; 4]);
        }
        let grown = m.table_bytes();
        m.retain(|&k, _| k < 5);
        assert!(
            m.table_bytes() <= grown / 4,
            "capacity {} should shrink after dropping 95% of entries",
            m.table_bytes()
        );
    }
}
