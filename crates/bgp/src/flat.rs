//! A sorted flat map for small per-device tables.
//!
//! Every device in a simulated fabric carries a handful of keyed tables —
//! its sessions, its per-prefix RIB slots, its FIB — that hold between one
//! and a few hundred entries. `BTreeMap` pays for its first entry with a
//! full 11-slot node (0.6–1.2 KB for these value types); across 100k
//! devices that overhead alone is hundreds of MB, dwarfing the entries
//! themselves. [`FlatMap`] stores the keys and the values as two parallel
//! sorted `Vec`s: exact-fit-ish memory, binary-search lookups that read only
//! the keys (a few cache lines, however large the values), and ascending-key
//! iteration — the property the decision process and the FIB's `{:?}`
//! snapshots rely on. A walk over ascending keys (an UPDATE's run, a
//! decide's dirty list, a FIB batch) keeps its own cursor and searches with
//! [`FlatMap::find_from`], paying for the gap to the next key instead of a
//! search of the whole table; the map itself remembers nothing between
//! calls.
//!
//! Inserts and removals shift the tail, so the type is only appropriate
//! where the entry count stays small-to-moderate (wiring-time peer setup,
//! per-prefix tables); it intentionally implements just the map surface the
//! daemon uses.

use std::fmt;

/// A map stored as sorted keys beside their values. See the module docs.
#[derive(Clone)]
pub struct FlatMap<K, V> {
    keys: Vec<K>,
    /// `keys[i]`'s value at `i`.
    values: Vec<V>,
}

impl<K, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        FlatMap {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> FlatMap<K, V> {
    /// An empty map (allocation-free).
    pub fn new() -> Self {
        Self::default()
    }

    /// Where `key` is: `Ok` with its index, or `Err` with the index it
    /// would be inserted at. One binary search; the `*_at` calls below act
    /// on its answer without searching again.
    pub fn find(&self, key: &K) -> Result<usize, usize> {
        self.keys.binary_search(key)
    }

    /// [`find`](Self::find) for a walk that moves forward: `from` is the
    /// walk's cursor, the answer to its last step. While `key` is above
    /// `keys[from - 1]` the answer lies at or after `from`, so the search
    /// gallops forward from there (probes at `from`, `from + 1`, `from + 3`,
    /// …, doubling the stride) and then bisects the last stride: a walk over
    /// `k` ascending keys pays for the gaps between them, not `k` searches of
    /// the whole table. Otherwise (`from == 0`, past the end, or `key` at or
    /// below `keys[from - 1]`) it is `find`, so any `from` gives `find`'s
    /// answer.
    pub fn find_from(&self, from: usize, key: &K) -> Result<usize, usize> {
        let keys = &self.keys;
        let last = from.checked_sub(1).and_then(|last| keys.get(last));
        if last.is_none_or(|last| last >= key) {
            return self.find(key);
        }
        // Every key below `lo` is below `key`; `hi` is the next probe.
        let (mut lo, mut hi, mut stride) = (from, from, 1);
        while keys.get(hi).is_some_and(|k| k < key) {
            (lo, hi, stride) = (hi + 1, hi + stride, stride * 2);
        }
        let found = keys[lo..(hi + 1).min(keys.len())].binary_search(key);
        found.map(|i| lo + i).map_err(|i| lo + i)
    }

    /// The value at index `i` of a [`find`](Self::find) hit.
    pub fn at_mut(&mut self, i: usize) -> &mut V {
        &mut self.values[i]
    }

    /// Insert `key` at index `i` of a [`find`](Self::find) miss.
    pub fn insert_at(&mut self, i: usize, key: K, value: V) {
        debug_assert!(self.find(&key) == Err(i), "insert_at off the sort order");
        reserve_for_insert(&mut self.keys);
        reserve_for_insert(&mut self.values);
        self.keys.insert(i, key);
        self.values.insert(i, value);
    }

    /// Remove the entry at index `i` of a [`find`](Self::find) hit.
    pub fn remove_at(&mut self, i: usize) -> V {
        self.keys.remove(i);
        let value = self.values.remove(i);
        maybe_shrink(&mut self.keys);
        maybe_shrink(&mut self.values);
        value
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no entries are held.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The value under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        let i = self.find(key).ok()?;
        Some(&self.values[i])
    }

    /// The entry with the greatest key `<= key`, if any — the predecessor
    /// search behind the FIB's longest-prefix match. A probe at or below
    /// the first key is answered from the first entry alone: that is every
    /// default-route lookup, and one cache line instead of a search across a
    /// table nobody has touched since the last UPDATE.
    pub fn floor(&self, key: &K) -> Option<(&K, &V)> {
        let first = self.keys.first()?;
        if key <= first {
            return (key == first).then(|| (first, &self.values[0]));
        }
        // `key` is above the first key, so at least one entry is `<=` it.
        let i = self.keys.partition_point(|k| k <= key) - 1;
        Some((&self.keys[i], &self.values[i]))
    }

    /// Mutable access to the value under `key`, if any.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.find(key).ok()?;
        Some(self.at_mut(i))
    }

    /// Insert or replace, returning the previous value if one existed.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(self.at_mut(i), value)),
            Err(i) => {
                self.insert_at(i, key, value);
                None
            }
        }
    }

    /// Remove `key`, returning its value if one existed.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.find(key).ok()?;
        Some(self.remove_at(i))
    }

    /// Keep only entries satisfying `keep`, visited and kept in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        let mut kept = 0;
        for i in 0..self.keys.len() {
            if keep(&self.keys[i], &mut self.values[i]) {
                self.keys.swap(kept, i);
                self.values.swap(kept, i);
                kept += 1;
            }
        }
        self.keys.truncate(kept);
        self.values.truncate(kept);
        maybe_shrink(&mut self.keys);
        maybe_shrink(&mut self.values);
    }

    /// Keys in ascending order.
    pub(crate) fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Make room for exactly `additional` more entries.
    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        self.keys.reserve_exact(additional);
        self.values.reserve_exact(additional);
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.values.iter()
    }

    /// `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + Clone {
        self.keys.iter().zip(&self.values)
    }
}

/// Make room for one more entry, growing capacity geometrically but
/// modestly (~25%): doubling would strand up to a full table of slack on
/// every device, and exact-fit growth is quadratic in copies for the few
/// hundred-entry tables.
pub(crate) fn reserve_for_insert<T>(entries: &mut Vec<T>) {
    if entries.len() == entries.capacity() {
        entries.reserve_exact((entries.len() / 4).max(4));
    }
}

/// Hand back capacity when occupancy drops well below it, so a table that
/// churned (session flush, RPA purge) doesn't pin its high-water footprint
/// forever.
pub(crate) fn maybe_shrink<T>(entries: &mut Vec<T>) {
    let cap = entries.capacity();
    if cap > 8 && entries.len() * 4 < cap {
        entries.shrink_to(entries.len() * 2);
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for FlatMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.keys.iter().zip(&self.values))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Wherever a walk's cursor stands, `find_from` answers as `find`
        /// does: for present keys, absent keys between, below and above
        /// them.
        #[test]
        fn find_from_is_find_from_any_cursor(
            keys in proptest::collection::vec(0u16..400, 0..64),
            probes in proptest::collection::vec(0u16..402, 1..16),
        ) {
            let mut m = FlatMap::new();
            for &k in &keys {
                m.insert(k, ());
            }
            for probe in probes.iter().chain(&keys) {
                for from in 0..=m.len() {
                    let (got, want) = (m.find_from(from, probe), m.find(probe));
                    prop_assert_eq!(got, want, "{:?} from {}: {:?}, find {:?}", probe, from, got, want);
                }
            }
        }
    }

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
        let keys: Vec<u32> = m.keys().to_vec();
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
    fn one_find_then_acting_at_its_answer_and_retain() {
        let mut m: FlatMap<u8, Vec<u8>> = FlatMap::new();
        for (k, v) in [(2, 20), (1, 10), (2, 21)] {
            match m.find(&k) {
                Ok(i) => m.at_mut(i).push(v),
                Err(i) => m.insert_at(i, k, vec![v]),
            }
        }
        assert_eq!(m.get(&2), Some(&vec![20, 21]));
        assert_eq!(m.find(&3), Err(2));
        assert_eq!(m.remove_at(m.find(&1).unwrap()), vec![10]);
        m.insert(3, Vec::new());
        m.retain(|&k, _| k != 2);
        assert_eq!(m.len(), 1);
        assert!(m.get(&3).is_some());
    }

    #[test]
    fn shrinks_after_bulk_removal() {
        let mut m = FlatMap::new();
        for k in 0u32..100 {
            m.insert(k, [0u64; 4]);
        }
        let grown = m.values.capacity();
        m.retain(|&k, _| k < 5);
        assert_eq!(m.keys(), [0, 1, 2, 3, 4]);
        assert!(
            m.keys.capacity() <= grown / 4 && m.values.capacity() <= grown / 4,
            "capacity {} should shrink after dropping 95% of entries",
            m.values.capacity()
        );
    }
}
