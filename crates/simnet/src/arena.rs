//! Dense per-device storage.
//!
//! [`DeviceId`]s are allocated densely from zero and never reused, which
//! makes a plain vector the right index for per-device state: one bounds
//! check and one cache line instead of the pointer-chasing `BTreeMap`/
//! `HashMap` lookups that used to sit on every event's path. At 10k+
//! devices the map overhead is what dominated the emulator's memory and
//! event throughput — a `BTreeMap<DeviceId, SimDevice>` walk touches a node
//! chain per lookup, while `DenseMap` is `slots[id.0]`.
//!
//! Iteration order is ascending `DeviceId`, identical to the `BTreeMap`
//! order it replaces — the byte-identity determinism suites pin that order,
//! so it is load-bearing, not cosmetic.

use centralium_topology::DeviceId;
use std::ops::{Index, IndexMut};

/// A map from [`DeviceId`] to `V` backed by a dense slot vector.
///
/// Designed for dense, rarely-removed id spaces: `insert` grows the slot
/// vector to the id, `remove` leaves a `None` hole (decommissions are rare
/// and ids are never reused, so holes never come back to life).
#[derive(Debug, Clone)]
pub struct DenseMap<V> {
    slots: Vec<Option<V>>,
}

impl<V> Default for DenseMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> DenseMap<V> {
    /// Empty map.
    pub(crate) fn new() -> Self {
        DenseMap { slots: Vec::new() }
    }

    /// Empty map with room for ids `0..capacity` without reallocating.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        DenseMap {
            slots: Vec::with_capacity(capacity),
        }
    }

    /// The value for `id`, if present.
    pub fn get(&self, id: DeviceId) -> Option<&V> {
        self.slots.get(id.0 as usize)?.as_ref()
    }

    /// Mutable value for `id`, if present.
    pub(crate) fn get_mut(&mut self, id: DeviceId) -> Option<&mut V> {
        self.slots.get_mut(id.0 as usize)?.as_mut()
    }

    /// Whether `id` has a value.
    pub(crate) fn contains_key(&self, id: DeviceId) -> bool {
        self.get(id).is_some()
    }

    /// Insert `value` for `id`, returning the previous value if any.
    pub(crate) fn insert(&mut self, id: DeviceId, value: V) -> Option<V> {
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx].replace(value)
    }

    /// Mutable value for `id`, inserting `default()` first if absent — the
    /// accumulate idiom (`*m.get_or_insert_with(id, || 0.0) += x`).
    pub(crate) fn get_or_insert_with(
        &mut self,
        id: DeviceId,
        default: impl FnOnce() -> V,
    ) -> &mut V {
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        self.slots[idx].get_or_insert_with(default)
    }

    /// Remove and return the value for `id`. The slot stays allocated (ids
    /// are never reused, so the hole is permanent but bounded).
    pub(crate) fn remove(&mut self, id: DeviceId) -> Option<V> {
        self.slots.get_mut(id.0 as usize)?.take()
    }

    /// Drop every entry, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
    }

    /// Present ids in ascending order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Present values in ascending id order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// `(id, &value)` pairs in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (DeviceId, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (DeviceId(i as u32), v)))
    }

    /// `(id, &mut value)` pairs in ascending id order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (DeviceId, &mut V)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|v| (DeviceId(i as u32), v)))
    }

    /// Bytes of the slot vector at *capacity* (what the allocator actually
    /// holds), for the quiescence memory gauges. Heap memory owned by the
    /// values themselves is accounted by their own gauges.
    pub(crate) fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.slots.capacity() * std::mem::size_of::<Option<V>>()
    }
}

impl<V> Index<DeviceId> for DenseMap<V> {
    type Output = V;
    fn index(&self, id: DeviceId) -> &V {
        self.get(id).expect("device present in DenseMap")
    }
}

impl<V> IndexMut<DeviceId> for DenseMap<V> {
    fn index_mut(&mut self, id: DeviceId) -> &mut V {
        self.get_mut(id).expect("device present in DenseMap")
    }
}

impl<V> FromIterator<(DeviceId, V)> for DenseMap<V> {
    fn from_iter<I: IntoIterator<Item = (DeviceId, V)>>(iter: I) -> Self {
        let mut map = DenseMap::new();
        for (id, v) in iter {
            map.insert(id, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = DenseMap::new();
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.insert(DeviceId(3), "c"), None);
        assert_eq!(m.insert(DeviceId(0), "a"), None);
        assert_eq!(m.insert(DeviceId(3), "c2"), Some("c"));
        assert_eq!(m.iter().count(), 2);
        assert_eq!(m.get(DeviceId(3)), Some(&"c2"));
        assert!(m.contains_key(DeviceId(0)));
        assert!(!m.contains_key(DeviceId(1)));
        assert!(!m.contains_key(DeviceId(999)));
        assert_eq!(m.remove(DeviceId(3)), Some("c2"));
        assert_eq!(m.remove(DeviceId(3)), None);
        assert_eq!(m.iter().count(), 1);
    }

    #[test]
    fn iteration_is_ascending_id_order() {
        let mut m = DenseMap::new();
        for id in [7u32, 2, 9, 0, 4] {
            m.insert(DeviceId(id), id);
        }
        m.remove(DeviceId(4));
        let ids: Vec<u32> = m.keys().map(|d| d.0).collect();
        assert_eq!(ids, vec![0, 2, 7, 9]);
        let vals: Vec<u32> = m.values().copied().collect();
        assert_eq!(vals, vec![0, 2, 7, 9]);
        let pairs: Vec<(u32, u32)> = m.iter().map(|(d, &v)| (d.0, v)).collect();
        assert_eq!(pairs, vec![(0, 0), (2, 2), (7, 7), (9, 9)]);
    }

    #[test]
    fn index_and_footprint() {
        let mut m = DenseMap::new();
        m.insert(DeviceId(1), 10u64);
        m[DeviceId(1)] += 5;
        assert_eq!(m[DeviceId(1)], 15);
        assert!(m.footprint_bytes() >= 2 * std::mem::size_of::<Option<u64>>());
    }

    #[test]
    fn matches_btreemap_order_under_churn() {
        use std::collections::BTreeMap;
        let mut dense = DenseMap::new();
        let mut oracle = BTreeMap::new();
        for i in 0..200u32 {
            let id = DeviceId((i * 37) % 256);
            dense.insert(id, i);
            oracle.insert(id, i);
            if i % 3 == 0 {
                let victim = DeviceId((i * 11) % 256);
                assert_eq!(dense.remove(victim), oracle.remove(&victim));
            }
        }
        let d: Vec<_> = dense.iter().map(|(k, &v)| (k, v)).collect();
        let o: Vec<_> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(d, o, "iteration order must match the BTreeMap it replaced");
    }
}
