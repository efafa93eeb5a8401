//! The topology graph: devices, links and adjacency indices.

use crate::device::{Device, DeviceId, DeviceState};
use crate::layer::Layer;
use crate::link::{Link, LinkId, LinkState};
use crate::naming::DeviceName;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// An in-memory network topology.
///
/// Mutations go through dedicated methods so the adjacency index can never
/// drift from the device/link tables — an invariant the proptest suite checks.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Topology {
    devices: BTreeMap<DeviceId, Device>,
    links: BTreeMap<LinkId, Link>,
    /// Per-device list of incident link ids (live and down alike).
    #[serde(skip)]
    adjacency: HashMap<DeviceId, Vec<LinkId>>,
    /// Lookup from structured name to id, for ergonomic test/bench code.
    #[serde(skip)]
    by_name: HashMap<DeviceName, DeviceId>,
    next_device_id: u32,
    next_link_id: u32,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild the skipped indices after deserialization.
    pub fn rebuild_indices(&mut self) {
        self.adjacency.clear();
        self.by_name.clear();
        for (&id, dev) in &self.devices {
            self.by_name.insert(dev.name, id);
            self.adjacency.entry(id).or_default();
        }
        for (&lid, link) in &self.links {
            self.adjacency.entry(link.a).or_default().push(lid);
            self.adjacency.entry(link.b).or_default().push(lid);
        }
    }

    // ---- device accessors -------------------------------------------------

    /// Number of devices (any state).
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Number of links (any state).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Look up a device by id.
    pub fn device(&self, id: DeviceId) -> Option<&Device> {
        self.devices.get(&id)
    }

    /// Look up a device id by its structured name.
    pub fn device_by_name(&self, name: DeviceName) -> Option<DeviceId> {
        self.by_name.get(&name).copied()
    }

    /// Iterate all devices in id order.
    pub fn devices(&self) -> impl Iterator<Item = &Device> {
        self.devices.values()
    }

    /// Iterate devices of one layer in id order.
    pub fn devices_in_layer(&self, layer: Layer) -> impl Iterator<Item = &Device> {
        self.devices.values().filter(move |d| d.layer() == layer)
    }

    /// Look up a link by id.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(&id)
    }

    /// Iterate all links in id order.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.values()
    }

    // ---- mutation ---------------------------------------------------------

    /// Add a device, returning its fresh id.
    ///
    /// # Panics
    /// Panics if a device with the same structured name already exists — the
    /// fabric builder and migration engine never create duplicate names, so a
    /// duplicate indicates a logic error worth failing loudly on.
    pub fn add_device(&mut self, name: DeviceName, asn: crate::Asn) -> DeviceId {
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate device name {name}"
        );
        let id = DeviceId(self.next_device_id);
        self.next_device_id += 1;
        self.devices.insert(id, Device::new(id, name, asn));
        self.by_name.insert(name, id);
        self.adjacency.entry(id).or_default();
        id
    }

    /// Remove a device and all incident links. Returns the removed device.
    pub fn remove_device(&mut self, id: DeviceId) -> Option<Device> {
        let dev = self.devices.remove(&id)?;
        self.by_name.remove(&dev.name);
        if let Some(incident) = self.adjacency.remove(&id) {
            for lid in incident {
                if let Some(link) = self.links.remove(&lid) {
                    let other = link.other_end(id).expect("link endpoint");
                    if let Some(v) = self.adjacency.get_mut(&other) {
                        v.retain(|&l| l != lid);
                    }
                }
            }
        }
        Some(dev)
    }

    /// Set a device's operational state.
    pub fn set_device_state(&mut self, id: DeviceId, state: DeviceState) -> bool {
        match self.devices.get_mut(&id) {
            Some(d) => {
                d.state = state;
                true
            }
            None => false,
        }
    }

    /// Override a device's FIB next-hop-group capacity.
    pub fn set_nhg_capacity(&mut self, id: DeviceId, cap: usize) -> bool {
        match self.devices.get_mut(&id) {
            Some(d) => {
                d.max_nexthop_groups = cap;
                true
            }
            None => false,
        }
    }

    /// Add a link between two existing devices. The endpoints are normalized
    /// so `a` is the lower-layer device when layers differ.
    ///
    /// # Panics
    /// Panics if either endpoint does not exist or if `a == b`.
    pub fn add_link(&mut self, a: DeviceId, b: DeviceId, capacity_gbps: f64) -> LinkId {
        assert_ne!(a, b, "self-links are not allowed");
        let la = self
            .devices
            .get(&a)
            .expect("link endpoint a exists")
            .layer();
        let lb = self
            .devices
            .get(&b)
            .expect("link endpoint b exists")
            .layer();
        let (lo, hi) = if lb.is_below(la) { (b, a) } else { (a, b) };
        let id = LinkId(self.next_link_id);
        self.next_link_id += 1;
        self.links.insert(id, Link::new(id, lo, hi, capacity_gbps));
        self.adjacency.entry(lo).or_default().push(id);
        self.adjacency.entry(hi).or_default().push(id);
        id
    }

    /// Remove a link. Returns the removed link.
    pub fn remove_link(&mut self, id: LinkId) -> Option<Link> {
        let link = self.links.remove(&id)?;
        for end in [link.a, link.b] {
            if let Some(v) = self.adjacency.get_mut(&end) {
                v.retain(|&l| l != id);
            }
        }
        Some(link)
    }

    // ---- adjacency queries -------------------------------------------------

    /// Ids of links incident to `id` (any state).
    pub fn incident_links(&self, id: DeviceId) -> &[LinkId] {
        self.adjacency.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Neighbours reachable over links in the Up state, excluding Down
    /// devices, with the connecting link id.
    pub fn neighbors(&self, id: DeviceId) -> Vec<(DeviceId, LinkId)> {
        self.incident_links(id)
            .iter()
            .filter_map(|&lid| {
                let link = self.links.get(&lid)?;
                if link.state != LinkState::Up {
                    return None;
                }
                let other = link.other_end(id)?;
                // A neighbour whose device is Down does not peer.
                let od = self.devices.get(&other)?;
                if od.state == DeviceState::Down {
                    return None;
                }
                Some((other, lid))
            })
            .collect()
    }

    /// Neighbours of `id` in the layer directly above it.
    pub fn uplinks(&self, id: DeviceId) -> Vec<(DeviceId, LinkId)> {
        self.neighbors_filtered(id, |own, other| other.height() > own.height())
    }

    fn neighbors_filtered(
        &self,
        id: DeviceId,
        keep: impl Fn(Layer, Layer) -> bool,
    ) -> Vec<(DeviceId, LinkId)> {
        let own = match self.devices.get(&id) {
            Some(d) => d.layer(),
            None => return Vec::new(),
        };
        self.neighbors(id)
            .into_iter()
            .filter(|(other, _)| {
                self.devices
                    .get(other)
                    .map(|d| keep(own, d.layer()))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Breadth-first shortest hop distance between two devices over Up links
    /// and non-Down devices, or `None` if disconnected.
    pub fn hop_distance(&self, from: DeviceId, to: DeviceId) -> Option<usize> {
        if from == to {
            return Some(0);
        }
        let mut seen: HashMap<DeviceId, usize> = HashMap::new();
        seen.insert(from, 0);
        let mut queue = VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            let d = seen[&cur];
            for (next, _) in self.neighbors(cur) {
                if next == to {
                    return Some(d + 1);
                }
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(next) {
                    e.insert(d + 1);
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// Whether the graph restricted to Up links / non-Down devices is
    /// connected (ignoring Down devices entirely). Empty topologies count as
    /// connected.
    pub fn is_connected(&self) -> bool {
        let alive: Vec<DeviceId> = self
            .devices
            .values()
            .filter(|d| d.state != DeviceState::Down)
            .map(|d| d.id)
            .collect();
        let Some(&start) = alive.first() else {
            return true;
        };
        let mut seen = std::collections::HashSet::from([start]);
        let mut queue = VecDeque::from([start]);
        while let Some(cur) = queue.pop_front() {
            for (next, _) in self.neighbors(cur) {
                if seen.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        alive.iter().all(|id| seen.contains(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::Asn;

    fn name(layer: Layer, g: u16, i: u16) -> DeviceName {
        DeviceName::new(layer, g, i)
    }

    fn tiny() -> (Topology, DeviceId, DeviceId, DeviceId) {
        let mut t = Topology::new();
        let fsw = t.add_device(name(Layer::Fsw, 0, 0), Asn(20000));
        let ssw1 = t.add_device(name(Layer::Ssw, 0, 0), Asn(30000));
        let ssw2 = t.add_device(name(Layer::Ssw, 0, 1), Asn(30001));
        t.add_link(fsw, ssw1, 100.0);
        t.add_link(fsw, ssw2, 100.0);
        (t, fsw, ssw1, ssw2)
    }

    #[test]
    fn add_and_query_devices() {
        let (t, fsw, ssw1, _) = tiny();
        assert_eq!(t.device_count(), 3);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.device(fsw).unwrap().layer(), Layer::Fsw);
        assert_eq!(t.device_by_name(name(Layer::Ssw, 0, 0)), Some(ssw1));
    }

    #[test]
    fn uplinks_respect_layers() {
        let (t, fsw, ssw1, ssw2) = tiny();
        let ups: Vec<DeviceId> = t.uplinks(fsw).into_iter().map(|(d, _)| d).collect();
        assert_eq!(ups.len(), 2);
        assert!(ups.contains(&ssw1) && ups.contains(&ssw2));
        assert!(t.uplinks(ssw1).is_empty());
    }

    #[test]
    fn link_endpoints_are_normalized_lower_first() {
        let mut t = Topology::new();
        let ssw = t.add_device(name(Layer::Ssw, 0, 0), Asn(30000));
        let fsw = t.add_device(name(Layer::Fsw, 0, 0), Asn(20000));
        // Added upper-first on purpose.
        let lid = t.add_link(ssw, fsw, 100.0);
        let link = t.link(lid).unwrap();
        assert_eq!(link.a, fsw, "lower-layer endpoint must be `a`");
        assert_eq!(link.b, ssw);
    }

    #[test]
    fn remove_device_cleans_links_and_adjacency() {
        let (mut t, fsw, ssw1, ssw2) = tiny();
        t.remove_device(ssw1);
        assert_eq!(t.device_count(), 2);
        assert_eq!(t.link_count(), 1);
        assert_eq!(t.uplinks(fsw).len(), 1);
        assert_eq!(t.uplinks(fsw)[0].0, ssw2);
        assert!(t.incident_links(ssw1).is_empty());
    }

    #[test]
    fn down_devices_and_links_are_excluded_from_neighbors() {
        let (mut t, fsw, ssw1, ssw2) = tiny();
        t.set_device_state(ssw1, DeviceState::Down);
        let ups: Vec<DeviceId> = t.uplinks(fsw).into_iter().map(|(d, _)| d).collect();
        assert_eq!(ups, vec![ssw2]);
        let lid = t.uplinks(fsw)[0].1;
        t.links.get_mut(&lid).unwrap().state = LinkState::Down;
        assert!(t.uplinks(fsw).is_empty());
    }

    #[test]
    fn drained_devices_remain_neighbors() {
        let (mut t, fsw, ssw1, _) = tiny();
        t.set_device_state(ssw1, DeviceState::Drained);
        assert_eq!(t.uplinks(fsw).len(), 2);
    }

    #[test]
    fn hop_distance_and_connectivity() {
        let (mut t, fsw, ssw1, ssw2) = tiny();
        assert_eq!(t.hop_distance(ssw1, ssw2), Some(2));
        assert_eq!(t.hop_distance(fsw, fsw), Some(0));
        assert!(t.is_connected());
        let iso = t.add_device(name(Layer::Rsw, 0, 0), Asn(10000));
        assert!(!t.is_connected());
        assert_eq!(t.hop_distance(fsw, iso), None);
    }

    #[test]
    fn device_ids_are_never_reused() {
        let (mut t, _, ssw1, _) = tiny();
        t.remove_device(ssw1);
        let fresh = t.add_device(name(Layer::Ssw, 0, 9), Asn(30009));
        assert!(fresh.0 > ssw1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate device name")]
    fn duplicate_names_panic() {
        let mut t = Topology::new();
        t.add_device(name(Layer::Fsw, 0, 0), Asn(1));
        t.add_device(name(Layer::Fsw, 0, 0), Asn(2));
    }

    #[test]
    fn rebuild_indices_restores_lookups() {
        let (t, fsw, _, _) = tiny();
        let json = serde_json::to_string(&t).unwrap();
        let mut back: Topology = serde_json::from_str(&json).unwrap();
        // Before rebuilding, skipped indices are empty.
        assert_eq!(back.device_by_name(name(Layer::Fsw, 0, 0)), None);
        back.rebuild_indices();
        assert_eq!(back.device_by_name(name(Layer::Fsw, 0, 0)), Some(fsw));
        assert_eq!(back.uplinks(fsw).len(), 2);
    }
}
