//! The Open/R-like management plane.
//!
//! Appendix A.2: Centralium controls only BGP and reaches network devices
//! over routes provided by Open/R, a link-state protocol acting as a
//! resilient out-of-band management network. We model the part that matters
//! to the controller: SPF hop distances from the controller's attachment
//! point, giving per-device reachability and RPC latency.

use crate::arena::DenseMap;
use crate::event::SimTime;
use centralium_topology::{DeviceId, Topology};
use std::collections::VecDeque;

/// SPF view of the management network from the controller's rack.
#[derive(Debug, Clone)]
pub struct ManagementPlane {
    root: DeviceId,
    /// Hop distance from the root to each reachable device, stored in a
    /// dense id-indexed vector (device ids are dense, so the BFS frontier
    /// reads and writes one flat array instead of hashing every probe).
    distance: DenseMap<usize>,
    /// Per-hop latency in µs used for RPC cost estimates.
    pub per_hop_latency_us: SimTime,
    /// Fixed processing overhead per RPC in µs.
    pub rpc_overhead_us: SimTime,
}

impl ManagementPlane {
    /// Default per-hop propagation+forwarding latency.
    pub(crate) const DEFAULT_PER_HOP_US: SimTime = 50;
    /// Default fixed RPC overhead (serialization, daemon handling).
    pub(crate) const DEFAULT_OVERHEAD_US: SimTime = 200;

    /// Compute SPF from `root` over the topology's live devices and links.
    pub fn compute(topo: &Topology, root: DeviceId) -> Self {
        let mut distance = DenseMap::with_capacity(topo.device_count());
        if topo.device(root).is_some() {
            distance.insert(root, 0usize);
            let mut queue = VecDeque::from([root]);
            while let Some(cur) = queue.pop_front() {
                let d = distance[cur];
                for (next, _) in topo.neighbors(cur) {
                    if !distance.contains_key(next) {
                        distance.insert(next, d + 1);
                        queue.push_back(next);
                    }
                }
            }
        }
        ManagementPlane {
            root,
            distance,
            per_hop_latency_us: Self::DEFAULT_PER_HOP_US,
            rpc_overhead_us: Self::DEFAULT_OVERHEAD_US,
        }
    }

    /// The controller's attachment point.
    pub fn root(&self) -> DeviceId {
        self.root
    }

    /// Whether the controller can reach `dev` over the management plane.
    pub fn reachable(&self, dev: DeviceId) -> bool {
        self.distance.contains_key(dev)
    }

    /// Hop distance to `dev`, if reachable.
    pub(crate) fn hops_to(&self, dev: DeviceId) -> Option<usize> {
        self.distance.get(dev).copied()
    }

    /// One-way RPC latency estimate to `dev`, if reachable.
    pub fn rpc_latency_us(&self, dev: DeviceId) -> Option<SimTime> {
        self.hops_to(dev)
            .map(|h| self.rpc_overhead_us + self.per_hop_latency_us * h as SimTime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_topology::{build_fabric, DeviceState, FabricSpec};

    #[test]
    fn spf_distances_match_layer_structure() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        // Controller attached at the first RSW (server racks, per §6.2).
        let mp = ManagementPlane::compute(&topo, idx.rsw[0][0]);
        assert_eq!(mp.hops_to(idx.rsw[0][0]), Some(0));
        assert_eq!(mp.hops_to(idx.fsw[0][0]), Some(1));
        assert_eq!(mp.hops_to(idx.backbone[0]), Some(5));
        assert!(topo.devices().all(|d| mp.reachable(d.id)));
    }

    #[test]
    fn rpc_latency_scales_with_hops() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let mp = ManagementPlane::compute(&topo, idx.rsw[0][0]);
        let near = mp.rpc_latency_us(idx.fsw[0][0]).unwrap();
        let far = mp.rpc_latency_us(idx.fauu[0][0]).unwrap();
        assert!(far > near, "FAUUs are physically the most distant (§6.2)");
    }

    #[test]
    fn down_devices_partition_reachability() {
        let (mut topo, idx, _) = build_fabric(&FabricSpec::tiny());
        // Kill both FSWs of pod 0: pod-0 RSWs become unreachable from pod 1.
        for &fsw in &idx.fsw[0] {
            topo.set_device_state(fsw, DeviceState::Down);
        }
        let mp = ManagementPlane::compute(&topo, idx.rsw[1][0]);
        assert!(!mp.reachable(idx.rsw[0][0]));
        assert!(mp.reachable(idx.backbone[0]));
        assert!(!mp.reachable(idx.rsw[0][1]));
    }

    #[test]
    fn unknown_root_reaches_nothing() {
        let (topo, _, _) = build_fabric(&FabricSpec::tiny());
        let mp = ManagementPlane::compute(&topo, DeviceId(9999));
        assert!(!mp.reachable(DeviceId(0)));
        assert_eq!(mp.rpc_latency_us(DeviceId(0)), None);
    }
}
