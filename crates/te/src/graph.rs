//! The upward TE graph extracted from a topology.

use centralium_topology::{DeviceId, DeviceState, Topology};
use std::collections::{BTreeMap, HashMap, HashSet};

/// One directed up-edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpEdge {
    /// Upper endpoint (next hop toward the sinks).
    pub to: DeviceId,
    /// Capacity in Gbps (parallel links pooled).
    pub capacity: f64,
}

/// Per-node split weights: `(node, nexthop) → fraction` (fractions at one
/// node need not sum to 1; consumers normalize).
pub type Weights = HashMap<(DeviceId, DeviceId), f64>;

/// A DAG of upward links toward a sink set (e.g. the backbone devices),
/// with nodes ordered by layer height for linear-time flow propagation.
#[derive(Debug, Clone)]
pub struct UpGraph {
    /// Up-edges per node, deterministic order.
    edges: BTreeMap<DeviceId, Vec<UpEdge>>,
    /// Nodes in increasing layer height (sources before sinks).
    order: Vec<DeviceId>,
    sinks: HashSet<DeviceId>,
}

impl UpGraph {
    /// Extract the up-graph from a topology. Only Up links between
    /// forwarding (non-Down) devices participate; Drained devices keep
    /// forwarding but their links can be excluded by the caller beforehand.
    /// Parallel links between the same pair pool their capacity.
    ///
    /// Edges leading into dead ends are pruned: a non-sink node that cannot
    /// reach any sink receives no traffic in the real network (BGP withdraws
    /// routes through it), so keeping such edges would let every TE scheme
    /// silently drop demand and overstate its capacity.
    pub fn from_topology(topo: &Topology, sinks: &[DeviceId]) -> Self {
        let sink_set: HashSet<DeviceId> = sinks.iter().copied().collect();
        let mut edges: BTreeMap<DeviceId, Vec<UpEdge>> = BTreeMap::new();
        let mut nodes: Vec<(usize, DeviceId)> = Vec::new();
        for dev in topo.devices() {
            if dev.state == DeviceState::Down {
                continue;
            }
            nodes.push((dev.layer().height(), dev.id));
            let mut pooled: BTreeMap<DeviceId, f64> = BTreeMap::new();
            for (up, lid) in topo.uplinks(dev.id) {
                if let Some(link) = topo.link(lid) {
                    *pooled.entry(up).or_insert(0.0) += link.capacity_gbps;
                }
            }
            edges.insert(
                dev.id,
                pooled
                    .into_iter()
                    .map(|(to, capacity)| UpEdge { to, capacity })
                    .collect(),
            );
        }
        // Iteratively remove edges toward nodes that cannot reach a sink.
        loop {
            let dead: HashSet<DeviceId> = edges
                .iter()
                .filter(|(id, e)| !sink_set.contains(id) && e.is_empty())
                .map(|(&id, _)| id)
                .collect();
            let mut changed = false;
            for e in edges.values_mut() {
                let before = e.len();
                e.retain(|edge| !dead.contains(&edge.to));
                changed |= e.len() != before;
            }
            if !changed {
                break;
            }
        }
        nodes.sort_unstable();
        UpGraph {
            edges,
            order: nodes.into_iter().map(|(_, id)| id).collect(),
            sinks: sink_set,
        }
    }

    /// Whether a node can carry traffic toward the sinks (it is a sink or
    /// kept at least one up-edge after dead-end pruning).
    pub fn is_routable(&self, node: DeviceId) -> bool {
        self.is_sink(node) || !self.edges_of(node).is_empty()
    }

    /// Nodes in propagation order (bottom-up).
    pub(crate) fn order(&self) -> &[DeviceId] {
        &self.order
    }

    /// Whether a node is a sink.
    pub(crate) fn is_sink(&self, node: DeviceId) -> bool {
        self.sinks.contains(&node)
    }

    /// The sink set.
    pub(crate) fn sinks(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.sinks.iter().copied()
    }

    /// Up-edges of a node.
    pub(crate) fn edges_of(&self, node: DeviceId) -> &[UpEdge] {
        self.edges.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate `(node, edges)` pairs deterministically.
    pub fn per_node(&self) -> impl Iterator<Item = (DeviceId, &[UpEdge])> {
        self.edges.iter().map(|(&n, e)| (n, e.as_slice()))
    }

    /// Total up-edge count.
    pub(crate) fn edge_count(&self) -> usize {
        self.edges.values().map(Vec::len).sum()
    }
}

/// Equal splits over every node's surviving up-edges (the BGP ECMP default).
pub fn ecmp_weights(graph: &UpGraph) -> Weights {
    let mut weights = Weights::new();
    for (node, edges) in graph.per_node() {
        if edges.is_empty() {
            continue;
        }
        let w = 1.0 / edges.len() as f64;
        for e in edges {
            weights.insert((node, e.to), w);
        }
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_topology::{build_fabric, FabricSpec};

    #[test]
    fn graph_extraction_orders_by_layer() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let g = UpGraph::from_topology(&topo, &idx.backbone);
        let order = g.order();
        // First nodes are RSWs (height 0), last are EBs (height 5).
        assert_eq!(order.first(), Some(&idx.rsw[0][0]));
        assert!(g.is_sink(*order.last().unwrap()));
        assert!(g.edge_count() > 0);
    }

    #[test]
    fn parallel_links_pool_capacity() {
        use centralium_topology::{Asn, DeviceName, Layer};
        let mut topo = Topology::new();
        let a = topo.add_device(DeviceName::new(Layer::Fauu, 0, 0), Asn(50000));
        let b = topo.add_device(DeviceName::new(Layer::Backbone, 0, 0), Asn(60000));
        topo.add_link(a, b, 100.0);
        topo.add_link(a, b, 100.0);
        let g = UpGraph::from_topology(&topo, &[b]);
        assert_eq!(
            g.edges_of(a),
            &[UpEdge {
                to: b,
                capacity: 200.0
            }]
        );
    }

    #[test]
    fn dead_end_edges_are_pruned() {
        let (mut topo, idx, _) = build_fabric(&FabricSpec::tiny());
        // Cut both EB links of one FAUU: it becomes a dead end; FADU edges
        // toward it must disappear from the TE graph.
        let victim = idx.fauu[0][0];
        let uplinks: Vec<_> = topo.uplinks(victim).into_iter().map(|(_, l)| l).collect();
        for l in uplinks {
            topo.remove_link(l);
        }
        let g = UpGraph::from_topology(&topo, &idx.backbone);
        assert!(!g.is_routable(victim));
        for &fadu in &idx.fadu[0] {
            assert!(g.edges_of(fadu).iter().all(|e| e.to != victim));
            assert!(g.is_routable(fadu), "other FAUU still reachable");
        }
    }

    #[test]
    fn down_devices_are_excluded() {
        let (mut topo, idx, _) = build_fabric(&FabricSpec::tiny());
        topo.set_device_state(idx.fauu[0][0], DeviceState::Down);
        let g = UpGraph::from_topology(&topo, &idx.backbone);
        for &fadu in &idx.fadu[0] {
            assert_eq!(g.edges_of(fadu).len(), 1, "one FAUU left in grid 0");
        }
    }

    #[test]
    fn ecmp_weights_are_uniform_and_normalized() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let g = UpGraph::from_topology(&topo, &idx.backbone);
        let w = ecmp_weights(&g);
        for (node, edges) in g.per_node() {
            if edges.is_empty() {
                continue;
            }
            let sum: f64 = edges.iter().map(|e| w[&(node, e.to)]).sum();
            assert!((sum - 1.0).abs() < 1e-9);
            let first = w[&(node, edges[0].to)];
            assert!(edges
                .iter()
                .all(|e| (w[&(node, e.to)] - first).abs() < 1e-12));
        }
    }
}
