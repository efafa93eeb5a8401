//! Flow propagation and the utilization / effective-capacity metrics.

use crate::demand::Demands;
use crate::graph::{UpGraph, Weights};
use centralium_topology::DeviceId;
use std::collections::HashMap;

/// Propagate demands bottom-up through the graph under the given weights.
/// Returns `(per-node inflow, per-edge utilization)`. Traffic reaching a
/// sink is absorbed; traffic at a node with no up-edges is dropped (the
/// caller can detect this as conservation loss).
pub fn propagate(
    graph: &UpGraph,
    demands: &Demands,
    weights: &Weights,
) -> (HashMap<DeviceId, f64>, HashMap<(DeviceId, DeviceId), f64>) {
    let mut inflow: HashMap<DeviceId, f64> = HashMap::new();
    for (src, gbps) in demands.iter() {
        *inflow.entry(src).or_insert(0.0) += gbps;
    }
    let mut util: HashMap<(DeviceId, DeviceId), f64> = HashMap::new();
    for &node in graph.order() {
        if graph.is_sink(node) {
            continue;
        }
        let amount = inflow.get(&node).copied().unwrap_or(0.0);
        if amount <= 0.0 {
            continue;
        }
        let edges = graph.edges_of(node);
        let total_w: f64 = edges
            .iter()
            .map(|e| weights.get(&(node, e.to)).copied().unwrap_or(0.0))
            .sum();
        if total_w <= 0.0 {
            continue; // dropped
        }
        for e in edges {
            let w = weights.get(&(node, e.to)).copied().unwrap_or(0.0);
            if w <= 0.0 {
                continue;
            }
            let share = amount * w / total_w;
            *inflow.entry(e.to).or_insert(0.0) += share;
            if e.capacity > 0.0 {
                *util.entry((node, e.to)).or_insert(0.0) += share / e.capacity;
            } else {
                *util.entry((node, e.to)).or_insert(0.0) += f64::INFINITY;
            }
        }
    }
    (inflow, util)
}

/// Maximum link utilization under the scheme.
pub fn max_utilization(graph: &UpGraph, demands: &Demands, weights: &Weights) -> f64 {
    let (_, util) = propagate(graph, demands, weights);
    util.values().cloned().fold(0.0, f64::max)
}

/// Effective network capacity (§6.4): the most traffic (scaling the demand
/// pattern) the scheme can carry without any link exceeding 100% — linear in
/// the demand scale, so it is `total / max_util`.
pub fn effective_capacity(graph: &UpGraph, demands: &Demands, weights: &Weights) -> f64 {
    let mu = max_utilization(graph, demands, weights);
    if mu <= 0.0 {
        return f64::INFINITY;
    }
    demands.total() / mu
}

/// Demand delivered to sinks (conservation check).
pub fn delivered(graph: &UpGraph, demands: &Demands, weights: &Weights) -> f64 {
    let (inflow, _) = propagate(graph, demands, weights);
    graph
        .sinks()
        .map(|s| inflow.get(&s).copied().unwrap_or(0.0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ecmp_weights;
    use centralium_topology::{build_fabric, FabricSpec};

    #[test]
    fn conservation_on_symmetric_fabric() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let g = UpGraph::from_topology(&topo, &idx.backbone);
        let sources: Vec<_> = idx.fadu.iter().flatten().copied().collect();
        let d = Demands::uniform(&sources, 25.0);
        let w = ecmp_weights(&g);
        assert!((delivered(&g, &d, &w) - d.total()).abs() < 1e-9);
    }

    #[test]
    fn utilization_scales_linearly() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let g = UpGraph::from_topology(&topo, &idx.backbone);
        let sources: Vec<_> = idx.fadu.iter().flatten().copied().collect();
        let w = ecmp_weights(&g);
        let u1 = max_utilization(&g, &Demands::uniform(&sources, 10.0), &w);
        let u2 = max_utilization(&g, &Demands::uniform(&sources, 20.0), &w);
        assert!((u2 - 2.0 * u1).abs() < 1e-9);
    }

    #[test]
    fn effective_capacity_inverse_of_utilization() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let g = UpGraph::from_topology(&topo, &idx.backbone);
        let sources: Vec<_> = idx.fadu.iter().flatten().copied().collect();
        let d = Demands::uniform(&sources, 10.0);
        let w = ecmp_weights(&g);
        let cap = effective_capacity(&g, &d, &w);
        // Scale demand to exactly the effective capacity: utilization = 1.
        let scaled = Demands::uniform(&sources, 10.0 * cap / d.total());
        let mu = max_utilization(&g, &scaled, &w);
        assert!((mu - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_demand_has_infinite_capacity() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let g = UpGraph::from_topology(&topo, &idx.backbone);
        let w = ecmp_weights(&g);
        assert!(effective_capacity(&g, &Demands::new(), &w).is_infinite());
    }
}
