#![warn(missing_docs, unreachable_pub)]

//! # centralium-te
//!
//! Centralized traffic engineering between the DC fabric and the backbone
//! (§6.4, Figure 13): "our TE algorithm consumes network topology and
//! minimizes maximum link utilization to improve effective network capacity."
//!
//! Three schemes are implemented so the Figure 13 comparison can be
//! regenerated:
//!
//! * [`ecmp_weights`] — equal splits over surviving next-hops (the BGP
//!   default);
//! * [`optimize_weights`] — the Centralium TE algorithm: iterative min-max
//!   link-utilization weight refinement;
//! * [`max_flow::effective_capacity_bound`] — the *ideal WCMP* upper bound
//!   via max-flow feasibility with binary search on the demand scale.
//!
//! The controller's traffic-engineering app turns the weights into Route
//! Attribute RPA intents.

pub mod demand;
pub mod graph;
pub mod max_flow;
pub mod metrics;

pub use demand::Demands;
pub use graph::{ecmp_weights, UpGraph, Weights};
pub use metrics::{effective_capacity, max_utilization, propagate};

use std::collections::HashMap;

/// The Centralium TE algorithm: minimize max link utilization by iteratively
/// shifting split weights at every node away from hot uplinks toward cold
/// ones.
///
/// Starts from capacity-proportional splits and performs `iterations` rounds
/// of multiplicative reweighting: each edge's weight is scaled by how much
/// cooler it is than the hottest edge of the same node, then renormalized.
/// Deterministic and typically within a few percent of the max-flow bound on
/// Clos fabrics with failures (Figure 13's "close to theoretical optimum").
pub fn optimize_weights(graph: &UpGraph, demands: &Demands, iterations: usize) -> Weights {
    // Start capacity-proportional.
    let mut weights: Weights = HashMap::new();
    for (node, edges) in graph.per_node() {
        let total: f64 = edges.iter().map(|e| e.capacity).sum();
        for e in edges {
            weights.insert(
                (node, e.to),
                if total > 0.0 { e.capacity / total } else { 0.0 },
            );
        }
    }
    if graph.edge_count() == 0 {
        return weights;
    }
    // The multiplicative update is a heuristic and can overshoot; track the
    // best iterate seen and never return anything worse than plain ECMP.
    let mut best = ecmp_weights(graph);
    let mut best_util = metrics::max_utilization(graph, demands, &best);
    let start_util = metrics::max_utilization(graph, demands, &weights);
    if start_util < best_util {
        best = weights.clone();
        best_util = start_util;
    }
    for _ in 0..iterations {
        let (_, link_util) = propagate(graph, demands, &weights);
        // Downstream congestion labels, computed top-down: what heat traffic
        // entering each node goes on to experience. Without this the
        // reweighting is myopic — a FADU whose own uplinks are cool would
        // never steer around a congested FAUU behind them.
        let mut label: HashMap<centralium_topology::DeviceId, f64> = HashMap::new();
        // A non-sink node with no up-edges is a dead end: traffic steered
        // into it is dropped, so it must look maximally hot, never cold.
        const DEAD_END_HEAT: f64 = 1e9;
        for &node in graph.order().iter().rev() {
            if graph.is_sink(node) {
                label.insert(node, 0.0);
                continue;
            }
            let edges = graph.edges_of(node);
            if edges.is_empty() {
                label.insert(node, DEAD_END_HEAT);
                continue;
            }
            let mut weighted = 0.0;
            let mut total_w = 0.0;
            for e in edges {
                let w = weights.get(&(node, e.to)).copied().unwrap_or(0.0);
                let cost = link_util
                    .get(&(node, e.to))
                    .copied()
                    .unwrap_or(0.0)
                    .max(label.get(&e.to).copied().unwrap_or(0.0));
                weighted += w * cost;
                total_w += w;
            }
            label.insert(
                node,
                if total_w > 0.0 {
                    weighted / total_w
                } else {
                    0.0
                },
            );
        }
        let mut changed = false;
        for (node, edges) in graph.per_node() {
            if edges.len() < 2 {
                continue;
            }
            let utils: Vec<f64> = edges
                .iter()
                .map(|e| {
                    link_util
                        .get(&(node, e.to))
                        .copied()
                        .unwrap_or(0.0)
                        .max(label.get(&e.to).copied().unwrap_or(0.0))
                })
                .collect();
            let hottest = utils.iter().cloned().fold(0.0_f64, f64::max);
            if hottest <= 0.0 {
                continue;
            }
            // Multiplicative shift: weight *= (1 + alpha * (hottest - u)/hottest).
            const ALPHA: f64 = 0.5;
            let mut new_w: Vec<f64> = edges
                .iter()
                .zip(&utils)
                .map(|(e, u)| {
                    let w = weights.get(&(node, e.to)).copied().unwrap_or(0.0);
                    w * (1.0 + ALPHA * (hottest - u) / hottest)
                })
                .collect();
            let sum: f64 = new_w.iter().sum();
            if sum <= 0.0 {
                continue;
            }
            for w in &mut new_w {
                *w /= sum;
            }
            for (e, w) in edges.iter().zip(new_w) {
                let key = (node, e.to);
                if (weights[&key] - w).abs() > 1e-12 {
                    changed = true;
                }
                weights.insert(key, w);
            }
        }
        let util = metrics::max_utilization(graph, demands, &weights);
        if util < best_util {
            best_util = util;
            best = weights.clone();
        }
        if !changed {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_topology::{build_fabric, FabricSpec};

    #[test]
    fn te_matches_ecmp_on_symmetric_fabric() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let graph = UpGraph::from_topology(&topo, &idx.backbone);
        let sources: Vec<_> = idx.fadu.iter().flatten().copied().collect();
        let demands = Demands::uniform(&sources, 50.0);
        let ecmp = ecmp_weights(&graph);
        let te = optimize_weights(&graph, &demands, 50);
        let u_ecmp = max_utilization(&graph, &demands, &ecmp);
        let u_te = max_utilization(&graph, &demands, &te);
        assert!(
            (u_ecmp - u_te).abs() < 1e-6,
            "symmetric fabric: nothing to optimize (ecmp {u_ecmp}, te {u_te})"
        );
    }

    #[test]
    fn te_beats_ecmp_under_asymmetry() {
        let (mut topo, idx, _) = build_fabric(&FabricSpec::tiny());
        // Break symmetry: kill one FAUU-EB link (capacity asymmetry).
        let fauu = idx.fauu[0][0];
        let eb = idx.backbone[0];
        let victim = topo
            .links()
            .find(|l| l.connects(fauu, eb))
            .map(|l| l.id)
            .expect("link exists");
        topo.remove_link(victim);
        let graph = UpGraph::from_topology(&topo, &idx.backbone);
        let sources: Vec<_> = idx.fadu.iter().flatten().copied().collect();
        let demands = Demands::uniform(&sources, 50.0);
        let u_ecmp = max_utilization(&graph, &demands, &ecmp_weights(&graph));
        let u_te = max_utilization(&graph, &demands, &optimize_weights(&graph, &demands, 100));
        assert!(
            u_te < u_ecmp - 1e-6,
            "TE must beat ECMP under asymmetry (ecmp {u_ecmp}, te {u_te})"
        );
    }

    #[test]
    fn te_approaches_max_flow_bound() {
        let (mut topo, idx, _) = build_fabric(&FabricSpec::default());
        // Drain several FAUU-EB links to create real asymmetry.
        let mut victims = Vec::new();
        for (i, link) in topo.links().enumerate() {
            let a_layer = topo.device(link.a).unwrap().layer();
            if a_layer == centralium_topology::Layer::Fauu && i % 3 == 0 {
                victims.push(link.id);
            }
        }
        for v in victims {
            topo.remove_link(v);
        }
        let graph = UpGraph::from_topology(&topo, &idx.backbone);
        let sources: Vec<_> = idx.fadu.iter().flatten().copied().collect();
        let demands = Demands::uniform(&sources, 10.0);
        let te = optimize_weights(&graph, &demands, 200);
        let cap_te = effective_capacity(&graph, &demands, &te);
        let cap_ideal = max_flow::effective_capacity_bound(&graph, &demands);
        assert!(cap_te <= cap_ideal + 1e-6, "bound is a bound");
        assert!(
            cap_te >= 0.90 * cap_ideal,
            "TE within 10% of ideal (te {cap_te}, ideal {cap_ideal})"
        );
    }
}
