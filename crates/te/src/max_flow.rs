//! Max-flow (Dinic) and the ideal-WCMP effective-capacity bound.
//!
//! "Ideal WCMP" in Figure 13 is the theoretical optimum: route anything any
//! way you like. The most demand (scaling the pattern) the network can carry
//! is found by binary search on the scale factor with a max-flow feasibility
//! check at each step.

use crate::demand::Demands;
use crate::graph::UpGraph;
use std::collections::HashMap;

/// A capacitated directed graph for max-flow.
#[derive(Debug, Default)]
pub(crate) struct FlowNetwork {
    // Edge list representation with residual twins at idx ^ 1.
    to: Vec<usize>,
    cap: Vec<f64>,
    head: Vec<Vec<usize>>, // per-node incident edge indices
}

impl FlowNetwork {
    /// Network with `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        FlowNetwork {
            to: Vec::new(),
            cap: Vec::new(),
            head: vec![Vec::new(); n],
        }
    }

    /// Add a directed edge with capacity.
    pub(crate) fn add_edge(&mut self, from: usize, to: usize, cap: f64) {
        let idx = self.to.len();
        self.to.push(to);
        self.cap.push(cap);
        self.head[from].push(idx);
        self.to.push(from);
        self.cap.push(0.0);
        self.head[to].push(idx + 1);
    }

    /// Dinic's max flow from `s` to `t`. Consumes the capacities.
    pub(crate) fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        const EPS: f64 = 1e-9;
        let n = self.head.len();
        let mut flow = 0.0;
        loop {
            // BFS level graph.
            let mut level = vec![usize::MAX; n];
            level[s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for &e in &self.head[u] {
                    let v = self.to[e];
                    if self.cap[e] > EPS && level[v] == usize::MAX {
                        level[v] = level[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            if level[t] == usize::MAX {
                return flow;
            }
            // DFS blocking flow with iteration pointers.
            let mut iter = vec![0usize; n];
            loop {
                let pushed = self.dfs(s, t, f64::INFINITY, &level, &mut iter);
                if pushed <= EPS {
                    break;
                }
                flow += pushed;
            }
        }
    }

    fn dfs(&mut self, u: usize, t: usize, limit: f64, level: &[usize], iter: &mut [usize]) -> f64 {
        const EPS: f64 = 1e-9;
        if u == t {
            return limit;
        }
        while iter[u] < self.head[u].len() {
            let e = self.head[u][iter[u]];
            let v = self.to[e];
            if self.cap[e] > EPS && level[v] == level[u] + 1 {
                let pushed = self.dfs(v, t, limit.min(self.cap[e]), level, iter);
                if pushed > EPS {
                    self.cap[e] -= pushed;
                    self.cap[e ^ 1] += pushed;
                    return pushed;
                }
            }
            iter[u] += 1;
        }
        0.0
    }
}

/// Whether scaling the demand pattern by `scale` is routable (max-flow
/// feasibility).
fn feasible(graph: &UpGraph, demands: &Demands, scale: f64) -> bool {
    // Node numbering: 0 = super source, 1 = super sink, devices from 2.
    let mut ids: HashMap<centralium_topology::DeviceId, usize> = HashMap::new();
    for &d in graph.order() {
        let next = ids.len() + 2;
        ids.entry(d).or_insert(next);
    }
    let mut net = FlowNetwork::new(ids.len() + 2);
    // Demand from sources that are absent from the graph (Down devices) or
    // unroutable (dead ends after pruning) cannot be offered at all;
    // counting it toward the feasibility target would make every scale
    // infeasible and collapse the bound to zero.
    let mut total = 0.0;
    for (src, gbps) in demands.iter() {
        if !graph.is_routable(src) {
            continue;
        }
        if let Some(&u) = ids.get(&src) {
            net.add_edge(0, u, gbps * scale);
            total += gbps * scale;
        }
    }
    if total <= 0.0 {
        return true;
    }
    for (node, edges) in graph.per_node() {
        let Some(&u) = ids.get(&node) else { continue };
        for e in edges {
            if let Some(&v) = ids.get(&e.to) {
                net.add_edge(u, v, e.capacity);
            }
        }
    }
    for sink in graph.sinks() {
        if let Some(&u) = ids.get(&sink) {
            net.add_edge(u, 1, f64::INFINITY);
        }
    }
    net.max_flow(0, 1) >= total * (1.0 - 1e-6)
}

/// The ideal-WCMP effective capacity: the largest scaled total demand that
/// remains routable, found by binary search (40 iterations ≈ 12 significant
/// bits beyond the bracket).
pub fn effective_capacity_bound(graph: &UpGraph, demands: &Demands) -> f64 {
    let total = demands.total();
    if total <= 0.0 {
        return f64::INFINITY;
    }
    // Bracket: grow hi until infeasible.
    let mut hi = 1.0;
    while feasible(graph, demands, hi) {
        hi *= 2.0;
        if hi > 1e9 {
            return f64::INFINITY;
        }
    }
    let mut lo = if hi > 1.0 { hi / 2.0 } else { 0.0 };
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if feasible(graph, demands, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo * total
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_topology::{build_fabric, Asn, DeviceName, FabricSpec, Layer, Topology};

    #[test]
    fn dinic_on_classic_graph() {
        // s->a (3), s->b (2), a->t (2), b->t (3), a->b (1): max flow = 5? No:
        // s->a 3, a->t 2 + a->b 1 -> b->t uses 1 of 3; s->b 2 all to t.
        // total = 2 + 1 + 2 = 5.
        let mut net = FlowNetwork::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        net.add_edge(s, a, 3.0);
        net.add_edge(s, b, 2.0);
        net.add_edge(a, t, 2.0);
        net.add_edge(b, t, 3.0);
        net.add_edge(a, b, 1.0);
        assert!((net.max_flow(s, t) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bound_on_trivial_two_link_graph() {
        let mut topo = Topology::new();
        let a = topo.add_device(DeviceName::new(Layer::Fauu, 0, 0), Asn(50000));
        let e1 = topo.add_device(DeviceName::new(Layer::Backbone, 0, 0), Asn(60000));
        let e2 = topo.add_device(DeviceName::new(Layer::Backbone, 0, 1), Asn(60001));
        topo.add_link(a, e1, 100.0);
        topo.add_link(a, e2, 40.0);
        let g = UpGraph::from_topology(&topo, &[e1, e2]);
        let d = Demands::uniform(&[a], 10.0);
        let bound = effective_capacity_bound(&g, &d);
        assert!(
            (bound - 140.0).abs() < 0.1,
            "sum of uplink capacity, got {bound}"
        );
    }

    #[test]
    fn bound_on_symmetric_fabric_is_bottleneck_capacity() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let g = UpGraph::from_topology(&topo, &idx.backbone);
        let sources: Vec<_> = idx.fadu.iter().flatten().copied().collect();
        let d = Demands::uniform(&sources, 10.0);
        let bound = effective_capacity_bound(&g, &d);
        // 4 FADUs × 2 FAUU uplinks ea = 8×100G, FAUU→EB = 4 FAUUs × 2 EBs =
        // 8×100G: bottleneck 800G.
        assert!((bound - 800.0).abs() < 1.0, "got {bound}");
    }

    #[test]
    fn zero_demand_bound_is_infinite() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let g = UpGraph::from_topology(&topo, &idx.backbone);
        assert!(effective_capacity_bound(&g, &Demands::new()).is_infinite());
    }
}
