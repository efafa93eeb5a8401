//! Demand routing over the devices' FIBs.
//!
//! Traffic is propagated hop-by-hop, split per next-hop-group weights exactly
//! as hardware hashing would (in expectation). The report exposes the metrics
//! the paper's scenarios are judged by: per-link load, per-device transit
//! (funneling), black-holed traffic (no route), and looped traffic (hop
//! budget exhausted — a forwarding loop in steady state).

use crate::arena::DenseMap;
use crate::net::SimNet;
use centralium_bgp::{PeerId, Prefix};
use centralium_topology::DeviceId;

/// One demand: `gbps` of traffic from `src` toward destination `dest`
/// (which must be an originated prefix for delivery to be recognized).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Ingress device.
    pub src: DeviceId,
    /// Destination prefix.
    pub dest: Prefix,
    /// Demand volume in Gbps.
    pub gbps: f64,
}

/// A set of flows.
#[derive(Debug, Clone, Default)]
pub struct TrafficMatrix {
    /// The demands.
    pub flows: Vec<Flow>,
}

impl TrafficMatrix {
    /// Uniform demand from every device in `sources` toward `dest`.
    pub fn uniform(sources: &[DeviceId], dest: Prefix, gbps_each: f64) -> Self {
        TrafficMatrix {
            flows: sources
                .iter()
                .map(|&src| Flow {
                    src,
                    dest,
                    gbps: gbps_each,
                })
                .collect(),
        }
    }

    /// Total offered demand.
    pub fn total_gbps(&self) -> f64 {
        self.flows.iter().map(|f| f.gbps).sum()
    }
}

/// Outcome of routing a traffic matrix.
#[derive(Debug, Clone, Default)]
pub struct DeliveryReport {
    /// Traffic that reached an originator of its destination prefix.
    pub delivered_gbps: f64,
    /// Traffic that hit a device with no matching FIB entry (black-holed).
    pub blackholed_gbps: f64,
    /// Traffic still circulating when the hop budget ran out (loops).
    pub looped_gbps: f64,
    /// Directed per-device-pair load (Gbps): for each sending device, its
    /// `(receiver, load)` pairs in the order routing first used them — a
    /// device forwards over a handful of next hops, so a scan beats a hash.
    pub link_load: DenseMap<Vec<(DeviceId, f64)>>,
    /// Per-device transit ingress (Gbps), excluding the flow's source —
    /// dense id-indexed storage, so paper-scale matrices don't hash every
    /// per-hop accumulation.
    pub device_transit: DenseMap<f64>,
}

impl DeliveryReport {
    /// Fraction of offered traffic delivered.
    pub fn delivery_ratio(&self, offered: f64) -> f64 {
        if offered <= 0.0 {
            return 1.0;
        }
        self.delivered_gbps / offered
    }

    /// Largest transit share among `group` (funneling metric): 1/|group| is
    /// perfectly balanced; →1.0 is a first/last-router collapse.
    pub fn funneling_ratio(&self, group: &[DeviceId]) -> f64 {
        let loads: Vec<f64> = group
            .iter()
            .map(|&d| self.device_transit.get(d).copied().unwrap_or(0.0))
            .collect();
        let total: f64 = loads.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        loads.iter().cloned().fold(0.0, f64::max) / total
    }

    /// Maximum link utilization given the topology's capacities. Parallel
    /// links between a device pair pool their capacity.
    ///
    /// Only loaded pairs get a capacity slot: one pass over the links adds
    /// each link's capacity, in link order, to the slots of its two
    /// directions that carry load.
    pub fn max_link_utilization(&self, topo: &centralium_topology::Topology) -> f64 {
        let mut base: DenseMap<usize> = DenseMap::new();
        let mut slots = 0;
        for (from, out) in self.link_load.iter() {
            base.insert(from, slots);
            slots += out.len();
        }
        let mut capacity: Vec<Option<f64>> = vec![None; slots];
        for link in topo.links() {
            for (from, to) in [(link.a, link.b), (link.b, link.a)] {
                let Some(out) = self.link_load.get(from) else {
                    continue;
                };
                if let Some(i) = out.iter().position(|&(t, _)| t == to) {
                    *capacity[base[from] + i].get_or_insert(0.0) += link.capacity_gbps;
                }
            }
        }
        self.link_load
            .values()
            .flatten()
            .zip(&capacity)
            .filter_map(|((_, load), cap)| cap.map(|cap| load / cap))
            .fold(0.0, f64::max)
    }
}

/// Default hop budget: generous versus the fabric diameter (10 hops
/// up+down), so only real loops trip it.
pub const DEFAULT_MAX_HOPS: usize = 24;

/// Route `matrix` over the network's current FIBs. Traffic is delivered
/// when it reaches a device that originates the destination prefix.
///
/// Flow splitting is linear, so all flows sharing a destination are merged
/// into one propagation (their sources seed a single initial wave) — N
/// same-destination flows cost one wave pass, not N.
pub fn route_flows(net: &SimNet, matrix: &TrafficMatrix, max_hops: usize) -> DeliveryReport {
    let mut report = DeliveryReport::default();
    let mut waves = Waves::default();
    for (dest, sources) in sources_by_dest(matrix) {
        let sinks = net.originators_of(dest);
        waves.route(net, dest, sources, &sinks, max_hops, &mut report);
    }
    report
}

/// Route `matrix` with an explicit delivery set: traffic only counts as
/// delivered when it reaches one of `sinks`. Used when an origination is a
/// *transit claim* rather than the true destination — e.g. the Figure 14
/// SEV, where a fabric device originates an external prefix it cannot
/// actually carry, so reaching it is a black-hole, not a delivery.
pub fn route_flows_to(
    net: &SimNet,
    matrix: &TrafficMatrix,
    sinks: &[DeviceId],
    max_hops: usize,
) -> DeliveryReport {
    let mut sinks = sinks.to_vec();
    sinks.sort_unstable();
    let mut report = DeliveryReport::default();
    let mut waves = Waves::default();
    for (dest, sources) in sources_by_dest(matrix) {
        waves.route(net, dest, sources, &sinks, max_hops, &mut report);
    }
    report
}

/// Merge `matrix` into one initial wave per destination, destinations and
/// sources ascending. A source's demand is summed from 0.0 in flow order
/// (the sort is stable), so every sum is the same `f64` a per-source
/// accumulator fed in flow order would hold.
fn sources_by_dest(matrix: &TrafficMatrix) -> Vec<(Prefix, Vec<(DeviceId, f64)>)> {
    let mut flows: Vec<&Flow> = matrix.flows.iter().collect();
    flows.sort_by_key(|f| (f.dest, f.src));
    let mut groups: Vec<(Prefix, Vec<(DeviceId, f64)>)> = Vec::new();
    for flow in flows {
        if groups.last().is_none_or(|(dest, _)| *dest != flow.dest) {
            groups.push((flow.dest, Vec::new()));
        }
        let (_, sources) = groups.last_mut().expect("pushed above");
        if sources.last().is_none_or(|(src, _)| *src != flow.src) {
            sources.push((flow.src, 0.0));
        }
        sources.last_mut().expect("pushed above").1 += flow.gbps;
    }
    groups
}

/// Level-synchronous propagation state, dense by device id so that a hop
/// neither allocates nor hashes. Kept across the destinations of one call.
#[derive(Default)]
struct Waves {
    /// Inflow of the wave being built, per device id; `Some` exactly for
    /// the devices in `reached`.
    inflow: Vec<Option<f64>>,
    /// Devices the wave being built reaches, in first-arrival order.
    reached: Vec<DeviceId>,
}

impl Waves {
    /// Propagate one destination's `wave` (ascending device id). A wave is
    /// forwarded in ascending device id and each device's inflow summed from
    /// 0.0 in that visit order, so every `f64` matches an ordered
    /// device → inflow map built hop by hop. `sinks` is sorted.
    fn route(
        &mut self,
        net: &SimNet,
        dest: Prefix,
        mut wave: Vec<(DeviceId, f64)>,
        sinks: &[DeviceId],
        max_hops: usize,
        report: &mut DeliveryReport,
    ) {
        let is_sink = |dev: DeviceId| sinks.binary_search(&dev).is_ok();
        for _hop in 0..max_hops {
            if wave.is_empty() {
                return;
            }
            for &(dev, amount) in &wave {
                if is_sink(dev) {
                    report.delivered_gbps += amount;
                    continue;
                }
                let Some(entry) = net.device(dev).and_then(|d| d.fib.lookup(&dest)) else {
                    report.blackholed_gbps += amount;
                    continue;
                };
                let total_weight: u32 = entry.nexthops.iter().map(|(_, w)| *w).sum();
                if total_weight == 0 {
                    report.blackholed_gbps += amount;
                    continue;
                }
                let out = report.link_load.get_or_insert_with(dev, Vec::new);
                for (peer, weight) in &entry.nexthops {
                    let share = amount * (*weight as f64) / (total_weight as f64);
                    let to = DeviceId(peer.device());
                    let i = match out.iter().position(|&(t, _)| t == to) {
                        Some(i) => i,
                        None => {
                            out.push((to, 0.0));
                            out.len() - 1
                        }
                    };
                    out[i].1 += share;
                    *report.device_transit.get_or_insert_with(to, || 0.0) += share;
                    self.arrive(to, share);
                }
            }
            self.take_wave(&mut wave);
        }
        // Classify whatever survives the hop budget: traffic that arrived at a
        // sink (or dead-ends) on exactly the final hop is not looping.
        for (dev, amount) in wave {
            if is_sink(dev) {
                report.delivered_gbps += amount;
            } else if net.device(dev).and_then(|d| d.fib.lookup(&dest)).is_none() {
                report.blackholed_gbps += amount;
            } else {
                report.looped_gbps += amount;
            }
        }
    }

    /// Add `share` to `to`'s inflow in the wave being built.
    fn arrive(&mut self, to: DeviceId, share: f64) {
        let idx = to.0 as usize;
        if idx >= self.inflow.len() {
            self.inflow.resize(idx + 1, None);
        }
        let reached = &mut self.reached;
        *self.inflow[idx].get_or_insert_with(|| {
            reached.push(to);
            0.0
        }) += share;
    }

    /// Replace `wave` with the wave built since the last call, ascending
    /// device id, and reset the accumulators.
    fn take_wave(&mut self, wave: &mut Vec<(DeviceId, f64)>) {
        self.reached.sort_unstable();
        wave.clear();
        for dev in self.reached.drain(..) {
            let amount = self.inflow[dev.0 as usize].take().expect("reached");
            wave.push((dev, amount));
        }
    }
}

/// Detect a forwarding loop for `dest`: build the next-hop digraph from
/// every device's longest-prefix-match FIB entry and search for a cycle.
/// Returns one cycle's device sequence if found.
///
/// This is exact where flow-based loop metrics are not: looping traffic
/// decays geometrically at each ECMP split, so a real loop can carry an
/// arbitrarily small steady-state volume yet still burn bandwidth and TTLs.
pub fn forwarding_cycle(net: &SimNet, dest: &Prefix) -> Option<Vec<DeviceId>> {
    let sinks = net.originators_of(*dest);
    let mut next: DenseMap<&[(PeerId, u32)]> = DenseMap::new();
    let nodes: Vec<DeviceId> = net.device_ids();
    for &dev in &nodes {
        if sinks.contains(&dev) {
            continue; // traffic terminates here
        }
        if let Some(entry) = net.device(dev).and_then(|d| d.fib.lookup(dest)) {
            next.insert(dev, &entry.nexthops);
        }
    }
    // Iterative three-color DFS.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: DenseMap<Color> = nodes.iter().map(|&n| (n, Color::White)).collect();
    for &start in &nodes {
        if color[start] != Color::White {
            continue;
        }
        // stack of (node, next-child-index), plus the gray path for cycle
        // extraction.
        let mut stack: Vec<(DeviceId, usize)> = vec![(start, 0)];
        color.insert(start, Color::Gray);
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let children = next.get(node).copied().unwrap_or(&[]);
            if let Some(&(peer, _)) = children.get(*idx) {
                let child = DeviceId(peer.device());
                *idx += 1;
                match color.get(child).copied().unwrap_or(Color::Black) {
                    Color::White => {
                        color.insert(child, Color::Gray);
                        stack.push((child, 0));
                    }
                    Color::Gray => {
                        // Cycle: slice the stack from the first occurrence.
                        let pos = stack
                            .iter()
                            .position(|(n, _)| *n == child)
                            .expect("gray node on stack");
                        let mut cycle: Vec<DeviceId> =
                            stack[pos..].iter().map(|(n, _)| *n).collect();
                        cycle.push(child);
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color.insert(node, Color::Black);
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{SimConfig, SimNet};
    use centralium_bgp::attrs::well_known;
    use centralium_topology::{build_fabric, Asn, DeviceName, FabricSpec, Layer, Topology};
    use std::collections::{BTreeMap, HashMap, HashSet};

    fn converged_tiny() -> (SimNet, centralium_topology::builder::FabricIndex) {
        converged(&FabricSpec::tiny())
    }

    fn converged(spec: &FabricSpec) -> (SimNet, centralium_topology::builder::FabricIndex) {
        let (topo, idx, _) = build_fabric(spec);
        let mut net = SimNet::new(
            topo,
            SimConfig {
                seed: 2,
                ..Default::default()
            },
        );
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        (net, idx)
    }

    /// `route_flows` as a fresh ordered map per hop — the propagation the
    /// dense accumulators must reproduce bit for bit.
    struct Reference {
        delivered_gbps: f64,
        blackholed_gbps: f64,
        looped_gbps: f64,
        link_load: HashMap<(DeviceId, DeviceId), f64>,
        device_transit: HashMap<DeviceId, f64>,
    }

    fn reference_route_flows(net: &SimNet, matrix: &TrafficMatrix, max_hops: usize) -> Reference {
        let mut report = Reference {
            delivered_gbps: 0.0,
            blackholed_gbps: 0.0,
            looped_gbps: 0.0,
            link_load: HashMap::new(),
            device_transit: HashMap::new(),
        };
        let mut by_dest: BTreeMap<Prefix, BTreeMap<DeviceId, f64>> = BTreeMap::new();
        for flow in &matrix.flows {
            *by_dest
                .entry(flow.dest)
                .or_default()
                .entry(flow.src)
                .or_insert(0.0) += flow.gbps;
        }
        for (dest, sources) in by_dest {
            let originators: HashSet<DeviceId> = net.originators_of(dest).into_iter().collect();
            let mut wave = sources;
            for _hop in 0..max_hops {
                if wave.is_empty() {
                    break;
                }
                let mut next: BTreeMap<DeviceId, f64> = BTreeMap::new();
                for (dev, amount) in wave {
                    if originators.contains(&dev) {
                        report.delivered_gbps += amount;
                        continue;
                    }
                    let Some(entry) = net.device(dev).and_then(|d| d.fib.lookup(&dest)) else {
                        report.blackholed_gbps += amount;
                        continue;
                    };
                    let total_weight: u32 = entry.nexthops.iter().map(|(_, w)| *w).sum();
                    if total_weight == 0 {
                        report.blackholed_gbps += amount;
                        continue;
                    }
                    for (peer, weight) in &entry.nexthops {
                        let share = amount * (*weight as f64) / (total_weight as f64);
                        let to = DeviceId(peer.device());
                        *report.link_load.entry((dev, to)).or_insert(0.0) += share;
                        *report.device_transit.entry(to).or_insert(0.0) += share;
                        *next.entry(to).or_insert(0.0) += share;
                    }
                }
                wave = next;
            }
            for (dev, amount) in wave {
                if originators.contains(&dev) {
                    report.delivered_gbps += amount;
                } else if net.device(dev).and_then(|d| d.fib.lookup(&dest)).is_none() {
                    report.blackholed_gbps += amount;
                } else {
                    report.looped_gbps += amount;
                }
            }
        }
        report
    }

    /// Route `matrix` both ways and require equal bits everywhere.
    fn assert_matches_reference(net: &SimNet, matrix: &TrafficMatrix) -> DeliveryReport {
        let dense = route_flows(net, matrix, DEFAULT_MAX_HOPS);
        let reference = reference_route_flows(net, matrix, DEFAULT_MAX_HOPS);
        let bits = |x: f64| x.to_bits();
        assert_eq!(bits(dense.delivered_gbps), bits(reference.delivered_gbps));
        assert_eq!(bits(dense.blackholed_gbps), bits(reference.blackholed_gbps));
        assert_eq!(bits(dense.looped_gbps), bits(reference.looped_gbps));
        let link_load: HashMap<(DeviceId, DeviceId), u64> = dense
            .link_load
            .iter()
            .flat_map(|(from, out)| out.iter().map(move |&(to, load)| ((from, to), bits(load))))
            .collect();
        let expected: HashMap<(DeviceId, DeviceId), u64> = reference
            .link_load
            .iter()
            .map(|(&pair, &load)| (pair, bits(load)))
            .collect();
        assert_eq!(link_load.len(), dense.link_load.values().flatten().count());
        assert_eq!(link_load, expected);
        let transit: HashMap<DeviceId, u64> = dense
            .device_transit
            .iter()
            .map(|(dev, &load)| (dev, bits(load)))
            .collect();
        let expected: HashMap<DeviceId, u64> = reference
            .device_transit
            .iter()
            .map(|(&dev, &load)| (dev, bits(load)))
            .collect();
        assert_eq!(transit, expected);
        assert_eq!(
            bits(dense.max_link_utilization(net.topology())),
            bits(reference_max_link_utilization(&reference, net.topology()))
        );
        dense
    }

    /// Utilization over a capacity map of every directed device pair.
    fn reference_max_link_utilization(reference: &Reference, topo: &Topology) -> f64 {
        let mut capacity: HashMap<(DeviceId, DeviceId), f64> = HashMap::new();
        for link in topo.links() {
            *capacity.entry((link.a, link.b)).or_insert(0.0) += link.capacity_gbps;
            *capacity.entry((link.b, link.a)).or_insert(0.0) += link.capacity_gbps;
        }
        reference
            .link_load
            .iter()
            .filter_map(|(pair, load)| capacity.get(pair).map(|cap| load / cap))
            .fold(0.0, f64::max)
    }

    /// Every device sends to the default route and to one rack's loopback,
    /// at uneven rates, some sources twice.
    fn mixed_matrix(
        net: &SimNet,
        idx: &centralium_topology::builder::FabricIndex,
    ) -> TrafficMatrix {
        let rack = idx.rsw[0][0];
        let rack_prefix = Prefix::new(0x0A00_0000, 24);
        let mut flows = Vec::new();
        for (i, dev) in net.device_ids().into_iter().enumerate() {
            let gbps = 0.1 + (i % 7) as f64 * 0.37;
            flows.push(Flow {
                src: dev,
                dest: Prefix::DEFAULT,
                gbps,
            });
            if dev != rack {
                flows.push(Flow {
                    src: dev,
                    dest: rack_prefix,
                    gbps: gbps / 3.0,
                });
            }
            if i % 3 == 0 {
                flows.push(Flow {
                    src: dev,
                    dest: Prefix::DEFAULT,
                    gbps: 0.013,
                });
            }
        }
        TrafficMatrix { flows }
    }

    fn with_rack_prefix(spec: &FabricSpec) -> (SimNet, centralium_topology::builder::FabricIndex) {
        let (mut net, idx) = converged(spec);
        net.originate(idx.rsw[0][0], Prefix::new(0x0A00_0000, 24), []);
        net.run_until_quiescent().expect_converged();
        (net, idx)
    }

    #[test]
    fn dense_propagation_is_bit_identical_on_a_converged_fabric() {
        let (net, idx) = with_rack_prefix(&FabricSpec::default());
        let report = assert_matches_reference(&net, &mixed_matrix(&net, &idx));
        assert!(report.delivered_gbps > 0.0);
        assert_eq!(report.blackholed_gbps, 0.0);
    }

    #[test]
    fn dense_propagation_is_bit_identical_with_a_pods_fadus_down() {
        let (mut net, idx) = with_rack_prefix(&FabricSpec::default());
        for &fadu in &idx.fadu[0] {
            net.device_down(fadu);
        }
        net.run_until_quiescent().expect_converged();
        let report = assert_matches_reference(&net, &mixed_matrix(&net, &idx));
        assert!(report.blackholed_gbps > 0.0, "FADUs down must black-hole");
    }

    /// The Figure 9 rig without the least-favorable rule: R6 balances Prefix
    /// D over R2 and R5, and R5 routes it back through R6.
    fn looping_rig() -> (SimNet, [DeviceId; 6], Prefix) {
        use centralium_rpa::{
            PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature, RpaDocument,
        };
        let mut topo = Topology::new();
        let r1 = topo.add_device(DeviceName::new(Layer::Backbone, 0, 1), Asn(60_001));
        let r2 = topo.add_device(DeviceName::new(Layer::Fauu, 0, 2), Asn(50_002));
        let r3 = topo.add_device(DeviceName::new(Layer::Fauu, 0, 3), Asn(50_003));
        let r4 = topo.add_device(DeviceName::new(Layer::Fadu, 0, 4), Asn(40_004));
        let r5 = topo.add_device(DeviceName::new(Layer::Fadu, 0, 5), Asn(40_005));
        let r6 = topo.add_device(DeviceName::new(Layer::Ssw, 0, 6), Asn(30_006));
        for (a, b) in [(r1, r2), (r1, r3), (r3, r4), (r4, r5), (r6, r2), (r6, r5)] {
            topo.add_link(a, b, 100.0);
        }
        let cfg = SimConfig::builder()
            .seed(5)
            .valley_free_policies(false)
            .build();
        let mut net = SimNet::new(topo, cfg);
        let doc = RpaDocument::PathSelection(PathSelectionRpa::single(
            "balance-r2-r5",
            PathSelectionStatement::select(
                centralium_rpa::Destination::Any,
                vec![PathSet::new(
                    "via-r1",
                    PathSignature::originated_by(Asn(60_001)),
                )],
            ),
        ));
        let dev = net.device_mut(r6).expect("r6 exists");
        dev.engine.install(doc).expect("rpa installs");
        dev.daemon.config_mut().least_favorable_advertisement = false;
        net.establish_all();
        let d = Prefix::new(0xC612_0000, 16);
        net.originate(r1, d, [well_known::BACKBONE_DEFAULT_ROUTE]);
        net.run_until_quiescent().expect_converged();
        (net, [r1, r2, r3, r4, r5, r6], d)
    }

    #[test]
    fn dense_propagation_is_bit_identical_on_a_loop() {
        let (net, r, d) = looping_rig();
        let mut tm = TrafficMatrix::uniform(&r, d, 10.0);
        tm.flows
            .extend(TrafficMatrix::uniform(&[r[5], r[4]], d, 2.5).flows);
        let report = assert_matches_reference(&net, &tm);
        assert!(report.looped_gbps > 0.0, "the R5-R6 loop keeps traffic");
        assert!(forwarding_cycle(&net, &d).is_some());
    }

    /// A wave whose devices are first reached out of id order: A (id 4)
    /// reaches M1 and M3 before B (id 5) reaches M2, and all three feed the
    /// sink S. Summing S's inflow in arrival order instead of id order
    /// changes its last bit at these rates.
    #[test]
    fn dense_propagation_sums_each_wave_in_device_order() {
        let mut topo = Topology::new();
        let s = topo.add_device(DeviceName::new(Layer::Backbone, 0, 0), Asn(60_000));
        let m: Vec<DeviceId> = (1..=3u16)
            .map(|n| topo.add_device(DeviceName::new(Layer::Fauu, 0, n), Asn(50_000 + n as u32)))
            .collect();
        let a = topo.add_device(DeviceName::new(Layer::Fadu, 0, 4), Asn(40_004));
        let b = topo.add_device(DeviceName::new(Layer::Fadu, 0, 5), Asn(40_005));
        for &mid in &m {
            topo.add_link(mid, s, 100.0);
        }
        for (from, to) in [(a, m[0]), (a, m[2]), (b, m[1])] {
            topo.add_link(from, to, 100.0);
        }
        let cfg = SimConfig::builder().valley_free_policies(false).build();
        let mut net = SimNet::new(topo, cfg);
        net.establish_all();
        let d = Prefix::new(0xC612_0000, 16);
        net.originate(s, d, [well_known::BACKBONE_DEFAULT_ROUTE]);
        net.run_until_quiescent().expect_converged();
        let fib = &net.device(a).expect("a").fib;
        assert_eq!(fib.lookup(&d).expect("route").nexthops.len(), 2);
        let mut tm = TrafficMatrix::uniform(&[a], d, 0.1);
        tm.flows.extend(TrafficMatrix::uniform(&[b], d, 0.7).flows);
        let report = assert_matches_reference(&net, &tm);
        assert_eq!(report.delivered_gbps, (0.05 + 0.7) + 0.05);
        assert_ne!(report.delivered_gbps, (0.05 + 0.05) + 0.7);
    }

    #[test]
    fn pooled_parallel_link_capacity() {
        let mut topo = Topology::new();
        let a = topo.add_device(DeviceName::new(Layer::Rsw, 0, 0), Asn(65_001));
        let b = topo.add_device(DeviceName::new(Layer::Fsw, 0, 0), Asn(65_002));
        topo.add_link(a, b, 100.0);
        topo.add_link(b, a, 60.0);
        let mut report = DeliveryReport::default();
        report.link_load.insert(a, vec![(b, 80.0)]);
        report.link_load.insert(b, vec![(a, 40.0)]);
        assert_eq!(report.max_link_utilization(&topo), 0.5);
        // A load between unlinked devices has no capacity to judge.
        report
            .link_load
            .insert(a, vec![(DeviceId(99), 1e9), (b, 16.0)]);
        assert_eq!(report.max_link_utilization(&topo), 0.25);
    }

    #[test]
    fn all_northbound_traffic_delivers() {
        let (net, idx) = converged_tiny();
        let sources: Vec<DeviceId> = idx.rsw.iter().flatten().copied().collect();
        let tm = TrafficMatrix::uniform(&sources, Prefix::DEFAULT, 10.0);
        let report = route_flows(&net, &tm, DEFAULT_MAX_HOPS);
        let offered = tm.total_gbps();
        assert!(
            (report.delivered_gbps - offered).abs() < 1e-6,
            "all traffic delivered"
        );
        assert_eq!(report.blackholed_gbps, 0.0);
        assert_eq!(report.looped_gbps, 0.0);
        assert_eq!(report.delivery_ratio(offered), 1.0);
    }

    #[test]
    fn ecmp_balances_transit_across_layers() {
        let (net, idx) = converged_tiny();
        let sources: Vec<DeviceId> = idx.rsw.iter().flatten().copied().collect();
        let tm = TrafficMatrix::uniform(&sources, Prefix::DEFAULT, 10.0);
        let report = route_flows(&net, &tm, DEFAULT_MAX_HOPS);
        // Four SSWs, symmetric fabric: each carries 1/4 of transit.
        let ssws: Vec<DeviceId> = idx.ssw.iter().flatten().copied().collect();
        let ratio = report.funneling_ratio(&ssws);
        assert!((ratio - 0.25).abs() < 1e-6, "balanced spine, got {ratio}");
        // Same for the two EBs.
        let ratio = report.funneling_ratio(&idx.backbone);
        assert!((ratio - 0.5).abs() < 1e-6);
    }

    #[test]
    fn dead_fabric_blackholes() {
        let (mut net, idx) = converged_tiny();
        // Power off all FADUs: SSWs lose the default route entirely.
        for grid in &idx.fadu {
            for &fadu in grid {
                net.device_down(fadu);
            }
        }
        net.run_until_quiescent().expect_converged();
        let tm = TrafficMatrix::uniform(&[idx.rsw[0][0]], Prefix::DEFAULT, 10.0);
        let report = route_flows(&net, &tm, DEFAULT_MAX_HOPS);
        assert_eq!(report.delivered_gbps, 0.0);
        assert!((report.blackholed_gbps - 10.0).abs() < 1e-6);
    }

    #[test]
    fn link_utilization_reflects_load() {
        let (net, idx) = converged_tiny();
        let tm = TrafficMatrix::uniform(&[idx.rsw[0][0]], Prefix::DEFAULT, 100.0);
        let report = route_flows(&net, &tm, DEFAULT_MAX_HOPS);
        let util = report.max_link_utilization(net.topology());
        // 100G from one RSW over 2 FSW uplinks of 100G each: first hop is
        // 50% utilized; deeper layers spread further.
        assert!((util - 0.5).abs() < 1e-6, "got {util}");
    }

    #[test]
    fn delivery_on_the_final_hop_is_not_looping() {
        // Fabric diameter northbound = 5 hops; a budget of exactly 5 must
        // still classify arrival at the backbone as delivered.
        let (net, idx) = converged_tiny();
        let tm = TrafficMatrix::uniform(&[idx.rsw[0][0]], Prefix::DEFAULT, 10.0);
        let report = route_flows(&net, &tm, 5);
        assert!((report.delivered_gbps - 10.0).abs() < 1e-9);
        assert_eq!(report.looped_gbps, 0.0);
        // One hop short: the traffic is genuinely still in flight.
        let report = route_flows(&net, &tm, 4);
        assert!(report.looped_gbps > 0.0);
    }

    #[test]
    fn no_forwarding_cycle_in_healthy_fabric() {
        let (net, _) = converged_tiny();
        assert_eq!(forwarding_cycle(&net, &Prefix::DEFAULT), None);
    }

    #[test]
    fn funneling_of_empty_or_idle_group_is_zero() {
        let (net, idx) = converged_tiny();
        let report = route_flows(&net, &TrafficMatrix::default(), DEFAULT_MAX_HOPS);
        assert_eq!(report.funneling_ratio(&idx.backbone), 0.0);
    }
}
