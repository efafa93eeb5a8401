//! Traffic Engineering app (§6.4): compute min-max-utilization WCMP weights
//! from the current topology and prescribe them as Route Attribute RPAs.

use crate::intent::RoutingIntent;
use centralium_bgp::Community;
use centralium_te::{optimize_weights, Demands, UpGraph};
use centralium_topology::{Asn, DeviceId, Topology};

/// Compute TE weights toward the backbone and package them as a
/// [`RoutingIntent::PrescribeWeights`].
///
/// Every device with ≥2 uplinks gets a per-neighbor-ASN weight list; devices
/// whose optimal split is uniform are omitted (native ECMP already matches).
pub fn te_intent(
    topo: &Topology,
    sinks: &[DeviceId],
    demands: &Demands,
    destination: Community,
    expiration_time: Option<u64>,
    iterations: usize,
) -> RoutingIntent {
    let graph = UpGraph::from_topology(topo, sinks);
    let weights = optimize_weights(&graph, demands, iterations);
    let mut per_device: Vec<(DeviceId, Vec<(Asn, u32)>)> = Vec::new();
    for (node, edges) in graph.per_node() {
        if edges.len() < 2 {
            continue;
        }
        let fractions: Vec<f64> = edges
            .iter()
            .map(|e| weights.get(&(node, e.to)).copied().unwrap_or(0.0))
            .collect();
        let max = fractions.iter().cloned().fold(0.0_f64, f64::max);
        if max <= 0.0 {
            continue;
        }
        let quantized: Vec<u32> = fractions
            .iter()
            .map(|f| (((f / max) * 64.0).round() as u32).max(1))
            .collect();
        if quantized.iter().all(|&w| w == quantized[0]) {
            continue;
        }
        let list: Vec<(Asn, u32)> = edges
            .iter()
            .zip(quantized)
            .filter_map(|(e, w)| topo.device(e.to).map(|d| (d.asn, w)))
            .collect();
        per_device.push((node, list));
    }
    RoutingIntent::PrescribeWeights {
        destination,
        per_device,
        expiration_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_bgp::attrs::well_known;
    use centralium_topology::{build_fabric, FabricSpec};

    #[test]
    fn symmetric_fabric_needs_no_weights() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let sources: Vec<_> = idx.fadu.iter().flatten().copied().collect();
        let intent = te_intent(
            &topo,
            &idx.backbone,
            &Demands::uniform(&sources, 10.0),
            well_known::BACKBONE_DEFAULT_ROUTE,
            None,
            50,
        );
        let RoutingIntent::PrescribeWeights { per_device, .. } = &intent else {
            panic!()
        };
        assert!(per_device.is_empty(), "uniform optimum ⇒ no RPAs needed");
    }

    #[test]
    fn asymmetry_produces_weighted_intent() {
        let (mut topo, idx, _) = build_fabric(&FabricSpec::tiny());
        // Degrade one FAUU-EB link.
        let victim = topo
            .links()
            .find(|l| l.connects(idx.fauu[0][0], idx.backbone[0]))
            .map(|l| l.id)
            .unwrap();
        topo.remove_link(victim);
        topo.add_link(idx.fauu[0][0], idx.backbone[0], 10.0);
        let sources: Vec<_> = idx.fadu.iter().flatten().copied().collect();
        let demands = Demands::uniform(&sources, 40.0);
        let intent = te_intent(
            &topo,
            &idx.backbone,
            &demands,
            well_known::BACKBONE_DEFAULT_ROUTE,
            Some(60_000_000),
            100,
        );
        let RoutingIntent::PrescribeWeights {
            per_device,
            expiration_time,
            ..
        } = &intent
        else {
            panic!()
        };
        assert!(!per_device.is_empty());
        assert_eq!(*expiration_time, Some(60_000_000));
        // The degraded FAUU's list carries unequal weights.
        let (_, list) = per_device
            .iter()
            .find(|(d, _)| *d == idx.fauu[0][0])
            .expect("degraded FAUU");
        assert!(list.iter().any(|(_, w)| *w != list[0].1));
        // Every list is quantised against its largest fraction: that one
        // gets 64, and the weights keep the order of the fractions.
        let graph = UpGraph::from_topology(&topo, &idx.backbone);
        let weights = optimize_weights(&graph, &demands, 100);
        let per_node: Vec<_> = graph.per_node().collect();
        for (device, list) in per_device {
            let (_, edges) = per_node.iter().find(|(n, _)| n == device).unwrap();
            let fractions: Vec<f64> = edges
                .iter()
                .map(|e| weights.get(&(*device, e.to)).copied().unwrap_or(0.0))
                .collect();
            assert_eq!(list.iter().map(|(_, w)| *w).max(), Some(64));
            for (i, (_, wi)) in list.iter().enumerate() {
                for (j, (_, wj)) in list.iter().enumerate() {
                    if fractions[i] < fractions[j] {
                        assert!(wi <= wj, "{device}: {fractions:?} → {list:?}");
                    }
                }
            }
        }
    }
}
