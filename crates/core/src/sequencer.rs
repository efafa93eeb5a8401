//! Deployment sequencing (controller function 3; §5.3.2).
//!
//! "A new RPA must be deployed starting from the layer furthest from the
//! source of the route origination; removal of an existing RPA must start
//! from the layer closest to the source of the route origination." For
//! routes originated at the backbone (the common case), deployment is
//! bottom-up (FSW → SSW → FA) and removal is top-down.

use centralium_rpa::RpaDocument;
use centralium_topology::{DeviceId, Layer, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Ordering strategies. `SafeOrder` is the paper's rule; the others exist
/// for the §5.3.2 ablation (uncoordinated deployment funnels traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeploymentStrategy {
    /// Deploy furthest-from-origination first; remove closest-first. Safe.
    SafeOrder,
    /// Deploy closest-to-origination first (the unsafe inverse).
    InverseOrder,
    /// Everything in one phase (uncoordinated): per-device timing jitter
    /// decides who activates first.
    Unordered,
}

/// One phase: devices that may receive the change concurrently. A phase must
/// fully converge before the next begins.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentPhase {
    /// The layer this phase covers (informational).
    pub layer: Option<Layer>,
    /// Per-device documents.
    pub installs: Vec<(DeviceId, RpaDocument)>,
}

/// Group per-device documents into safely-ordered phases for *deployment*,
/// given the layer where the affected routes originate.
pub fn deployment_phases(
    topo: &Topology,
    docs: Vec<(DeviceId, RpaDocument)>,
    origination_layer: Layer,
    strategy: DeploymentStrategy,
) -> Vec<DeploymentPhase> {
    order_phases(topo, docs, origination_layer, strategy, false)
}

/// Group per-device documents into safely-ordered phases for *removal*:
/// the mirror order (closest to origination first).
pub(crate) fn removal_phases(
    topo: &Topology,
    docs: Vec<(DeviceId, RpaDocument)>,
    origination_layer: Layer,
    strategy: DeploymentStrategy,
) -> Vec<DeploymentPhase> {
    order_phases(topo, docs, origination_layer, strategy, true)
}

fn order_phases(
    topo: &Topology,
    docs: Vec<(DeviceId, RpaDocument)>,
    origination_layer: Layer,
    strategy: DeploymentStrategy,
    removal: bool,
) -> Vec<DeploymentPhase> {
    if matches!(strategy, DeploymentStrategy::Unordered) {
        return vec![DeploymentPhase {
            layer: None,
            installs: docs,
        }];
    }
    // Bucket by layer.
    let mut buckets: BTreeMap<Layer, Vec<(DeviceId, RpaDocument)>> = BTreeMap::new();
    for (dev, doc) in docs {
        let Some(device) = topo.device(dev) else {
            continue;
        };
        buckets.entry(device.layer()).or_default().push((dev, doc));
    }
    // Distance from origination = |height - origin height|. Deploy:
    // furthest first. Removal: closest first. InverseOrder flips either.
    let mut layers: Vec<Layer> = buckets.keys().copied().collect();
    let origin_h = origination_layer.height() as i64;
    layers.sort_by_key(|l| {
        let dist = (l.height() as i64 - origin_h).abs();
        // Furthest first for deployment => descending distance.
        -dist
    });
    if removal {
        layers.reverse();
    }
    if matches!(strategy, DeploymentStrategy::InverseOrder) {
        layers.reverse();
    }
    layers
        .into_iter()
        .map(|layer| DeploymentPhase {
            layer: Some(layer),
            installs: buckets.remove(&layer).unwrap_or_default(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_bgp::attrs::well_known;
    use centralium_rpa::{
        Destination, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature,
    };
    use centralium_topology::{build_fabric, FabricSpec};

    fn doc() -> RpaDocument {
        RpaDocument::PathSelection(PathSelectionRpa::single(
            "x",
            PathSelectionStatement::select(
                Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
                vec![PathSet::new("all", PathSignature::any())],
            ),
        ))
    }

    fn docs_for_layers(
        topo: &centralium_topology::Topology,
        layers: &[Layer],
    ) -> Vec<(DeviceId, RpaDocument)> {
        layers
            .iter()
            .flat_map(|l| topo.devices_in_layer(*l).map(|d| (d.id, doc())))
            .collect()
    }

    #[test]
    fn safe_order_deploys_bottom_up_for_backbone_routes() {
        let (topo, _, _) = build_fabric(&FabricSpec::tiny());
        let docs = docs_for_layers(&topo, &[Layer::Fsw, Layer::Ssw, Layer::Fadu]);
        let phases = deployment_phases(&topo, docs, Layer::Backbone, DeploymentStrategy::SafeOrder);
        let order: Vec<Layer> = phases.iter().filter_map(|p| p.layer).collect();
        assert_eq!(order, vec![Layer::Fsw, Layer::Ssw, Layer::Fadu]);
    }

    #[test]
    fn safe_order_removal_is_mirror() {
        let (topo, _, _) = build_fabric(&FabricSpec::tiny());
        let docs = docs_for_layers(&topo, &[Layer::Fsw, Layer::Ssw, Layer::Fadu]);
        let phases = removal_phases(&topo, docs, Layer::Backbone, DeploymentStrategy::SafeOrder);
        let order: Vec<Layer> = phases.iter().filter_map(|p| p.layer).collect();
        assert_eq!(order, vec![Layer::Fadu, Layer::Ssw, Layer::Fsw]);
    }

    #[test]
    fn rack_originated_routes_deploy_top_down() {
        // When the affected routes originate at the racks (southbound
        // traffic), "furthest from origination" is the FA layer.
        let (topo, _, _) = build_fabric(&FabricSpec::tiny());
        let docs = docs_for_layers(&topo, &[Layer::Fsw, Layer::Ssw, Layer::Fadu]);
        let phases = deployment_phases(&topo, docs, Layer::Rsw, DeploymentStrategy::SafeOrder);
        let order: Vec<Layer> = phases.iter().filter_map(|p| p.layer).collect();
        assert_eq!(order, vec![Layer::Fadu, Layer::Ssw, Layer::Fsw]);
    }

    #[test]
    fn unordered_is_single_phase() {
        let (topo, _, _) = build_fabric(&FabricSpec::tiny());
        let docs = docs_for_layers(&topo, &[Layer::Fsw, Layer::Ssw]);
        let n = docs.len();
        let phases = deployment_phases(&topo, docs, Layer::Backbone, DeploymentStrategy::Unordered);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].installs.len(), n);
        assert_eq!(phases[0].layer, None);
    }

    #[test]
    fn inverse_order_flips_safe_order() {
        let (topo, _, _) = build_fabric(&FabricSpec::tiny());
        let docs = docs_for_layers(&topo, &[Layer::Fsw, Layer::Fadu]);
        let phases = deployment_phases(
            &topo,
            docs,
            Layer::Backbone,
            DeploymentStrategy::InverseOrder,
        );
        let order: Vec<Layer> = phases.iter().filter_map(|p| p.layer).collect();
        assert_eq!(order, vec![Layer::Fadu, Layer::Fsw]);
    }

    #[test]
    fn decommissioned_devices_are_dropped() {
        let (mut topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let docs = vec![(idx.ssw[0][0], doc()), (idx.ssw[0][1], doc())];
        topo.remove_device(idx.ssw[0][0]);
        let phases = deployment_phases(&topo, docs, Layer::Backbone, DeploymentStrategy::SafeOrder);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].installs.len(), 1);
    }
}
