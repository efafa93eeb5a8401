//! High-level operator intent, the controller's input language.
//!
//! Intents express *what* routing behaviour the operator wants during a
//! migration; [`crate::compile`] turns them into per-switch RPA documents.
//! Keeping intent separate from documents is what lets fractional
//! min-next-hop values ("75%") be resolved against live topology at
//! compile time.

use centralium_bgp::{Community, Prefix};
use centralium_rpa::MinNextHop;
use centralium_topology::{DeviceId, Layer};
use serde::{Deserialize, Serialize};

/// Which switches an intent targets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetSet {
    /// Every device of one layer.
    Layer(Layer),
    /// Every device in any of these layers.
    Layers(Vec<Layer>),
    /// An explicit device list (per-switch overrides, §4.4.2).
    Devices(Vec<DeviceId>),
}

impl TargetSet {
    /// Resolve to concrete device ids over a topology (non-Down devices).
    pub(crate) fn resolve(&self, topo: &centralium_topology::Topology) -> Vec<DeviceId> {
        match self {
            TargetSet::Layer(layer) => topo
                .devices_in_layer(*layer)
                .filter(|d| d.state != centralium_topology::DeviceState::Down)
                .map(|d| d.id)
                .collect(),
            TargetSet::Layers(layers) => {
                let mut out = Vec::new();
                for l in layers {
                    out.extend(TargetSet::Layer(*l).resolve(topo));
                }
                out
            }
            TargetSet::Devices(devs) => devs
                .iter()
                .copied()
                .filter(|d| topo.device(*d).is_some())
                .collect(),
        }
    }
}

/// Operator intent for one routing change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RoutingIntent {
    /// §4.4.1: treat paths of varying AS-path length toward `destination` as
    /// equal, as long as they originate in `origin_layer` — the first-router
    /// fix for topology expansion.
    EqualizePaths {
        /// Origination community identifying the destination prefixes.
        destination: Community,
        /// The layer whose originations are equalized (usually Backbone).
        origin_layer: Layer,
        /// Switches to deploy on.
        targets: TargetSet,
    },
    /// §4.4.2: guard native selection with a minimum next-hop count; used to
    /// decommission switch groups without last-router funneling.
    MinNextHopProtection {
        /// Origination community identifying the destination prefixes.
        destination: Community,
        /// The floor; fractions resolve against each target's next-hop
        /// population toward the layer above at compile time.
        min: MinNextHop,
        /// Keep forwarding entries when the guard withdraws the route
        /// (in-flight packets survive; see the Figure 14 caveat).
        keep_fib_warm: bool,
        /// Switches to deploy on.
        targets: TargetSet,
    },
    /// Prescribe static WCMP weights per next-hop signature (Route Attribute
    /// RPA), e.g. ahead of maintenance to pin distribution (§3.4 fix) —
    /// weights are per-device, produced by the TE app.
    PrescribeWeights {
        /// Origination community identifying the destination prefixes.
        destination: Community,
        /// Per-device neighbor-ASN → weight lists.
        per_device: Vec<(DeviceId, Vec<(centralium_topology::Asn, u32)>)>,
        /// Optional deadline in absolute sim µs. Deploying the compiled
        /// document queues an expiry event at it, after which the devices
        /// fall back to their native distribution; the installed document
        /// itself stays.
        expiration_time: Option<u64>,
    },
    /// Route Filter RPA at a domain boundary: allow only these prefixes (with
    /// mask bounds) from/to peers in the given remote-ASN layer.
    FilterBoundary {
        /// Peers whose remote ASN belongs to this layer are filtered.
        peer_layer: Layer,
        /// Ingress allow list: (covering prefix, max mask length).
        ingress_allow: Vec<(Prefix, u8)>,
        /// Egress allow list: (covering prefix, max mask length).
        egress_allow: Vec<(Prefix, u8)>,
        /// Switches to deploy on.
        targets: TargetSet,
    },
    /// Pin a destination to a primary path set with fallback — the
    /// conditional primary/backup policy of Routing Policy Transitions and
    /// anycast stability (§3.1).
    PrimaryBackup {
        /// Origination community identifying the destination prefixes.
        destination: Community,
        /// Primary path set: paths originated by this layer's ASNs.
        primary_origin_layer: Layer,
        /// Minimum live primary paths before falling back.
        primary_min_next_hop: usize,
        /// Backup path set origin layer.
        backup_origin_layer: Layer,
        /// Switches to deploy on.
        targets: TargetSet,
    },
}

impl RoutingIntent {
    /// Short machine name for NSDB paths and document names.
    ///
    /// Intent identity is the kind: the controller supports **one live
    /// intent per kind per fabric** — deploying a second intent of the same
    /// kind replaces the first (its per-device documents share the name).
    /// Distinct concurrent policies must use distinct kinds, matching how
    /// the paper's applications each own their routing function.
    pub fn kind(&self) -> &'static str {
        match self {
            RoutingIntent::EqualizePaths { .. } => "equalize-paths",
            RoutingIntent::MinNextHopProtection { .. } => "min-nexthop-protection",
            RoutingIntent::PrescribeWeights { .. } => "prescribe-weights",
            RoutingIntent::FilterBoundary { .. } => "filter-boundary",
            RoutingIntent::PrimaryBackup { .. } => "primary-backup",
        }
    }

    /// The devices the intent deploys to.
    pub fn targets(&self, topo: &centralium_topology::Topology) -> Vec<DeviceId> {
        match self {
            RoutingIntent::EqualizePaths { targets, .. }
            | RoutingIntent::MinNextHopProtection { targets, .. }
            | RoutingIntent::FilterBoundary { targets, .. }
            | RoutingIntent::PrimaryBackup { targets, .. } => targets.resolve(topo),
            RoutingIntent::PrescribeWeights { per_device, .. } => per_device
                .iter()
                .map(|(d, _)| *d)
                .filter(|d| topo.device(*d).is_some())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_bgp::attrs::well_known;
    use centralium_topology::{build_fabric, DeviceState, FabricSpec};

    #[test]
    fn target_sets_resolve() {
        let (mut topo, idx, _) = build_fabric(&FabricSpec::tiny());
        assert_eq!(TargetSet::Layer(Layer::Ssw).resolve(&topo).len(), 4);
        assert_eq!(
            TargetSet::Layers(vec![Layer::Fsw, Layer::Ssw])
                .resolve(&topo)
                .len(),
            8
        );
        let explicit = TargetSet::Devices(vec![idx.ssw[0][0], DeviceId(99_999)]);
        assert_eq!(
            explicit.resolve(&topo),
            vec![idx.ssw[0][0]],
            "unknown ids dropped"
        );
        // Down devices are skipped by layer targeting.
        topo.set_device_state(idx.ssw[0][0], DeviceState::Down);
        assert_eq!(TargetSet::Layer(Layer::Ssw).resolve(&topo).len(), 3);
    }

    #[test]
    fn intent_kind_and_targets() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let intent = RoutingIntent::EqualizePaths {
            destination: well_known::BACKBONE_DEFAULT_ROUTE,
            origin_layer: Layer::Backbone,
            targets: TargetSet::Layer(Layer::Ssw),
        };
        assert_eq!(intent.kind(), "equalize-paths");
        assert_eq!(intent.targets(&topo).len(), 4);
        let weights = RoutingIntent::PrescribeWeights {
            destination: well_known::BACKBONE_DEFAULT_ROUTE,
            per_device: vec![(idx.fauu[0][0], vec![])],
            expiration_time: None,
        };
        assert_eq!(weights.targets(&topo), vec![idx.fauu[0][0]]);
    }
}
