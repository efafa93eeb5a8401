//! Intent → per-switch RPA generation (controller function 2, §5).
//!
//! This is the code path the paper benchmarks at "under 200 milliseconds for
//! a full DC" (§6.2): it touches only abstract state — topology and intent —
//! never routing tables.

use crate::intent::RoutingIntent;
use centralium_rpa::{
    Destination, MinNextHop, NextHopWeight, PathSelectionRpa, PathSelectionStatement, PathSet,
    PathSignature, PeerSignature, PrefixFilter, RouteAttributeRpa, RouteAttributeStatement,
    RouteFilterRpa, RouteFilterStatement, RpaDocument,
};
use centralium_topology::{AsnAllocator, DeviceId, Layer, Topology};
use std::fmt;

/// Errors from intent compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The intent resolved to zero target devices.
    EmptyTargets,
    /// A targeted device has no next-hops to resolve a fraction against.
    NoNextHops(DeviceId),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::EmptyTargets => write!(f, "intent targets no devices"),
            CompileError::NoNextHops(d) => {
                write!(
                    f,
                    "device {d} has no uplinks to resolve a fractional MinNextHop"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Regex matching AS-paths that *originate* in `layer` (the last ASN on the
/// path falls in the layer's ASN band). The production analog is matching
/// the backbone's ASN: "as_path_regex=^12345 ... regardless of their
/// lengths" (§4.3) — here generalized to a layer band.
pub(crate) fn origin_layer_regex(layer: Layer) -> String {
    // Bands are (height+1) * 10_000 .. +9_999, e.g. Backbone = 6xxxx.
    let band = AsnAllocator::layer_base(layer) / 10_000;
    format!("(^| ){band}\\d{{4}}$")
}

/// Compile an intent into per-switch documents.
pub fn compile_intent(
    topo: &Topology,
    intent: &RoutingIntent,
) -> Result<Vec<(DeviceId, RpaDocument)>, CompileError> {
    let targets = intent.targets(topo);
    if targets.is_empty() {
        return Err(CompileError::EmptyTargets);
    }
    let name = intent.kind().to_string();
    match intent {
        RoutingIntent::EqualizePaths {
            destination,
            origin_layer,
            ..
        } => {
            let doc = RpaDocument::PathSelection(PathSelectionRpa::single(
                name,
                PathSelectionStatement::select(
                    Destination::Community(*destination),
                    vec![PathSet::new(
                        format!("via-{origin_layer}"),
                        PathSignature::as_path(origin_layer_regex(*origin_layer)),
                    )],
                ),
            ));
            Ok(targets.into_iter().map(|d| (d, doc.clone())).collect())
        }
        RoutingIntent::MinNextHopProtection {
            destination,
            min,
            keep_fib_warm,
            ..
        } => {
            let mut out = Vec::with_capacity(targets.len());
            for dev in targets {
                // Fractions resolve against this device's next-hop population
                // toward the destination: its uplink neighbor count.
                let resolved = match min {
                    MinNextHop::Fraction(_) => {
                        let expected = topo.uplinks(dev).len();
                        if expected == 0 {
                            return Err(CompileError::NoNextHops(dev));
                        }
                        MinNextHop::Absolute(min.resolve(expected))
                    }
                    MinNextHop::Absolute(n) => MinNextHop::Absolute(*n),
                };
                let doc = RpaDocument::PathSelection(PathSelectionRpa::single(
                    name.clone(),
                    PathSelectionStatement::native_guard(
                        Destination::Community(*destination),
                        resolved,
                        *keep_fib_warm,
                    ),
                ));
                out.push((dev, doc));
            }
            Ok(out)
        }
        RoutingIntent::PrescribeWeights {
            destination,
            per_device,
            expiration_time,
        } => {
            let mut out = Vec::with_capacity(per_device.len());
            for (dev, weights) in per_device {
                if topo.device(*dev).is_none() {
                    continue;
                }
                let list = weights
                    .iter()
                    .map(|(asn, w)| NextHopWeight {
                        signature: PathSignature {
                            first_asn: Some(*asn),
                            ..Default::default()
                        },
                        weight: *w,
                    })
                    .collect();
                let mut statement =
                    RouteAttributeStatement::new(Destination::Community(*destination), list);
                statement.expiration_time = *expiration_time;
                out.push((
                    *dev,
                    RpaDocument::RouteAttribute(RouteAttributeRpa::single(name.clone(), statement)),
                ));
            }
            if out.is_empty() {
                return Err(CompileError::EmptyTargets);
            }
            Ok(out)
        }
        RoutingIntent::FilterBoundary {
            peer_layer,
            ingress_allow,
            egress_allow,
            ..
        } => {
            let base = AsnAllocator::layer_base(*peer_layer);
            let range = PeerSignature::AsnRange(
                centralium_topology::Asn(base),
                centralium_topology::Asn(base + 9_999),
            );
            let to_filters = |list: &Vec<(centralium_bgp::Prefix, u8)>| {
                list.iter()
                    .map(|(p, max)| PrefixFilter::within(*p, *max))
                    .collect::<Vec<_>>()
            };
            let doc = RpaDocument::RouteFilter(RouteFilterRpa {
                name,
                statements: vec![RouteFilterStatement {
                    peer_signature: range,
                    ingress_filter: Some(to_filters(ingress_allow)),
                    egress_filter: Some(to_filters(egress_allow)),
                }],
            });
            Ok(targets.into_iter().map(|d| (d, doc.clone())).collect())
        }
        RoutingIntent::PrimaryBackup {
            destination,
            primary_origin_layer,
            primary_min_next_hop,
            backup_origin_layer,
            ..
        } => {
            let doc = RpaDocument::PathSelection(PathSelectionRpa::single(
                name,
                PathSelectionStatement::select(
                    Destination::Community(*destination),
                    vec![
                        PathSet::new(
                            format!("primary-{primary_origin_layer}"),
                            PathSignature::as_path(origin_layer_regex(*primary_origin_layer)),
                        )
                        .with_min_next_hop((*primary_min_next_hop).max(1)),
                        PathSet::new(
                            format!("backup-{backup_origin_layer}"),
                            PathSignature::as_path(origin_layer_regex(*backup_origin_layer)),
                        ),
                    ],
                ),
            ));
            Ok(targets.into_iter().map(|d| (d, doc.clone())).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::TargetSet;
    use centralium_bgp::attrs::well_known;
    use centralium_topology::{build_fabric, FabricSpec};

    #[test]
    fn origin_layer_regex_matches_band() {
        let pattern = origin_layer_regex(Layer::Backbone);
        let re = regex_lite(&pattern);
        assert!(re("60001"));
        assert!(re("30001 40002 60005"));
        assert!(!re("60001 30001"), "backbone not at origin");
        assert!(!re("160001"), "out of band");
    }

    fn regex_lite(pattern: &str) -> impl Fn(&str) -> bool + '_ {
        // compile via the rpa crate's machinery to stay on one regex engine
        let sig = centralium_rpa::signature::CompiledSignature::compile(
            PathSignature::as_path(pattern),
            0,
        )
        .unwrap();
        move |path: &str| {
            let mut attrs = centralium_bgp::PathAttributes::default();
            for asn in path.split_whitespace().rev() {
                attrs.prepend(centralium_topology::Asn(asn.parse().unwrap()), 1);
            }
            sig.matches(&centralium_bgp::Route::local(
                centralium_bgp::Prefix::DEFAULT,
                attrs,
            ))
        }
    }

    #[test]
    fn equalize_compiles_one_doc_per_target() {
        let (topo, _, _) = build_fabric(&FabricSpec::tiny());
        let intent = RoutingIntent::EqualizePaths {
            destination: well_known::BACKBONE_DEFAULT_ROUTE,
            origin_layer: Layer::Backbone,
            targets: TargetSet::Layers(vec![Layer::Fsw, Layer::Ssw]),
        };
        let docs = compile_intent(&topo, &intent).unwrap();
        assert_eq!(docs.len(), 8);
        assert!(matches!(docs[0].1, RpaDocument::PathSelection(_)));
    }

    #[test]
    fn fraction_resolves_per_device() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let intent = RoutingIntent::MinNextHopProtection {
            destination: well_known::BACKBONE_DEFAULT_ROUTE,
            min: MinNextHop::Fraction(0.75),
            keep_fib_warm: true,
            targets: TargetSet::Devices(vec![idx.ssw[0][0]]),
        };
        let docs = compile_intent(&topo, &intent).unwrap();
        let RpaDocument::PathSelection(ps) = &docs[0].1 else {
            panic!()
        };
        // SSW has 2 uplinks (one FADU per grid): ceil(0.75*2) = 2.
        assert_eq!(
            ps.statements[0].bgp_native_min_next_hop,
            Some(MinNextHop::Absolute(2))
        );
        assert!(ps.statements[0].keep_fib_warm_if_mnh_violated);
    }

    #[test]
    fn fraction_on_top_layer_errors() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let intent = RoutingIntent::MinNextHopProtection {
            destination: well_known::BACKBONE_DEFAULT_ROUTE,
            min: MinNextHop::Fraction(0.5),
            keep_fib_warm: false,
            targets: TargetSet::Devices(vec![idx.backbone[0]]),
        };
        assert_eq!(
            compile_intent(&topo, &intent).unwrap_err(),
            CompileError::NoNextHops(idx.backbone[0])
        );
    }

    #[test]
    fn empty_targets_error() {
        let (topo, _, _) = build_fabric(&FabricSpec::tiny());
        let intent = RoutingIntent::EqualizePaths {
            destination: well_known::BACKBONE_DEFAULT_ROUTE,
            origin_layer: Layer::Backbone,
            targets: TargetSet::Devices(vec![]),
        };
        assert_eq!(
            compile_intent(&topo, &intent).unwrap_err(),
            CompileError::EmptyTargets
        );
    }

    #[test]
    fn filter_boundary_compiles_asn_range() {
        let (topo, _, _) = build_fabric(&FabricSpec::tiny());
        let intent = RoutingIntent::FilterBoundary {
            peer_layer: Layer::Backbone,
            ingress_allow: vec![(centralium_bgp::Prefix::DEFAULT, 0)],
            egress_allow: vec![("10.0.0.0/8".parse().unwrap(), 24)],
            targets: TargetSet::Layer(Layer::Fauu),
        };
        let docs = compile_intent(&topo, &intent).unwrap();
        assert_eq!(docs.len(), 4);
        let RpaDocument::RouteFilter(rf) = &docs[0].1 else {
            panic!()
        };
        assert_eq!(
            rf.statements[0].peer_signature,
            PeerSignature::AsnRange(
                centralium_topology::Asn(60_000),
                centralium_topology::Asn(69_999)
            )
        );
    }

    #[test]
    fn primary_backup_orders_path_sets() {
        let (topo, _, _) = build_fabric(&FabricSpec::tiny());
        let intent = RoutingIntent::PrimaryBackup {
            destination: well_known::ANYCAST_VIP,
            primary_origin_layer: Layer::Backbone,
            primary_min_next_hop: 2,
            backup_origin_layer: Layer::Fauu,
            targets: TargetSet::Layer(Layer::Ssw),
        };
        let docs = compile_intent(&topo, &intent).unwrap();
        let RpaDocument::PathSelection(ps) = &docs[0].1 else {
            panic!()
        };
        let sets = &ps.statements[0].path_set_list;
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].min_next_hop, 2);
        assert!(sets[0].name.starts_with("primary"));
        assert!(sets[1].name.starts_with("backup"));
    }

    #[test]
    fn prescribe_weights_compiles_per_device() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let intent = RoutingIntent::PrescribeWeights {
            destination: well_known::BACKBONE_DEFAULT_ROUTE,
            per_device: vec![
                (idx.fauu[0][0], vec![(centralium_topology::Asn(60_000), 3)]),
                (DeviceId(99_999), vec![]), // unknown device skipped
            ],
            expiration_time: Some(1_000_000),
        };
        let docs = compile_intent(&topo, &intent).unwrap();
        assert_eq!(docs.len(), 1);
        let RpaDocument::RouteAttribute(ra) = &docs[0].1 else {
            panic!()
        };
        assert_eq!(ra.statements[0].expiration_time, Some(1_000_000));
    }
}
