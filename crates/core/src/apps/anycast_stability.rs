//! Anycast Stability app (Table 1 row c, Differential Traffic Distribution):
//! "we apply a special policy to anycast load-bearing prefixes for routing
//! stability during maintenance that breaks network symmetry" (§3.1).
//!
//! Anycast VIPs are pinned to a primary path set with a minimum live-path
//! floor; only when the primary set degrades below the floor does selection
//! fall to the backup set — instead of flapping per-path as native BGP
//! would.

use crate::intent::{RoutingIntent, TargetSet};
use centralium_topology::Layer;

/// Build the anycast stability intent: prefer paths originated in
/// `primary_layer` while at least `min_primary_paths` are live; otherwise
/// use `backup_layer` originations.
pub fn anycast_stability_intent(
    primary_layer: Layer,
    min_primary_paths: usize,
    backup_layer: Layer,
    deploy_on: Vec<Layer>,
) -> RoutingIntent {
    RoutingIntent::PrimaryBackup {
        destination: centralium_bgp::attrs::well_known::ANYCAST_VIP,
        primary_origin_layer: primary_layer,
        primary_min_next_hop: min_primary_paths,
        backup_origin_layer: backup_layer,
        targets: TargetSet::Layers(deploy_on),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_bgp::attrs::well_known;
    use centralium_bgp::{PathAttributes, PathChoice, PeerId, Prefix, RibPolicy, Route};
    use centralium_rpa::RpaEngine;
    use centralium_topology::{build_fabric, Asn, FabricSpec};

    fn vip_route(peer: u64, origin_asn: u32, hops: u32) -> Route {
        let mut attrs = PathAttributes::default();
        attrs.prepend(Asn(origin_asn), 1);
        for i in 0..hops {
            attrs.prepend(Asn(30_000 + i), 1);
        }
        attrs.add_community(well_known::ANYCAST_VIP);
        Route::learned("10.99.0.0/16".parse().unwrap(), attrs, PeerId(peer))
    }

    #[test]
    fn primary_holds_until_floor_breaks_then_backup() {
        let (topo, _, _) = build_fabric(&FabricSpec::tiny());
        let intent = anycast_stability_intent(Layer::Backbone, 2, Layer::Fauu, vec![Layer::Ssw]);
        let docs = crate::compile::compile_intent(&topo, &intent).unwrap();
        let mut engine = RpaEngine::new();
        engine.install(docs[0].1.clone()).unwrap();
        let prefix: Prefix = "10.99.0.0/16".parse().unwrap();
        // Two primary (backbone-originated, 6xxxx) + one backup (FAUU,
        // 5xxxx): primary set wins.
        let candidates = vec![
            vip_route(1, 60_000, 2),
            vip_route(2, 60_001, 2),
            vip_route(3, 50_000, 1),
        ];
        let PathChoice::Rpa(sel) = engine.select_paths(prefix, &candidates) else {
            panic!("the VIP is governed");
        };
        assert_eq!(
            sel.selected,
            vec![0, 1],
            "primary set selected, backup idle"
        );
        // One primary path dies: floor of 2 violated → backup set.
        let degraded = vec![vip_route(1, 60_000, 2), vip_route(3, 50_000, 1)];
        let PathChoice::Rpa(sel) = engine.select_paths(prefix, &degraded) else {
            panic!("the VIP is governed");
        };
        assert_eq!(
            sel.selected,
            vec![1],
            "fell back to the backup set as a whole"
        );
    }

    #[test]
    fn non_vip_prefixes_are_untouched() {
        let (topo, _, _) = build_fabric(&FabricSpec::tiny());
        let intent = anycast_stability_intent(Layer::Backbone, 2, Layer::Fauu, vec![Layer::Ssw]);
        let docs = crate::compile::compile_intent(&topo, &intent).unwrap();
        let mut engine = RpaEngine::new();
        engine.install(docs[0].1.clone()).unwrap();
        let mut attrs = PathAttributes::default();
        attrs.prepend(Asn(60_000), 1);
        let plain = vec![Route::learned(Prefix::DEFAULT, attrs, PeerId(1))];
        assert_eq!(
            engine.select_paths(Prefix::DEFAULT, &plain),
            PathChoice::Native(None),
            "no VIP community ⇒ native selection"
        );
    }
}
