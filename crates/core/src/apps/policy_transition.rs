//! Policy Transition app (Table 1 row d): change routing policy intent
//! fleet-wide with RPAs holding the routing outcome steady while the base
//! BGP policy is swapped underneath (Table 3: 5 pushes → RPA, one push,
//! RPA removal).

use crate::intent::{RoutingIntent, TargetSet};
use centralium_bgp::policy::Policy;
use centralium_bgp::Community;
use centralium_simnet::SimNet;
use centralium_topology::{DeviceId, Layer};

/// Stage 1: pin current routing with an explicit path-selection RPA so the
/// base-policy swap cannot change forwarding mid-transition.
pub fn pin_current_selection(destination: Community, layers: Vec<Layer>) -> RoutingIntent {
    RoutingIntent::EqualizePaths {
        destination,
        origin_layer: Layer::Backbone,
        targets: TargetSet::Layers(layers),
    }
}

/// Stage 2: push the new base policy to a device set in one shot (the single
/// remaining fleet push). In the emulator this swaps export policies.
pub fn push_base_policy(net: &mut SimNet, devices: &[DeviceId], policy: Policy) {
    for &dev in devices {
        net.schedule_in(
            0,
            centralium_simnet::NetEvent::SetExportPolicy {
                dev,
                policy: Box::new(policy.clone()),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_bgp::attrs::well_known;
    use centralium_bgp::policy::{Action, MatchExpr, PolicyRule};
    use centralium_bgp::Prefix;
    use centralium_simnet::SimConfig;
    use centralium_topology::{build_fabric, FabricSpec};

    #[test]
    fn forwarding_is_stable_across_base_policy_swap() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let mut net = SimNet::new(topo, SimConfig::default());
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        // Pin selection on the SSWs.
        let intent = pin_current_selection(well_known::BACKBONE_DEFAULT_ROUTE, vec![Layer::Ssw]);
        for (dev, doc) in crate::compile::compile_intent(net.topology(), &intent).unwrap() {
            net.deploy_rpa(dev, doc, 100);
        }
        net.run_until_quiescent().expect_converged();
        let ssw = idx.ssw[0][0];
        let before = net
            .device(ssw)
            .unwrap()
            .fib
            .entry(Prefix::DEFAULT)
            .unwrap()
            .clone();
        // Swap base policy on the FADUs: new policy tags everything with a
        // marker community (an intent-neutral change that, without the pin,
        // churns attribute comparisons).
        let marker = Community(0xBEEF);
        let new_policy = Policy::accept_all().rule(PolicyRule {
            matches: MatchExpr::any(),
            actions: vec![Action::AddCommunity(marker)],
        });
        let fadus: Vec<DeviceId> = idx.fadu.iter().flatten().copied().collect();
        push_base_policy(&mut net, &fadus, new_policy);
        net.run_until_quiescent().expect_converged();
        let after = net
            .device(ssw)
            .unwrap()
            .fib
            .entry(Prefix::DEFAULT)
            .unwrap()
            .clone();
        assert_eq!(
            before.nexthops, after.nexthops,
            "pinned selection unchanged"
        );
        // The new policy is in effect: routes carry the marker.
        let routes = net
            .device(ssw)
            .unwrap()
            .daemon
            .rib_in_routes(Prefix::DEFAULT);
        assert!(routes.iter().any(|r| r.attrs.has_community(marker)));
    }
}
