//! Unified Rollout app (§7.1): orchestrate base-BGP-policy changes and RPA
//! deployments as one coordinated operation, so their interdependency
//! ("RPA relies on these attributes being correctly specified by the base
//! BGP policy") cannot be violated by uncoordinated pushes.

use crate::controller::{Controller, DeployError, DeploymentReport};
use crate::health::HealthCheck;
use crate::intent::RoutingIntent;
use crate::sequencer::DeploymentStrategy;
use centralium_bgp::policy::Policy;
use centralium_simnet::{NetEvent, SimNet};
use centralium_topology::{DeviceId, Layer};

/// One step of a unified rollout.
#[derive(Debug, Clone)]
pub enum RolloutStep {
    /// Swap the base export policy on a device set (a config push).
    BasePolicy {
        /// Devices receiving the new policy.
        devices: Vec<DeviceId>,
        /// The policy.
        policy: Policy,
    },
    /// Deploy an RPA intent through the controller.
    DeployRpa {
        /// The intent.
        intent: RoutingIntent,
        /// Where its routes originate (sequencing input).
        origination_layer: Layer,
    },
    /// Remove a previously deployed RPA intent.
    RemoveRpa {
        /// The intent.
        intent: RoutingIntent,
        /// Where its routes originate.
        origination_layer: Layer,
    },
}

/// Run an ordered rollout: each step fully converges (and, for RPA steps,
/// passes the health check) before the next starts. Returns per-RPA-step
/// deployment reports.
pub fn run_rollout(
    net: &mut SimNet,
    controller: &mut Controller,
    steps: Vec<RolloutStep>,
    health: &HealthCheck,
) -> Result<Vec<DeploymentReport>, DeployError> {
    let mut reports = Vec::new();
    for step in steps {
        match step {
            RolloutStep::BasePolicy { devices, policy } => {
                for dev in devices {
                    net.schedule_in(
                        0,
                        NetEvent::SetExportPolicy {
                            dev,
                            policy: Box::new(policy.clone()),
                        },
                    );
                }
                net.run_until_quiescent();
            }
            RolloutStep::DeployRpa {
                intent,
                origination_layer,
            } => {
                reports.push(controller.deploy_intent(
                    net,
                    &intent,
                    origination_layer,
                    DeploymentStrategy::SafeOrder,
                    health,
                    health,
                )?);
            }
            RolloutStep::RemoveRpa {
                intent,
                origination_layer,
            } => {
                reports.push(controller.remove_intent(
                    net,
                    &intent,
                    origination_layer,
                    DeploymentStrategy::SafeOrder,
                    health,
                )?);
            }
        }
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::path_equalization::equalize_on_layers;
    use centralium_bgp::attrs::well_known;
    use centralium_bgp::policy::{Action, MatchExpr, PolicyRule};
    use centralium_bgp::{Community, Prefix};
    use centralium_simnet::SimConfig;
    use centralium_topology::{build_fabric, FabricSpec};

    #[test]
    fn rollout_coordinates_policy_and_rpa_steps() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let mut net = SimNet::new(topo, SimConfig::default());
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        let mut controller = Controller::new(&net, idx.rsw[0][0]);
        let intent = equalize_on_layers(
            well_known::BACKBONE_DEFAULT_ROUTE,
            Layer::Backbone,
            vec![Layer::Ssw],
        );
        let marker = Community(0xCAFE);
        let tag_policy = Policy::accept_all().rule(PolicyRule {
            matches: MatchExpr::any(),
            actions: vec![Action::AddCommunity(marker)],
        });
        let fadus: Vec<DeviceId> = idx.fadu.iter().flatten().copied().collect();
        let steps = vec![
            RolloutStep::DeployRpa {
                intent: intent.clone(),
                origination_layer: Layer::Backbone,
            },
            RolloutStep::BasePolicy {
                devices: fadus,
                policy: tag_policy,
            },
            RolloutStep::RemoveRpa {
                intent,
                origination_layer: Layer::Backbone,
            },
        ];
        let reports =
            run_rollout(&mut net, &mut controller, steps, &HealthCheck::default()).unwrap();
        assert_eq!(reports.len(), 2, "one report per RPA step");
        // End state: base policy active, RPA cleaned up.
        let ssw = idx.ssw[0][0];
        assert!(net.device(ssw).unwrap().engine.installed().is_empty());
        let routes = net
            .device(ssw)
            .unwrap()
            .daemon
            .rib_in_routes(Prefix::DEFAULT);
        assert!(routes.iter().any(|r| r.attrs.has_community(marker)));
    }
}
