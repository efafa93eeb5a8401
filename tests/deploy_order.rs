//! The intended state is the FIB's only input: a set of the apps' intents
//! deployed through the controller in a random order, under management-RPC
//! loss, with agent restarts between deploys, ends in the FIBs of a
//! fixed-order, fault-free deploy of the same set on a fresh fabric.
//!
//! Documents are named by `RoutingIntent::kind()`, and a same-name deploy
//! replaces the old document by design, so a case draws at most one intent
//! per kind. The pool makes precedence matter: `equalize-paths` and the
//! tripping `min-nexthop-protection` both govern the SSWs' default route
//! and disagree (one selects it, the other withdraws it).

use centralium::apps::anycast_stability::anycast_stability_intent;
use centralium::apps::decommission::protection_intent;
use centralium::apps::explosion_guard::explosion_guard_intent;
use centralium::apps::fib_warm_keeper::{protected_origination, DestinationKind};
use centralium::apps::maintenance_drain::standing_protection;
use centralium::apps::path_equalization::equalize_backbone_paths;
use centralium::apps::policy_transition::pin_current_selection;
use centralium::apps::route_filter_boundary::dc_backbone_boundary;
use centralium::{Controller, DeploymentStrategy, HealthCheck, RetryPolicy, RoutingIntent};
use centralium_bench::scenarios::{converged_fabric, originate_rack_prefixes};
use centralium_bgp::attrs::well_known;
use centralium_bgp::{FibEntry, Prefix};
use centralium_rpa::MinNextHop;
use centralium_simnet::{ChaosPlan, NetEvent, SimNet};
use centralium_topology::{DeviceId, FabricSpec, Layer};
use proptest::prelude::*;
use std::collections::BTreeMap;

const SEED: u64 = 41;

/// `tiny`, converged with the backbone default route, one prefix per rack
/// and an anycast VIP (primary: the backbone; backup: one rack).
fn fabric() -> (SimNet, centralium_topology::builder::FabricIndex) {
    let mut fab = converged_fabric(&FabricSpec::tiny(), SEED);
    originate_rack_prefixes(&mut fab);
    let vip: Prefix = "10.200.0.0/16".parse().unwrap();
    for &eb in &fab.idx.backbone {
        fab.net.originate(eb, vip, [well_known::ANYCAST_VIP]);
    }
    let backup = fab.idx.rsw[0][0];
    fab.net.originate(backup, vip, [well_known::ANYCAST_VIP]);
    fab.net.run_until_quiescent().expect_converged();
    (fab.net, fab.idx)
}

/// The candidate intents, grouped by kind.
fn pool(net: &SimNet, idx: &centralium_topology::builder::FabricIndex) -> Vec<Vec<RoutingIntent>> {
    let dest = well_known::BACKBONE_DEFAULT_ROUTE;
    let flat = |grid: &[Vec<DeviceId>]| grid.iter().flatten().copied().collect::<Vec<_>>();
    let (fsws, ssws, fadus) = (flat(&idx.fsw), flat(&idx.ssw), flat(&idx.fadu));
    let pools = vec![
        vec![
            equalize_backbone_paths(dest, Layer::Backbone),
            pin_current_selection(dest, vec![Layer::Ssw, Layer::Fadu]),
        ],
        vec![
            protection_intent(dest, ssws.clone(), MinNextHop::Absolute(2)),
            standing_protection(dest, fsws),
            // Three next hops on two uplinks: withdraws the default route.
            protected_origination(
                dest,
                DestinationKind::NewOrigination,
                MinNextHop::Absolute(3),
                ssws.clone(),
            ),
        ],
        vec![
            explosion_guard_intent(net.topology(), &fadus, dest, None),
            explosion_guard_intent(net.topology(), &ssws, dest, None),
        ],
        vec![dc_backbone_boundary(vec![(
            "10.0.0.0/8".parse().unwrap(),
            16,
        )])],
        vec![anycast_stability_intent(
            Layer::Backbone,
            2,
            Layer::Rsw,
            vec![Layer::Fadu],
        )],
    ];
    for kind in &pools {
        assert!(kind.windows(2).all(|w| w[0].kind() == w[1].kind()));
    }
    pools
}

/// Reconcile until current state equals intended state, retrying lost RPCs.
fn settle(controller: &mut Controller, net: &mut SimNet) {
    for _ in 0..64 {
        net.run_until_quiescent().expect_converged();
        controller.agent.poll_current(net).unwrap();
        if controller.agent.service.store.out_of_sync().is_empty() {
            return;
        }
        if controller.agent.reconcile(net).unwrap().is_empty() {
            if let Some(due) = controller.agent.next_retry_due(net.now()) {
                net.run_until(due);
            }
        }
    }
    panic!("intended state never reached");
}

/// Deploy `set` in the given order under `chaos`, restarting the agents of
/// `restarts` (`(after deploy i, device index)`) along the way.
fn deploy_set(
    set: &[RoutingIntent],
    chaos: Option<ChaosPlan>,
    restarts: &[(usize, usize)],
) -> BTreeMap<DeviceId, Vec<FibEntry>> {
    let (mut net, idx) = fabric();
    let devices = net.device_ids();
    let mut controller = Controller::new(&net, idx.rsw[0][0]);
    if let Some(plan) = chaos {
        controller.agent.set_retry_policy(RetryPolicy {
            jitter_seed: plan.seed,
            ..RetryPolicy::default()
        });
        net.set_chaos(plan);
    }
    let check = HealthCheck::default();
    for (i, intent) in set.iter().enumerate() {
        controller
            .deploy_intent(
                &mut net,
                intent,
                Layer::Backbone,
                DeploymentStrategy::SafeOrder,
                &check,
                &check,
            )
            .unwrap_or_else(|e| panic!("{} deploys: {e}", intent.kind()));
        for &(_, d) in restarts.iter().filter(|(after, _)| *after == i) {
            let dev = devices[d % devices.len()];
            net.schedule_in(0, NetEvent::AgentRestart { dev });
        }
    }
    settle(&mut controller, &mut net);
    net.fib_snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn final_fibs_depend_on_the_intent_set_not_the_deploy_history(
        picks in proptest::collection::vec(0usize..4, 5),
        keys in proptest::collection::vec(0u32..1000, 5),
        restarts in proptest::collection::vec((0usize..5, 0usize..64), 1..4),
        chaos_seed in 0u64..1000,
    ) {
        let (net, idx) = fabric();
        let pools = pool(&net, &idx);
        // Per kind: nothing, or one of its intents, with a sort key.
        let mut drawn: Vec<(u32, RoutingIntent)> = Vec::new();
        for ((kind, &pick), &key) in pools.iter().zip(&picks).zip(&keys) {
            if pick > 0 {
                drawn.push((key, kind[(pick - 1) % kind.len()].clone()));
            }
        }
        let fixed: Vec<RoutingIntent> = drawn.iter().map(|(_, i)| i.clone()).collect();
        drawn.sort_by_key(|(key, _)| *key);
        let shuffled: Vec<RoutingIntent> = drawn.into_iter().map(|(_, i)| i).collect();
        let reference = deploy_set(&fixed, None, &[]);
        let chaotic = deploy_set(
            &shuffled,
            Some(ChaosPlan::with_rpc_loss(chaos_seed, 0.1)),
            &restarts,
        );
        let kinds: Vec<&str> = shuffled.iter().map(RoutingIntent::kind).collect();
        prop_assert!(
            chaotic == reference,
            "FIBs differ after deploying {:?} with restarts {:?}",
            kinds,
            restarts
        );
    }
}
