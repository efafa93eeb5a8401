//! The incremental engine against its oracle: a scoped deploy must leave
//! converged state that full re-evaluation does not move, at both the simnet
//! layer (`SimNet::verify_full_equivalence`) and the controller layer (a
//! whole-fleet poll finds nothing the deployment's scoped polling missed),
//! plus the builder round-trip contract of `SimConfig`.

use centralium::apps::path_equalization::equalize_backbone_paths;
use centralium::{
    ControlTransport, Controller, DeploymentStrategy, HealthCheck, InProcessTransport, RetryPolicy,
};
use centralium_bgp::attrs::well_known;
use centralium_bgp::Prefix;
use centralium_rpa::{
    Destination, NextHopWeight, PathSignature, RouteAttributeRpa, RouteAttributeStatement,
    RpaDocument,
};
use centralium_simnet::{ChaosPlan, SimConfig, SimNet};
use centralium_topology::{build_fabric, DeviceId, FabricSpec, Layer};

const SEEDS: [u64; 3] = [7, 21, 1337];

fn converged(seed: u64) -> (SimNet, Vec<Vec<DeviceId>>) {
    let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
    let mut net = SimNet::new(topo, SimConfig::builder().seed(seed).build());
    net.establish_all();
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    net.run_until_quiescent().expect_converged();
    (net, idx.ssw)
}

fn te_doc(net: &SimNet, ssw: DeviceId) -> RpaDocument {
    let first = net
        .topology()
        .uplinks(ssw)
        .into_iter()
        .filter_map(|(up, _)| net.topology().device(up).map(|d| d.asn))
        .next()
        .expect("SSW has at least one uplink");
    RpaDocument::RouteAttribute(RouteAttributeRpa::single(
        "te-wave",
        RouteAttributeStatement::new(
            Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
            vec![NextHopWeight {
                signature: PathSignature {
                    first_asn: Some(first),
                    ..Default::default()
                },
                weight: 3,
            }],
        ),
    ))
}

/// Simnet layer: a TE weight deploy re-decides only the prefixes the
/// document scopes, and the state it converges to must be a fixed point of
/// full re-evaluation, for every seed — the oracle's forced pass is silent
/// and moves no FIB, and a second forced pass moves none either.
#[test]
fn delta_fibs_match_full_reconvergence() {
    for seed in SEEDS {
        let (mut net, ssw) = converged(seed);
        for &dev in &ssw[0] {
            let doc = te_doc(&net, dev);
            net.deploy_rpa(dev, doc, 300);
        }
        net.run_until_quiescent().expect_converged();
        let delta = net.fib_snapshot();
        net.verify_full_equivalence()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        net.force_full_reconvergence().expect_converged();
        assert_eq!(
            delta,
            net.fib_snapshot(),
            "seed {seed}: delta FIBs diverge from full reconvergence"
        );
    }
}

/// Controller layer under management-plane chaos: a fleet deployment polls
/// only the devices it has touched between reconcile rounds. Afterwards a
/// whole-fleet poll must find no path out of sync — scoped polling missed
/// nothing — and the deployed state must pass the oracle, across the chaos
/// seeds the retry harness gates on.
#[test]
fn chaotic_deploy_equivalent_under_scoped_polling() {
    for seed in SEEDS {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let mut net = SimNet::new(topo, SimConfig::builder().seed(seed).build());
        net.set_chaos(ChaosPlan::with_rpc_loss(seed, 0.1));
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        let mut controller = Controller::new(&net, idx.rsw[0][0]);
        controller.agent.set_retry_policy(RetryPolicy {
            jitter_seed: seed,
            ..Default::default()
        });
        let intent = equalize_backbone_paths(well_known::BACKBONE_DEFAULT_ROUTE, Layer::Backbone);
        controller
            .deploy_intent(
                &mut net,
                &intent,
                Layer::Backbone,
                DeploymentStrategy::SafeOrder,
                &HealthCheck::default(),
                &HealthCheck::default(),
            )
            .expect("deployment converges");
        let mut transport = InProcessTransport::new(&mut net, &mut controller.agent);
        transport.poll_current().expect("whole-fleet poll");
        let missed = transport.out_of_sync_paths().expect("in-process read");
        assert!(
            missed.is_empty(),
            "seed {seed}: scoped polling missed {missed:?}"
        );
        net.verify_full_equivalence()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Builder round-trip: `SimConfig::builder().build()` is exactly
/// `SimConfig::default()`, and every setter overrides only its own field —
/// the contract that lets `#[non_exhaustive]` add or drop fields without
/// breaking callers.
#[test]
fn simconfig_builder_roundtrip_matches_default() {
    let d = SimConfig::default();
    let b = SimConfig::builder().build();
    assert_eq!(format!("{d:?}"), format!("{b:?}"), "builder() == default()");
    let cfg = SimConfig::builder()
        .seed(7)
        .jitter_us(20_000)
        .sessions_per_link(2)
        .coalesce_updates(!d.coalesce_updates)
        .wcmp_advertise(!d.wcmp_advertise)
        .valley_free_policies(!d.valley_free_policies)
        .build();
    assert_eq!(cfg.seed, 7);
    assert_eq!(cfg.jitter_us, 20_000);
    assert_eq!(cfg.sessions_per_link, 2);
    assert_eq!(cfg.coalesce_updates, !d.coalesce_updates);
    assert_eq!(cfg.wcmp_advertise, !d.wcmp_advertise);
    assert_eq!(cfg.valley_free_policies, !d.valley_free_policies);
    // One setter touches one field; the rest keep their defaults.
    let one = SimConfig::builder().seed(7).build();
    assert_eq!(one.seed, 7);
    assert_eq!(one.jitter_us, d.jitter_us);
    assert_eq!(one.sessions_per_link, d.sessions_per_link);
    assert_eq!(one.coalesce_updates, d.coalesce_updates);
    assert_eq!(one.valley_free_policies, d.valley_free_policies);
}
