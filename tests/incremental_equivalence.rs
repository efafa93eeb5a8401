//! Delta-vs-full convergence equivalence: the incremental engine must land
//! byte-identical FIBs to full reconvergence across chaos seeds, at both
//! the simnet layer (`SimConfig::incremental`) and the
//! controller layer (`DeployOptions::delta_convergence`), plus the builder
//! round-trip / backwards-compatibility contract for the new fluent
//! builders.

use centralium::apps::path_equalization::equalize_backbone_paths;
use centralium::{Controller, DeployOptions, DeploymentStrategy, HealthCheck, RetryPolicy};
use centralium_bgp::attrs::well_known;
use centralium_bgp::{FibEntry, Prefix};
use centralium_rpa::{
    Destination, NextHopWeight, PathSignature, RouteAttributeRpa, RouteAttributeStatement,
    RpaDocument,
};
use centralium_simnet::{ChaosPlan, SimConfig, SimNet};
use centralium_topology::{build_fabric, DeviceId, FabricSpec, Layer};
use std::collections::BTreeMap;

const SEEDS: [u64; 3] = [7, 21, 1337];

fn converged(seed: u64, incremental: bool) -> (SimNet, Vec<Vec<DeviceId>>) {
    let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
    let mut net = SimNet::new(
        topo,
        SimConfig::builder()
            .seed(seed)
            .incremental(incremental)
            .build(),
    );
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

/// Simnet-layer equivalence: a TE weight deploy under `incremental: true`
/// must land the same FIBs as under `incremental: false` followed by a
/// forced whole-fabric reconvergence, for every seed.
/// The delta-converged state must also be a fixed point of full
/// re-evaluation (`verify_full_equivalence`, the `--full-check` shadow
/// mode).
#[test]
fn delta_fibs_match_full_reconvergence() {
    for seed in SEEDS {
        let run = |incremental: bool| -> (BTreeMap<DeviceId, Vec<FibEntry>>, SimNet) {
            let (mut net, ssw) = converged(seed, incremental);
            for &dev in &ssw[0] {
                let doc = te_doc(&net, dev);
                net.deploy_rpa(dev, doc, 300);
            }
            net.run_until_quiescent().expect_converged();
            if !incremental {
                net.force_full_reconvergence();
            }
            (net.fib_snapshot(), net)
        };
        let (full, _) = run(false);
        let (delta, mut delta_net) = run(true);
        assert_eq!(
            full, delta,
            "seed {seed}: delta FIBs diverge from full reconvergence"
        );
        delta_net
            .verify_full_equivalence()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Controller-layer equivalence under management-plane chaos: a fleet
/// deployment with scoped polling (`delta_convergence: true`) must converge
/// to the same FIBs as one that distrusts delta state and forces full
/// reconvergence between rounds — across the chaos seeds the retry harness
/// gates on.
#[test]
fn chaotic_deploy_equivalent_under_scoped_polling() {
    for seed in SEEDS {
        let run = |delta: bool| -> BTreeMap<DeviceId, Vec<FibEntry>> {
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
            let intent =
                equalize_backbone_paths(well_known::BACKBONE_DEFAULT_ROUTE, Layer::Backbone);
            let opts = DeployOptions::builder(Layer::Backbone, DeploymentStrategy::SafeOrder)
                .delta_convergence(delta)
                .build();
            controller
                .deploy_intent_with(
                    &mut net,
                    &intent,
                    &opts,
                    &HealthCheck::default(),
                    &HealthCheck::default(),
                )
                .expect("deployment converges");
            net.fib_snapshot()
        };
        assert_eq!(
            run(true),
            run(false),
            "seed {seed}: scoped polling changed the deployed FIBs"
        );
    }
}

/// Builder round-trip: `SimConfig::builder().build()` is exactly
/// `SimConfig::default()`, and every setter overrides only its own field —
/// the backwards-compatibility contract that lets `#[non_exhaustive]` grow
/// new knobs without breaking callers.
#[test]
fn simconfig_builder_roundtrip_matches_default() {
    let d = SimConfig::default();
    let b = SimConfig::builder().build();
    assert_eq!(format!("{d:?}"), format!("{b:?}"), "builder() == default()");
    let cfg = SimConfig::builder().seed(7).incremental(false).build();
    assert_eq!(cfg.seed, 7);
    assert!(!cfg.incremental);
    // Untouched fields keep their defaults.
    assert_eq!(cfg.base_latency_us, d.base_latency_us);
    assert_eq!(cfg.jitter_us, d.jitter_us);
    assert_eq!(cfg.sessions_per_link, d.sessions_per_link);
    assert_eq!(cfg.valley_free_policies, d.valley_free_policies);
    assert_eq!(cfg.max_events, d.max_events);
}

/// `DeployOptions::builder` seeds from `DeployOptions::new` and each setter
/// overrides one knob; delta convergence defaults on.
#[test]
fn deploy_options_builder_matches_new() {
    let n = DeployOptions::new(Layer::Backbone, DeploymentStrategy::SafeOrder);
    assert!(n.delta_convergence, "delta convergence is the default");
    let b = DeployOptions::builder(Layer::Backbone, DeploymentStrategy::SafeOrder)
        .max_wave_rounds(3)
        .halt_after_waves(1)
        .delta_convergence(false)
        .build();
    assert_eq!(b.max_wave_rounds, 3);
    assert_eq!(b.halt_after_waves, Some(1));
    assert!(!b.delta_convergence);
    assert_eq!(format!("{:?}", b.strategy), format!("{:?}", n.strategy));
    assert_eq!(
        format!("{:?}", b.origination_layer),
        format!("{:?}", n.origination_layer)
    );
    assert_eq!(
        format!("{:?}", b.wave_policy),
        format!("{:?}", n.wave_policy)
    );
}
