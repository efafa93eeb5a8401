//! End-to-end telemetry: a small migration deployed through the controller
//! must leave a journal whose `SequencerWave` and `HealthCheck` events appear
//! in the topology-safe order the sequencer promises (§5.3.2), and a metrics
//! registry whose counters agree with the legacy `TraceStats` view.

use centralium::controller::{Controller, DeployOptions};
use centralium::health::HealthCheck;
use centralium::intent::TargetSet;
use centralium::sequencer::DeploymentStrategy;
use centralium::transport::TransportKind;
use centralium::{AgentServer, RoutingIntent, SwitchAgent};
use centralium_bgp::attrs::well_known;
use centralium_bgp::Prefix;
use centralium_simnet::{ManagementPlane, SimConfig, SimNet};
use centralium_telemetry::{EventKind, Telemetry};
use centralium_topology::{build_fabric, FabricSpec, Layer};

fn journaled_fabric() -> (SimNet, centralium_topology::builder::FabricIndex) {
    let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
    let mut net = SimNet::new(topo, SimConfig::default());
    net.set_telemetry(Telemetry::with_journal(16_384));
    net.establish_all();
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    net.run_until_quiescent().expect_converged();
    (net, idx)
}

/// Equalize the backbone default route on three layers: one wave each.
fn three_layer_intent() -> RoutingIntent {
    RoutingIntent::EqualizePaths {
        destination: well_known::BACKBONE_DEFAULT_ROUTE,
        origin_layer: Layer::Backbone,
        targets: TargetSet::Layers(vec![Layer::Fsw, Layer::Ssw, Layer::Fadu]),
    }
}

const PHASES: [&str; 6] = [
    "preverify",
    "plan",
    "wave 1 (Fsw)",
    "wave 2 (Ssw)",
    "wave 3 (Fadu)",
    "health",
];

/// The names of the finished pipeline phases on `tel`, in order.
fn phase_names(tel: &Telemetry) -> Vec<String> {
    tel.spans()
        .into_iter()
        .filter(|r| r.phase_sim_us().is_some())
        .map(|r| r.name.into_owned())
        .collect()
}

#[test]
fn deployment_journal_orders_waves_and_health_checks() {
    let (mut net, idx) = journaled_fabric();
    let mut controller = Controller::new(&net, idx.rsw[0][0]);
    let intent = three_layer_intent();
    controller
        .deploy_intent(
            &mut net,
            &intent,
            Layer::Backbone,
            DeploymentStrategy::SafeOrder,
            &HealthCheck::default(),
            &HealthCheck::default(),
        )
        .expect("deploys");

    let tel = net.telemetry();
    let journal = tel.journal().expect("journal enabled");
    assert_eq!(journal.dropped(), 0, "16k ring holds a tiny-fabric deploy");
    let events = journal.snapshot();

    // The sequencer emitted one wave per layer, bottom-up (topology-safe):
    // FSW before SSW before FADU, with sim time monotone across waves.
    let waves: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SequencerWave)
        .collect();
    let layers: Vec<&str> = waves
        .iter()
        .filter_map(|e| e.get("layer").and_then(|v| v.as_str()))
        .collect();
    assert_eq!(layers, ["Fsw", "Ssw", "Fadu"]);
    for (i, wave) in waves.iter().enumerate() {
        assert_eq!(
            wave.get("wave").and_then(|v| v.as_u64()),
            Some(i as u64 + 1)
        );
        let issued = wave.get("issued_at_us").and_then(|v| v.as_u64()).unwrap();
        let converged = wave
            .get("converged_at_us")
            .and_then(|v| v.as_u64())
            .unwrap();
        assert!(issued <= converged);
        if let Some(prev) = i.checked_sub(1).map(|j| waves[j]) {
            let prev_converged = prev
                .get("converged_at_us")
                .and_then(|v| v.as_u64())
                .unwrap();
            assert!(
                issued >= prev_converged,
                "waves respect the convergence barrier"
            );
        }
    }

    // Health checks bracket the waves: the preverify check lands before the
    // first wave in the journal, the post-deployment check after the last.
    let positions = |kind| {
        events
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.kind == kind)
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
    };
    let health = positions(EventKind::HealthCheck);
    let wave_pos = positions(EventKind::SequencerWave);
    assert_eq!(health.len(), 2, "one pre- and one post-deployment check");
    assert!(health[0] < wave_pos[0], "pre-check precedes the first wave");
    assert!(
        health[1] > *wave_pos.last().unwrap(),
        "post-check follows the last wave"
    );

    // The deploy pipeline's phase spans saw every stage.
    assert_eq!(phase_names(tel), PHASES);

    // The compatibility view and the registry are the same numbers.
    let stats = net.stats();
    let snap = tel.metrics().snapshot();
    assert_eq!(
        stats.messages_delivered,
        snap.counter("simnet.messages_delivered")
    );
    assert_eq!(stats.rpa_operations, snap.counter("simnet.rpa_operations"));
    assert_eq!(snap.counter("health.checks"), 2);
    assert_eq!(
        snap.counter("rpa.installs"),
        12,
        "12 RPCs across three layers"
    );
}

#[test]
fn journal_captures_rpa_and_session_lifecycle() {
    let (mut net, idx) = journaled_fabric();
    // A session flap and a device decommission feed SessionTransition events;
    // the RPA installs from establish-time are already journaled.
    net.device_down(idx.fadu[0][0]);
    net.run_until_quiescent().expect_converged();
    let journal = net.telemetry().journal().expect("journal enabled");
    let events = journal.snapshot();
    let has = |kind| events.iter().any(|e| e.kind == kind);
    assert!(has(EventKind::SessionTransition));
    assert!(has(EventKind::BgpDecision));
    let downs = events
        .iter()
        .filter(|e| {
            e.kind == EventKind::SessionTransition
                && e.get("state").and_then(|v| v.as_str()) == Some("down")
        })
        .count();
    assert!(downs > 0, "the decommissioned FADU's sessions went down");
}

#[test]
fn a_deploy_over_tcp_records_into_the_controller_fabric() {
    // The remote fabric runs the RPCs; the controller's phases and journal
    // events land on the handle of the fabric it was given.
    let (remote, idx) = journaled_fabric();
    let mgmt = ManagementPlane::compute(remote.topology(), idx.rsw[0][0]);
    let server = AgentServer::bind("127.0.0.1:0", remote, SwitchAgent::new(mgmt)).expect("bind");
    let (mut net, idx) = journaled_fabric();
    let mut controller = Controller::new(&net, idx.rsw[0][0]);
    let opts = DeployOptions::builder(Layer::Backbone, DeploymentStrategy::SafeOrder)
        .transport(TransportKind::Tcp {
            addr: server.local_addr().to_string(),
        })
        .build();
    controller
        .deploy_intent_with(
            &mut net,
            &three_layer_intent(),
            &opts,
            &HealthCheck::default(),
            &HealthCheck::default(),
        )
        .expect("deploys over TCP");
    server.shutdown();

    let tel = net.telemetry();
    assert_eq!(phase_names(tel), PHASES);
    let waves = tel
        .journal()
        .expect("journal enabled")
        .snapshot()
        .into_iter()
        .filter(|e| e.kind == EventKind::SequencerWave)
        .count();
    assert_eq!(waves, 3, "one SequencerWave event per wave");
}
