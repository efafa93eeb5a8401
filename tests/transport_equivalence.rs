//! Transport-equivalence acceptance: the same deployment driven through the
//! TCP service plane (real loopback sockets, `CRP1`-framed JSON RPCs) must
//! land **byte-identical FIBs** to the in-process transport — under
//! chaos, across the CI seed set {7, 21, 1337}.
//!
//! This is the API-redesign guarantee: [`ControlTransport`] extracts the
//! controller↔agent surface without changing a single apply decision, and
//! the server executes remote requests through the very same
//! `InProcessTransport` the local path uses.

use centralium::apps::path_equalization::equalize_backbone_paths;
use centralium::transport::{ControlTransport, TcpTransport};
use centralium::{
    deploy_intent_over, AgentServer, Controller, DeployOptions, DeploymentStrategy, HealthCheck,
    RetryPolicy, SwitchAgent,
};
use centralium_bgp::attrs::well_known;
use centralium_bgp::FibEntry;
use centralium_nsdb::ReplicatedNsdb;
use centralium_simnet::{ChaosPlan, ManagementPlane, SimConfig, SimNet};
use centralium_telemetry::Telemetry;
use centralium_topology::{build_three_tier, DeviceId, FabricSpec, Layer, ThreeTierSpec};

type FibSnapshot = Vec<(DeviceId, Vec<FibEntry>)>;

fn fib_snapshot(net: &SimNet) -> FibSnapshot {
    let mut fibs: Vec<_> = net
        .device_ids()
        .into_iter()
        .map(|id| {
            let entries = net.device(id).unwrap().fib.entries().cloned().collect();
            (id, entries)
        })
        .collect();
    fibs.sort_by_key(|(id, _)| *id);
    fibs
}

fn chaos_retry_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        jitter_seed: seed,
        ..Default::default()
    }
}

/// The in-process arm: the unchanged legacy path through `Controller`.
fn deploy_in_process(spec: &FabricSpec, sim_seed: u64, chaos: Option<ChaosPlan>) -> FibSnapshot {
    let mut fab = centralium_bench::scenarios::converged_fabric(spec, sim_seed);
    fab.net.set_telemetry(Telemetry::new());
    let mut controller = Controller::new(&fab.net, fab.idx.rsw[0][0]);
    if let Some(plan) = chaos {
        controller
            .agent
            .set_retry_policy(chaos_retry_policy(plan.seed));
        fab.net.set_chaos(plan);
    }
    let intent = equalize_backbone_paths(well_known::BACKBONE_DEFAULT_ROUTE, Layer::Backbone);
    controller
        .deploy_intent(
            &mut fab.net,
            &intent,
            Layer::Backbone,
            DeploymentStrategy::SafeOrder,
            &HealthCheck::default(),
            &HealthCheck::default(),
        )
        .expect("in-process deployment converges");
    fib_snapshot(&fab.net)
}

/// The TCP arm: the fabric lives behind a loopback `AgentServer`; the
/// pipeline drives it through framed RPCs over a real socket.
fn deploy_over_tcp(spec: &FabricSpec, sim_seed: u64, chaos: Option<ChaosPlan>) -> FibSnapshot {
    let mut fab = centralium_bench::scenarios::converged_fabric(spec, sim_seed);
    fab.net.set_telemetry(Telemetry::new());
    let mgmt = ManagementPlane::compute(fab.net.topology(), fab.idx.rsw[0][0]);
    let mut agent = SwitchAgent::new(mgmt);
    if let Some(plan) = chaos {
        agent.set_retry_policy(chaos_retry_policy(plan.seed));
        fab.net.set_chaos(plan);
    }
    let server = AgentServer::bind("127.0.0.1:0", fab.net, agent).expect("bind agent server");
    let mut transport = TcpTransport::connect(&server.local_addr().to_string()).expect("connect");
    let mut nsdb = ReplicatedNsdb::new(2);
    let intent = equalize_backbone_paths(well_known::BACKBONE_DEFAULT_ROUTE, Layer::Backbone);
    deploy_intent_over(
        &mut nsdb,
        &mut transport,
        &intent,
        &DeployOptions::new(Layer::Backbone, DeploymentStrategy::SafeOrder),
        &HealthCheck::default(),
        &HealthCheck::default(),
    )
    .expect("TCP deployment converges");
    assert!(
        nsdb.get(&centralium_nsdb::Path::parse("/deploy/state"))
            .is_none(),
        "durable partial-wave record is cleared on success"
    );
    drop(transport);
    let (net, agent) = server.shutdown();
    assert!(
        agent.service.store.out_of_sync().is_empty(),
        "server-side agent ends in sync"
    );
    fib_snapshot(&net)
}

#[test]
fn tcp_deploy_lands_byte_identical_fibs() {
    let spec = FabricSpec::tiny();
    let local = deploy_in_process(&spec, 4101, None);
    let remote = deploy_over_tcp(&spec, 4101, None);
    assert_eq!(local, remote, "loopback TCP must not change a single FIB");
}

#[test]
fn tcp_topology_of_the_2k_tier_matches_the_served_one() {
    // The largest payload the service plane ships (864 KB of JSON) through
    // both of its JSON passes: printed by the server, parsed by the client.
    let (topo, idx, _) = build_three_tier(&ThreeTierSpec::ci_2k());
    let net = SimNet::new(topo, SimConfig::default());
    let served = serde_json::to_string(net.topology()).expect("serialize");
    let agent = SwitchAgent::new(ManagementPlane::compute(net.topology(), idx.rsw[0][0]));
    let server = AgentServer::bind("127.0.0.1:0", net, agent).expect("bind agent server");
    let mut transport = TcpTransport::connect(&server.local_addr().to_string()).expect("connect");
    let fetched = transport.topology().expect("topology RPC");
    let fetched = serde_json::to_string(fetched.as_ref()).expect("re-serialize");
    assert!(served == fetched, "topology changed across the socket");
    drop(transport);
    server.shutdown();
}

#[test]
fn tcp_deploy_matches_in_process_under_chaos_seeds() {
    // The CI seed set at 5% RPC loss: the retry machinery runs identically
    // whether its driver sits in-process or across a socket.
    let spec = FabricSpec::tiny();
    for seed in [7u64, 21, 1337] {
        let local = deploy_in_process(&spec, 4102, Some(ChaosPlan::with_rpc_loss(seed, 0.05)));
        let remote = deploy_over_tcp(&spec, 4102, Some(ChaosPlan::with_rpc_loss(seed, 0.05)));
        assert_eq!(local, remote, "seed {seed}: chaotic TCP deploy diverged");
    }
}
