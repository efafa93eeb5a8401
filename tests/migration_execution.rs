//! Execute staged `Migration` plans live against the emulator: the topology
//! deltas of `centralium-topology` translate into running-network operations
//! with full convergence between stages.

use centralium::apps::path_equalization::equalize_on_layers;
use centralium::switch_agent::IssuedOp;
use centralium::transport::{ControlTransport, InProcessTransport};
use centralium::{
    deploy_intent_over, remove_intent_over, Controller, DeployError, DeployOptions,
    DeploymentStrategy, Error, HealthCheck, HealthReport, RoutingIntent,
};
use centralium_bench::scenarios::{converged_fabric, ConvergedFabric};
use centralium_bgp::attrs::well_known;
use centralium_bgp::Prefix;
use centralium_nsdb::Path;
use centralium_rpa::RpaDocument;
use centralium_simnet::traffic::{route_flows, TrafficMatrix, DEFAULT_MAX_HOPS};
use centralium_simnet::{ConvergenceReport, SimNet, SimTime};
use centralium_telemetry::Telemetry;
use centralium_topology::{
    DeviceId, DeviceName, DeviceState, FabricSpec, Layer, Migration, MigrationCategory,
    MigrationStage, Topology, TopologyDelta,
};
use std::borrow::Cow;

#[test]
fn staged_expansion_migration_executes_live() {
    let mut fab = converged_fabric(&FabricSpec::tiny(), 3001);
    let new_name = DeviceName::new(Layer::Fauu, 0, 9);
    let migration = Migration::new(
        MigrationCategory::IncrementalCapacityScaling,
        "add a FAUU to grid 0",
    )
    .stage(MigrationStage::new(
        "commission the new FAUU",
        vec![TopologyDelta::AddDevice {
            name: new_name,
            asn: centralium_topology::Asn(59_999),
        }],
    ))
    .stage(MigrationStage::new(
        "cable it to grid-0 FADUs and the backbone",
        vec![
            TopologyDelta::AddLinkByName {
                a: new_name,
                b: DeviceName::new(Layer::Fadu, 0, 0),
                capacity_gbps: 100.0,
            },
            TopologyDelta::AddLinkByName {
                a: new_name,
                b: DeviceName::new(Layer::Fadu, 0, 1),
                capacity_gbps: 100.0,
            },
            TopologyDelta::AddLinkByName {
                a: new_name,
                b: DeviceName::new(Layer::Backbone, 0, 0),
                capacity_gbps: 100.0,
            },
            TopologyDelta::AddLinkByName {
                a: new_name,
                b: DeviceName::new(Layer::Backbone, 0, 1),
                capacity_gbps: 100.0,
            },
        ],
    ));
    assert_eq!(migration.critical_path_steps(), 2);
    let mut new_id = None;
    for stage in &migration.stages {
        let created = fab.net.apply_migration_stage(stage).expect("stage applies");
        if let Some(&id) = created.get(&new_name) {
            new_id = Some(id);
        }
        fab.net.run_until_quiescent().expect_converged();
    }
    let new_id = new_id.expect("device was created");
    // The new FAUU joined routing: it holds the default route from both EBs,
    // and grid-0 FADUs gained a third uplink.
    let entry = fab
        .net
        .device(new_id)
        .unwrap()
        .fib
        .entry(Prefix::DEFAULT)
        .unwrap();
    assert_eq!(entry.nexthops.len(), 2);
    for &fadu in &fab.idx.fadu[0] {
        let entry = fab
            .net
            .device(fadu)
            .unwrap()
            .fib
            .entry(Prefix::DEFAULT)
            .unwrap();
        assert_eq!(entry.nexthops.len(), 3, "FADU gained the new uplink");
    }
    centralium_simnet::assert_rib_consistent(&fab.net);
}

#[test]
fn staged_decommission_migration_executes_live() {
    let mut fab = converged_fabric(&FabricSpec::tiny(), 3002);
    let victim_fadus: Vec<_> = fab.idx.fadu.iter().map(|g| g[0]).collect();
    let victim_ssws: Vec<_> = fab.idx.ssw.iter().map(|p| p[0]).collect();
    let migration = Migration::new(
        MigrationCategory::TrafficDrainForMaintenance,
        "retire group 0",
    )
    .stage(MigrationStage::new(
        "drain the FADU-0s",
        victim_fadus
            .iter()
            .map(|&id| TopologyDelta::SetDeviceState {
                id,
                state: DeviceState::Drained,
            })
            .collect(),
    ))
    .stage(MigrationStage::new(
        "drain the SSW-0s",
        victim_ssws
            .iter()
            .map(|&id| TopologyDelta::SetDeviceState {
                id,
                state: DeviceState::Drained,
            })
            .collect(),
    ))
    .stage(MigrationStage::new(
        "physically remove the group",
        victim_fadus
            .iter()
            .chain(&victim_ssws)
            .map(|&id| TopologyDelta::RemoveDevice { id })
            .collect(),
    ));
    let sources: Vec<_> = fab.idx.rsw.iter().flatten().copied().collect();
    let tm = TrafficMatrix::uniform(&sources, Prefix::DEFAULT, 5.0);
    for stage in &migration.stages {
        fab.net.apply_migration_stage(stage).expect("stage applies");
        fab.net.run_until_quiescent().expect_converged();
        // Full delivery after every stage: the migration is hitless.
        let report = route_flows(&fab.net, &tm, DEFAULT_MAX_HOPS);
        assert!(
            (report.delivery_ratio(tm.total_gbps()) - 1.0).abs() < 1e-9,
            "stage '{}' lost traffic",
            stage.description
        );
    }
    for id in victim_fadus.iter().chain(&victim_ssws) {
        assert!(fab.net.device(*id).is_none());
    }
    centralium_simnet::assert_rib_consistent(&fab.net);
}

/// A transport whose controller "dies" at the first intent write of wave
/// `crash_wave` (1-based): that write fails with `Error::Io`, as a lost
/// management connection would, so nothing of the wave is issued and the
/// durable record still names it as the next wave.
struct CrashAtWave<T> {
    inner: T,
    crash_wave: usize,
    wave: usize,
    writing: bool,
}

impl<T: ControlTransport> CrashAtWave<T> {
    fn new(inner: T, crash_wave: usize) -> Self {
        CrashAtWave {
            inner,
            crash_wave,
            wave: 0,
            writing: false,
        }
    }

    /// An intent write: the first after a reconcile opens the next wave.
    fn write(&mut self) -> Result<(), Error> {
        if !self.writing {
            self.wave += 1;
            self.writing = true;
        }
        if self.wave == self.crash_wave {
            return Err(Error::Io {
                context: format!("intent write of wave {}", self.wave),
                source: std::io::Error::new(std::io::ErrorKind::ConnectionReset, "controller died"),
            });
        }
        Ok(())
    }
}

impl<T: ControlTransport> ControlTransport for CrashAtWave<T> {
    fn describe(&self) -> &'static str {
        "crash-at-wave"
    }
    fn telemetry(&self) -> Telemetry {
        self.inner.telemetry()
    }
    fn now(&mut self) -> Result<SimTime, Error> {
        self.inner.now()
    }
    fn run_until_quiescent(&mut self) -> Result<ConvergenceReport, Error> {
        self.inner.run_until_quiescent()
    }
    fn run_until(&mut self, deadline: SimTime) -> Result<u64, Error> {
        self.inner.run_until(deadline)
    }
    fn force_full_reconvergence(&mut self) -> Result<(), Error> {
        self.inner.force_full_reconvergence()
    }
    fn topology(&mut self) -> Result<Cow<'_, Topology>, Error> {
        self.inner.topology()
    }
    fn set_intended(&mut self, device: DeviceId, doc: &RpaDocument) -> Result<(), Error> {
        self.write()?;
        self.inner.set_intended(device, doc)
    }
    fn seed_intended(&mut self, path: &str, value: serde_json::Value) -> Result<(), Error> {
        self.inner.seed_intended(path, value)
    }
    fn clear_intended(&mut self, device: DeviceId, name: &str) -> Result<(), Error> {
        self.write()?;
        self.inner.clear_intended(device, name)
    }
    fn reconcile(&mut self) -> Result<Vec<IssuedOp>, Error> {
        self.writing = false;
        self.inner.reconcile()
    }
    fn poll_current(&mut self) -> Result<(), Error> {
        self.inner.poll_current()
    }
    fn poll_devices(&mut self, devices: &[DeviceId]) -> Result<(), Error> {
        self.inner.poll_devices(devices)
    }
    fn out_of_sync_paths(&mut self) -> Result<Vec<String>, Error> {
        self.inner.out_of_sync_paths()
    }
    fn next_retry_due(&mut self, now: SimTime) -> Result<Option<SimTime>, Error> {
        self.inner.next_retry_due(now)
    }
    fn health_check(&mut self, check: &HealthCheck) -> Result<HealthReport, Error> {
        self.inner.health_check(check)
    }
}

/// Equalize the backbone default route on three layers: one wave each.
fn three_layer_intent() -> RoutingIntent {
    equalize_on_layers(
        well_known::BACKBONE_DEFAULT_ROUTE,
        Layer::Backbone,
        vec![Layer::Fsw, Layer::Ssw, Layer::Fadu],
    )
}

fn safe_order() -> DeployOptions {
    DeployOptions::new(Layer::Backbone, DeploymentStrategy::SafeOrder)
}

/// A controller restarted after a crash: a fresh agent with empty in-memory
/// state, holding only the crashed one's durable NSDB.
fn restart(crashed: Controller, fab: &ConvergedFabric) -> Controller {
    let mut restarted = Controller::new(&fab.net, fab.idx.rsw[0][0]);
    restarted.nsdb = crashed.nsdb;
    restarted
}

fn assert_same_fibs(faulted: &SimNet, clean: &SimNet) {
    for id in faulted.device_ids() {
        let faulted_fib: Vec<_> = faulted.device(id).unwrap().fib.entries().collect();
        let clean_fib: Vec<_> = clean.device(id).unwrap().fib.entries().collect();
        assert_eq!(
            faulted_fib, clean_fib,
            "device d{} diverged after resume",
            id.0
        );
    }
    centralium_simnet::assert_rib_consistent(faulted);
}

/// DESIGN.md §8 failure model: a controller crash mid-deployment loses every
/// piece of in-memory state, but the durable partial-wave record in NSDB lets
/// a freshly restarted controller resume the remaining waves — and the fabric
/// ends up with exactly the FIBs of a fault-free run.
#[test]
fn controller_crash_mid_wave_resumes_and_matches_fault_free_fibs() {
    let intent = three_layer_intent();
    let check = HealthCheck::default();

    // Reference run: the same deployment with no fault.
    let mut clean = converged_fabric(&FabricSpec::tiny(), 3004);
    let mut reference = Controller::new(&clean.net, clean.idx.rsw[0][0]);
    reference
        .deploy_intent(
            &mut clean.net,
            &intent,
            Layer::Backbone,
            DeploymentStrategy::SafeOrder,
            &check,
            &check,
        )
        .expect("fault-free deployment succeeds");

    // Faulted run: the controller dies at wave 2 of 3, after the FSW wave
    // converged.
    let mut fab = converged_fabric(&FabricSpec::tiny(), 3004);
    let mut crashed = Controller::new(&fab.net, fab.idx.rsw[0][0]);
    let mut transport =
        CrashAtWave::new(InProcessTransport::new(&mut fab.net, &mut crashed.agent), 2);
    let err = deploy_intent_over(
        &mut crashed.nsdb,
        &mut transport,
        &intent,
        &safe_order(),
        &check,
        &check,
    )
    .unwrap_err();
    assert!(
        matches!(err, DeployError::Internal(Error::Io { .. })),
        "{err}"
    );
    for &d in fab.idx.ssw.iter().flatten() {
        assert!(
            fab.net.device(d).unwrap().engine.installed().is_empty(),
            "no SSW runs the document after the crash"
        );
    }

    let mut restarted = restart(crashed, &fab);
    let report = restarted
        .resume_deployment(&mut fab.net, &check)
        .expect("resume runs")
        .expect("a partial deployment was recorded");
    let resumed: Vec<Layer> = report.phases.iter().filter_map(|p| p.layer).collect();
    assert_eq!(resumed, vec![Layer::Ssw, Layer::Fadu], "waves 2..3 re-ran");
    assert!(report.post_health.passed());
    for &d in fab
        .idx
        .fsw
        .iter()
        .flatten()
        .chain(fab.idx.ssw.iter().flatten())
    {
        assert_eq!(
            fab.net.device(d).unwrap().engine.installed(),
            vec![intent.kind()]
        );
    }

    // Byte-for-byte FIB equivalence with the fault-free fabric.
    assert_same_fibs(&fab.net, &clean.net);
    assert!(restarted.nsdb.get(&Path::parse("/deploy/state")).is_none());
    // Idempotent: nothing further to resume.
    assert!(restarted
        .resume_deployment(&mut fab.net, &check)
        .expect("resume runs")
        .is_none());
}

/// The same crash during a removal: the resumed removal finishes the
/// remaining waves and forgets the intent, exactly as a straight one does.
#[test]
fn a_resumed_removal_forgets_its_intent() {
    let intent = three_layer_intent();
    let check = HealthCheck::default();
    let intent_path = Path::parse(&format!("/intents/{}", intent.kind()));
    let deployed = |seed| {
        let mut fab = converged_fabric(&FabricSpec::tiny(), seed);
        let mut controller = Controller::new(&fab.net, fab.idx.rsw[0][0]);
        controller
            .deploy_intent(
                &mut fab.net,
                &intent,
                Layer::Backbone,
                DeploymentStrategy::SafeOrder,
                &check,
                &check,
            )
            .expect("deploys");
        (fab, controller)
    };

    // Reference run: a straight removal.
    let (mut clean, mut reference) = deployed(3005);
    reference
        .remove_intent(
            &mut clean.net,
            &intent,
            Layer::Backbone,
            DeploymentStrategy::SafeOrder,
            &check,
        )
        .expect("straight removal succeeds");
    assert!(reference.nsdb.get(&intent_path).is_none());

    // Faulted run: the controller dies at wave 2 of 3 (SSW), after the FADU
    // wave dropped the document.
    let (mut fab, mut crashed) = deployed(3005);
    let mut transport =
        CrashAtWave::new(InProcessTransport::new(&mut fab.net, &mut crashed.agent), 2);
    let err = remove_intent_over(
        &mut crashed.nsdb,
        &mut transport,
        &intent,
        &safe_order(),
        &check,
    )
    .unwrap_err();
    assert!(
        matches!(err, DeployError::Internal(Error::Io { .. })),
        "{err}"
    );
    assert!(crashed.nsdb.get(&intent_path).is_some());

    let mut restarted = restart(crashed, &fab);
    let report = restarted
        .resume_deployment(&mut fab.net, &check)
        .expect("resume runs")
        .expect("a partial removal was recorded");
    let resumed: Vec<Layer> = report.phases.iter().filter_map(|p| p.layer).collect();
    assert_eq!(resumed, vec![Layer::Ssw, Layer::Fsw], "waves 2..3 re-ran");
    assert!(
        restarted.nsdb.get(&intent_path).is_none(),
        "intent forgotten"
    );
    assert!(restarted.nsdb.get(&Path::parse("/deploy/state")).is_none());
    assert_same_fibs(&fab.net, &clean.net);
    assert!(restarted
        .resume_deployment(&mut fab.net, &check)
        .expect("resume runs")
        .is_none());
}

#[test]
fn link_removal_reconverges() {
    let mut fab = converged_fabric(&FabricSpec::tiny(), 3003);
    let ssw = fab.idx.ssw[0][0];
    let (_, link) = fab.net.topology().uplinks(ssw)[0];
    let stage = MigrationStage::new(
        "de-cable one SSW uplink",
        vec![TopologyDelta::RemoveLink { id: link }],
    );
    fab.net.apply_migration_stage(&stage).expect("applies");
    fab.net.run_until_quiescent().expect_converged();
    let entry = fab
        .net
        .device(ssw)
        .unwrap()
        .fib
        .entry(Prefix::DEFAULT)
        .unwrap();
    assert_eq!(entry.nexthops.len(), 1, "one uplink left");
    centralium_simnet::assert_rib_consistent(&fab.net);
    // Unknown references error cleanly.
    let bad = MigrationStage::new("bad", vec![TopologyDelta::RemoveLink { id: link }]);
    assert!(fab.net.apply_migration_stage(&bad).is_err());
}
