//! The Centralium controller facade: health-checked, safely-sequenced intent
//! deployment over the emulated fabric.
//!
//! One pipeline runs every deployment, removal and resumption: plan
//! (compile, then order the waves), record, the waves with their
//! convergence barriers, the post-deployment health check. It is
//! transport-agnostic: [`deploy_intent_over`] / [`resume_deployment_over`] /
//! [`remove_intent_over`] drive whatever [`ControlTransport`] the caller
//! built — the in-process simulator, or a
//! [`TcpTransport`](crate::TcpTransport) to a remote agent. [`Controller`]
//! is the in-process caller: one method per operation over its own fabric.

use crate::compile::{compile_intent, CompileError};
use crate::health::{HealthCheck, HealthReport};
use crate::intent::RoutingIntent;
use crate::sequencer::{deployment_phases, removal_phases, DeploymentStrategy};
use crate::switch_agent::{IssuedOp, SwitchAgent};
use crate::transport::{ControlTransport, InProcessTransport};
use centralium_nsdb::{Path, ReplicatedNsdb};
use centralium_simnet::{ManagementPlane, SimNet, SimTime};
use centralium_telemetry::{EventKind, Severity};
use centralium_topology::{DeviceId, Layer};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// NSDB path of the durable partial-deployment record. Written before the
/// first wave, bumped after every converged wave, deleted on completion —
/// so a restarted controller can [`Controller::resume_deployment`] from
/// exactly the wave the crash interrupted.
const DEPLOY_STATE_PATH: &str = "/deploy/state";

/// Reconcile rounds (each with deadline-driven RPC retries) a wave may take
/// before it counts as stuck.
const MAX_WAVE_ROUNDS: u32 = 10;

/// Why a deployment did not happen.
#[derive(Debug)]
pub enum DeployError {
    /// Intent compilation failed.
    Compile(CompileError),
    /// The pre-deployment health check failed; nothing was deployed.
    PreCheckFailed(HealthReport),
    /// A phase failed to reach consistency within its retry budget: the
    /// intent stays published and the partial-wave record stays in NSDB, so
    /// the deployment holds until [`Controller::resume_deployment`] picks
    /// the wave back up.
    PhaseStuck {
        /// Zero-based index of the stuck phase.
        phase: usize,
    },
    /// An internal failure outside the deployment state machine — NSDB
    /// (de)serialization, agent I/O, the service plane — surfaced through
    /// the crate's unified [`Error`](crate::Error) type. The partial-wave
    /// record stays in NSDB.
    Internal(crate::Error),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::Compile(e) => write!(f, "compile error: {e}"),
            DeployError::PreCheckFailed(r) => {
                write!(f, "pre-deployment health check failed: {:?}", r.failures)
            }
            DeployError::PhaseStuck { phase } => {
                write!(f, "deployment phase {phase} failed to converge")
            }
            DeployError::Internal(e) => write!(f, "internal error: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

/// What a deployment (or removal) is ordered by.
#[derive(Debug, Clone)]
pub struct DeployOptions {
    /// Where the affected routes originate (drives the §5.3.2 safe order).
    pub origination_layer: Layer,
    /// Phase ordering (ablations pass `Unordered`/`InverseOrder`).
    pub strategy: DeploymentStrategy,
}

impl DeployOptions {
    /// Options for routes originated at `origination_layer`, ordered by
    /// `strategy`.
    pub fn new(origination_layer: Layer, strategy: DeploymentStrategy) -> Self {
        DeployOptions {
            origination_layer,
            strategy,
        }
    }
}

/// The durable partial-deployment record at [`DEPLOY_STATE_PATH`]. Carries
/// everything a freshly restarted controller needs to recompile the intent
/// and continue from `next_wave`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DeployState {
    intent: RoutingIntent,
    origination_layer: Layer,
    strategy: DeploymentStrategy,
    install: bool,
    total_waves: usize,
    next_wave: usize,
}

impl DeployState {
    /// The record of a run that has not started yet.
    fn fresh(intent: &RoutingIntent, opts: &DeployOptions, install: bool) -> Self {
        DeployState {
            intent: intent.clone(),
            origination_layer: opts.origination_layer,
            strategy: opts.strategy,
            install,
            total_waves: 0,
            next_wave: 0,
        }
    }
}

/// Per-phase deployment record.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Layer covered (None for unordered deployments).
    pub layer: Option<Layer>,
    /// Devices touched.
    pub devices: Vec<DeviceId>,
    /// Simulated time when the phase's RPCs were issued.
    pub issued_at: SimTime,
    /// Simulated time when the network reconverged after the phase.
    pub converged_at: SimTime,
}

/// Outcome of a deployment (or removal).
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    /// Wall-clock time spent generating the per-switch RPAs (§6.2's
    /// "< 200 ms for a full DC").
    pub generation_time: Duration,
    /// Per-phase records, in order.
    pub phases: Vec<PhaseReport>,
    /// Every issued RPC with its latency — the Figure 12 samples.
    pub issued_ops: Vec<IssuedOp>,
    /// Post-deployment health.
    pub post_health: HealthReport,
}

impl DeploymentReport {
    /// Total simulated duration from first issue to final convergence.
    pub fn sim_duration(&self) -> SimTime {
        match (self.phases.first(), self.phases.last()) {
            (Some(first), Some(last)) => last.converged_at.saturating_sub(first.issued_at),
            _ => 0,
        }
    }
}

/// The controller: NSDB (durability) + Switch Agent (I/O) + sequencing +
/// health checks, over an in-process fabric.
#[derive(Debug)]
pub struct Controller {
    /// Durable store for operator intents (two replicas, as in production).
    pub nsdb: ReplicatedNsdb,
    /// The I/O layer.
    pub agent: SwitchAgent,
}

impl Controller {
    /// Create a controller attached to the management plane at `root`.
    pub fn new(net: &SimNet, root: DeviceId) -> Self {
        let mgmt = ManagementPlane::compute(net.topology(), root);
        Controller {
            nsdb: ReplicatedNsdb::new(2),
            agent: SwitchAgent::new(mgmt),
        }
    }

    /// Recompute the management plane after topology changes.
    pub(crate) fn refresh_mgmt(&mut self, net: &SimNet) {
        let root = self.agent.mgmt().root();
        self.agent
            .set_mgmt(ManagementPlane::compute(net.topology(), root));
    }

    /// Deploy an intent end-to-end: pre-check → compile → record in NSDB →
    /// phased deployment with convergence barriers → post-check.
    ///
    /// `origination_layer` is where the affected routes originate (drives
    /// the §5.3.2 safe order); `strategy` selects the ordering (ablations
    /// pass `Unordered`/`InverseOrder`).
    pub fn deploy_intent(
        &mut self,
        net: &mut SimNet,
        intent: &RoutingIntent,
        origination_layer: Layer,
        strategy: DeploymentStrategy,
        pre: &HealthCheck,
        post: &HealthCheck,
    ) -> Result<DeploymentReport, DeployError> {
        let Controller { nsdb, agent } = self;
        let mut transport = InProcessTransport::new(net, agent);
        let opts = DeployOptions::new(origination_layer, strategy);
        deploy_intent_over(nsdb, &mut transport, intent, &opts, pre, post)
    }

    /// Continue a deployment or removal whose controller died mid-wave.
    ///
    /// Reads the durable partial-wave record, polls ground truth (a restarted
    /// controller has no in-memory current state), rebuilds intended state
    /// from the per-device NSDB records, recompiles the intent, and re-runs
    /// the remaining waves. Returns `Ok(None)` when nothing was in flight.
    pub fn resume_deployment(
        &mut self,
        net: &mut SimNet,
        post: &HealthCheck,
    ) -> Result<Option<DeploymentReport>, DeployError> {
        let Controller { nsdb, agent } = self;
        let mut transport = InProcessTransport::new(net, agent);
        resume_deployment_over(nsdb, &mut transport, post)
    }

    /// Remove a previously deployed intent, in the mirror-safe order.
    pub fn remove_intent(
        &mut self,
        net: &mut SimNet,
        intent: &RoutingIntent,
        origination_layer: Layer,
        strategy: DeploymentStrategy,
        post: &HealthCheck,
    ) -> Result<DeploymentReport, DeployError> {
        let Controller { nsdb, agent } = self;
        let mut transport = InProcessTransport::new(net, agent);
        let opts = DeployOptions::new(origination_layer, strategy);
        remove_intent_over(nsdb, &mut transport, intent, &opts, post)
    }
}

/// Deploy an intent over any [`ControlTransport`]: pre-check → compile →
/// record in NSDB → phased deployment with convergence barriers →
/// post-check.
pub fn deploy_intent_over<T: ControlTransport>(
    nsdb: &mut ReplicatedNsdb,
    transport: &mut T,
    intent: &RoutingIntent,
    opts: &DeployOptions,
    pre: &HealthCheck,
    post: &HealthCheck,
) -> Result<DeploymentReport, DeployError> {
    let state = DeployState::fresh(intent, opts, true);
    run_pipeline(nsdb, transport, state, Entry::Deploy(pre), post)
}

/// Remove a previously deployed intent over any [`ControlTransport`], in
/// the mirror-safe order. See [`Controller::remove_intent`].
pub fn remove_intent_over<T: ControlTransport>(
    nsdb: &mut ReplicatedNsdb,
    transport: &mut T,
    intent: &RoutingIntent,
    opts: &DeployOptions,
    post: &HealthCheck,
) -> Result<DeploymentReport, DeployError> {
    let state = DeployState::fresh(intent, opts, false);
    run_pipeline(nsdb, transport, state, Entry::Remove, post)
}

/// Continue a deployment or removal whose controller died mid-wave, over
/// any [`ControlTransport`]. See [`Controller::resume_deployment`].
pub fn resume_deployment_over<T: ControlTransport>(
    nsdb: &mut ReplicatedNsdb,
    transport: &mut T,
    post: &HealthCheck,
) -> Result<Option<DeploymentReport>, DeployError> {
    let Some(value) = nsdb.get(&Path::parse(DEPLOY_STATE_PATH)) else {
        return Ok(None);
    };
    let state: DeployState = serde_json::from_value(value).map_err(|e| {
        DeployError::Internal(crate::Error::NsdbDecode {
            record: DEPLOY_STATE_PATH.to_string(),
            source: e,
        })
    })?;
    // Ground truth first; then intended state from the durable records
    // (exactly the waves published before the crash), so continuous
    // reconciliation also repairs any straggler from the interrupted wave.
    transport.poll_current().map_err(DeployError::Internal)?;
    for (path, value) in nsdb.get_matching(&Path::parse("/devices/*/rpa/*")) {
        transport
            .seed_intended(&path.to_string(), value)
            .map_err(DeployError::Internal)?;
    }
    run_pipeline(nsdb, transport, state, Entry::Resume, post).map(Some)
}

/// How a pipeline run begins.
enum Entry<'a> {
    /// A new deployment, gated by this pre-check.
    Deploy(&'a HealthCheck),
    /// A new removal.
    Remove,
    /// A run continued from its durable record.
    Resume,
}

/// The pipeline: pre-check (fresh deploys) → plan → intent and state
/// records (fresh runs) → waves → forget the intent (removals) → health.
fn run_pipeline<T: ControlTransport>(
    nsdb: &mut ReplicatedNsdb,
    transport: &mut T,
    mut state: DeployState,
    entry: Entry<'_>,
    post: &HealthCheck,
) -> Result<DeploymentReport, DeployError> {
    let tel = transport.telemetry();
    if let Entry::Deploy(pre) = entry {
        let pre_span = tel.phase("preverify", now_of(transport)?);
        let pre_report = transport.health_check(pre).map_err(DeployError::Internal)?;
        pre_span.finish(now_of(transport)?);
        if !pre_report.passed() {
            return Err(DeployError::PreCheckFailed(pre_report));
        }
    }
    let plan_span = tel.phase("plan", now_of(transport)?);
    let started = std::time::Instant::now();
    let phases = {
        let topo = transport.topology().map_err(DeployError::Internal)?;
        let docs = compile_intent(&topo, &state.intent).map_err(DeployError::Compile)?;
        let order = if state.install {
            deployment_phases
        } else {
            removal_phases
        };
        order(&topo, docs, state.origination_layer, state.strategy)
    };
    let generation_time = started.elapsed();
    plan_span.finish(now_of(transport)?);
    let intent_path = format!("/intents/{}", state.intent.kind());
    if !matches!(entry, Entry::Resume) {
        if state.install {
            let intent_value = serde_json::to_value(&state.intent).map_err(|e| {
                DeployError::Internal(crate::Error::NsdbEncode {
                    record: intent_path.clone(),
                    source: e,
                })
            })?;
            nsdb.publish(Path::parse(&intent_path), intent_value);
        }
        state.total_waves = phases.len();
        publish_deploy_state(nsdb, &state).map_err(DeployError::Internal)?;
    }

    let mut reports = Vec::with_capacity(phases.len());
    let mut issued_ops = Vec::new();
    let start_wave = state.next_wave.min(phases.len());
    // Each round polls ground truth only from the devices the deployment has
    // touched so far (cumulative across waves, so a straggler from an
    // earlier wave is still observed).
    let mut polled_devices: Vec<DeviceId> = phases[..start_wave]
        .iter()
        .flat_map(|p| p.installs.iter().map(|(d, _)| *d))
        .collect();
    for (i, phase) in phases.iter().enumerate().skip(start_wave) {
        let issued_at = now_of(transport)?;
        let wave_label = match phase.layer {
            Some(layer) => format!("wave {} ({layer:?})", i + 1),
            None => format!("wave {}", i + 1),
        };
        let wave_span = tel.phase(wave_label, issued_at);
        let devices: Vec<DeviceId> = phase.installs.iter().map(|(d, _)| *d).collect();
        polled_devices.extend(devices.iter().copied());
        for (dev, doc) in &phase.installs {
            let path_str = format!("/devices/d{}/rpa/{}", dev.0, doc.name());
            let nsdb_path = Path::parse(&path_str);
            if state.install {
                transport
                    .set_intended(*dev, doc)
                    .map_err(DeployError::Internal)?;
                // Durability: per-device desired state fans out to every
                // NSDB replica (§5.2's write path).
                let value = serde_json::to_value(doc).map_err(|e| {
                    DeployError::Internal(crate::Error::NsdbEncode {
                        record: path_str,
                        source: e,
                    })
                })?;
                nsdb.publish(nsdb_path, value);
            } else {
                transport
                    .clear_intended(*dev, doc.name())
                    .map_err(DeployError::Internal)?;
                nsdb.delete(&nsdb_path);
            }
        }
        if !converge_wave(transport, &devices, &polled_devices, &mut issued_ops)? {
            // Hold: the intent and the partial-wave record stay published.
            return Err(DeployError::PhaseStuck { phase: i });
        }
        let converged_at = now_of(transport)?;
        wave_span.finish(converged_at);
        if tel.journal_enabled() {
            let mut ev = tel
                .event(EventKind::SequencerWave, Severity::Info)
                .field("wave", i + 1)
                .field("devices", devices.len())
                .field("install", state.install)
                .field("issued_at_us", issued_at)
                .field("converged_at_us", converged_at);
            if let Some(layer) = phase.layer {
                ev = ev.field("layer", format!("{layer:?}"));
            }
            tel.record(ev);
        }
        reports.push(PhaseReport {
            layer: phase.layer,
            devices,
            issued_at,
            converged_at,
        });
        state.next_wave = i + 1;
        publish_deploy_state(nsdb, &state).map_err(DeployError::Internal)?;
    }
    nsdb.delete(&Path::parse(DEPLOY_STATE_PATH));
    if !state.install {
        // Only drop the durable record once the fleet no longer runs the
        // RPAs — a stuck removal must leave the intent recorded.
        nsdb.delete(&Path::parse(&intent_path));
    }

    let health_span = tel.phase("health", now_of(transport)?);
    let post_health = transport
        .health_check(post)
        .map_err(DeployError::Internal)?;
    health_span.finish(now_of(transport)?);
    Ok(DeploymentReport {
        generation_time,
        phases: reports,
        issued_ops,
        post_health,
    })
}

/// The convergence barrier of one wave, with a retry budget: "every layer
/// must receive the new RPA after all their downstream peers have picked
/// up" (§5.3.2). Each round issues deadline-carrying RPCs; between rounds
/// simulated time advances to the earliest retry deadline (or
/// circuit-breaker reopen) so lost RPCs get re-issued with backoff. Returns
/// whether every device of the wave reached its intended state.
fn converge_wave<T: ControlTransport>(
    transport: &mut T,
    devices: &[DeviceId],
    polled_devices: &[DeviceId],
    issued_ops: &mut Vec<IssuedOp>,
) -> Result<bool, DeployError> {
    let mut idle_rounds = 0u32;
    for _round in 0..MAX_WAVE_ROUNDS {
        let ops = transport.reconcile().map_err(DeployError::Internal)?;
        let issued_any = !ops.is_empty();
        issued_ops.extend(ops.iter().copied());
        if !transport
            .run_until_quiescent()
            .map_err(DeployError::Internal)?
            .converged
        {
            return Ok(false);
        }
        transport
            .poll_devices(polled_devices)
            .map_err(DeployError::Internal)?;
        let out_of_sync = transport
            .out_of_sync_paths()
            .map_err(DeployError::Internal)?;
        let wave_diverged = out_of_sync.iter().any(|p| {
            devices
                .iter()
                .any(|d| p.starts_with(&format!("/devices/d{}/", d.0)))
        });
        if !wave_diverged {
            return Ok(true);
        }
        let now = now_of(transport)?;
        match transport
            .next_retry_due(now)
            .map_err(DeployError::Internal)?
        {
            Some(due) => {
                transport.run_until(due).map_err(DeployError::Internal)?;
                idle_rounds = 0;
            }
            // No deadline pending right after a budget-exhaustion round
            // is normal (the next round starts a fresh burst); two
            // consecutive idle rounds means nothing can issue at all
            // (e.g. an unreachable device).
            None if !issued_any => {
                idle_rounds += 1;
                if idle_rounds >= 2 {
                    return Ok(false);
                }
            }
            None => idle_rounds = 0,
        }
    }
    Ok(false)
}

fn now_of<T: ControlTransport>(transport: &mut T) -> Result<SimTime, DeployError> {
    transport.now().map_err(DeployError::Internal)
}

fn publish_deploy_state(
    nsdb: &mut ReplicatedNsdb,
    state: &DeployState,
) -> Result<(), crate::Error> {
    let value = serde_json::to_value(state).map_err(|e| crate::Error::NsdbEncode {
        record: DEPLOY_STATE_PATH.to_string(),
        source: e,
    })?;
    nsdb.publish(Path::parse(DEPLOY_STATE_PATH), value);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::TargetSet;
    use centralium_bgp::attrs::well_known;
    use centralium_bgp::Prefix;
    use centralium_simnet::SimConfig;
    use centralium_topology::{build_fabric, FabricSpec};

    fn fabric() -> (SimNet, centralium_topology::builder::FabricIndex) {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let mut net = SimNet::new(topo, SimConfig::default());
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        (net, idx)
    }

    fn equalize(targets: TargetSet) -> RoutingIntent {
        RoutingIntent::EqualizePaths {
            destination: well_known::BACKBONE_DEFAULT_ROUTE,
            origin_layer: Layer::Backbone,
            targets,
        }
    }

    #[test]
    fn end_to_end_deployment_installs_in_safe_order() {
        let (mut net, idx) = fabric();
        let mut controller = Controller::new(&net, idx.rsw[0][0]);
        let intent = equalize(TargetSet::Layers(vec![Layer::Fsw, Layer::Ssw, Layer::Fadu]));
        let report = controller
            .deploy_intent(
                &mut net,
                &intent,
                Layer::Backbone,
                DeploymentStrategy::SafeOrder,
                &HealthCheck::default(),
                &HealthCheck::default(),
            )
            .unwrap();
        // Phases bottom-up: FSW, SSW, FADU.
        let order: Vec<Layer> = report.phases.iter().filter_map(|p| p.layer).collect();
        assert_eq!(order, vec![Layer::Fsw, Layer::Ssw, Layer::Fadu]);
        // Phases are time-ordered with barriers.
        for pair in report.phases.windows(2) {
            assert!(pair[1].issued_at >= pair[0].converged_at);
        }
        // Every targeted switch runs the RPA.
        for &d in idx.fsw.iter().flatten().chain(idx.ssw.iter().flatten()) {
            assert_eq!(
                net.device(d).unwrap().engine.installed(),
                vec!["equalize-paths"]
            );
        }
        assert_eq!(report.issued_ops.len(), 12);
        assert!(report.post_health.passed());
        assert!(
            report.generation_time.as_millis() < 200,
            "§6.2 generation budget"
        );
    }

    #[test]
    fn removal_runs_in_mirror_order() {
        let (mut net, idx) = fabric();
        let mut controller = Controller::new(&net, idx.rsw[0][0]);
        let intent = equalize(TargetSet::Layers(vec![Layer::Fsw, Layer::Ssw]));
        controller
            .deploy_intent(
                &mut net,
                &intent,
                Layer::Backbone,
                DeploymentStrategy::SafeOrder,
                &HealthCheck::default(),
                &HealthCheck::default(),
            )
            .unwrap();
        let report = controller
            .remove_intent(
                &mut net,
                &intent,
                Layer::Backbone,
                DeploymentStrategy::SafeOrder,
                &HealthCheck::default(),
            )
            .unwrap();
        let order: Vec<Layer> = report.phases.iter().filter_map(|p| p.layer).collect();
        assert_eq!(
            order,
            vec![Layer::Ssw, Layer::Fsw],
            "closest to origination first"
        );
        for &d in idx.ssw.iter().flatten() {
            assert!(net.device(d).unwrap().engine.installed().is_empty());
        }
    }

    #[test]
    fn failed_precheck_blocks_deployment() {
        let (mut net, idx) = fabric();
        let mut controller = Controller::new(&net, idx.rsw[0][0]);
        let intent = equalize(TargetSet::Layer(Layer::Ssw));
        let impossible = HealthCheck {
            min_nexthops: vec![(idx.ssw[0][0], Prefix::DEFAULT, 99)],
            ..Default::default()
        };
        let err = controller
            .deploy_intent(
                &mut net,
                &intent,
                Layer::Backbone,
                DeploymentStrategy::SafeOrder,
                &impossible,
                &HealthCheck::default(),
            )
            .unwrap_err();
        assert!(matches!(err, DeployError::PreCheckFailed(_)));
        // Nothing deployed.
        for &d in idx.ssw.iter().flatten() {
            assert!(net.device(d).unwrap().engine.installed().is_empty());
        }
    }

    #[test]
    fn nsdb_replica_failure_mid_deployment_is_transparent() {
        let (mut net, idx) = fabric();
        let mut controller = Controller::new(&net, idx.rsw[0][0]);
        // Kill the NSDB leader before deploying: writes keep fanning out to
        // the survivor, reads fail over, the deployment is unaffected.
        controller.nsdb.fail_replica(0);
        let intent = equalize(TargetSet::Layer(Layer::Ssw));
        controller
            .deploy_intent(
                &mut net,
                &intent,
                Layer::Backbone,
                DeploymentStrategy::SafeOrder,
                &HealthCheck::default(),
                &HealthCheck::default(),
            )
            .unwrap();
        let ssw = idx.ssw[0][0];
        assert_eq!(
            net.device(ssw).unwrap().engine.installed(),
            vec!["equalize-paths"]
        );
        // Reads come from the surviving replica.
        let doc_path = Path::parse(&format!("/devices/d{}/rpa/equalize-paths", ssw.0));
        assert!(controller.nsdb.get(&doc_path).is_some());
        // Recovery re-syncs the dead replica from the leader.
        controller.nsdb.recover_replica(0);
        assert!(controller.nsdb.is_consistent());
    }

    #[test]
    fn chaos_losses_are_absorbed_by_wave_retries() {
        use centralium_simnet::ChaosPlan;
        // Reference run: no chaos.
        let (mut clean_net, idx) = fabric();
        let mut clean = Controller::new(&clean_net, idx.rsw[0][0]);
        let intent = equalize(TargetSet::Layers(vec![Layer::Fsw, Layer::Ssw]));
        clean
            .deploy_intent(
                &mut clean_net,
                &intent,
                Layer::Backbone,
                DeploymentStrategy::SafeOrder,
                &HealthCheck::default(),
                &HealthCheck::default(),
            )
            .unwrap();
        // Lossy run: 40% of RPCs dropped; deadline-driven retries absorb it.
        let (mut net, idx) = fabric();
        net.set_telemetry(centralium_telemetry::Telemetry::with_journal(4096));
        net.set_chaos(ChaosPlan::with_rpc_loss(7, 0.4));
        let mut controller = Controller::new(&net, idx.rsw[0][0]);
        controller
            .deploy_intent(
                &mut net,
                &intent,
                Layer::Backbone,
                DeploymentStrategy::SafeOrder,
                &HealthCheck::default(),
                &HealthCheck::default(),
            )
            .expect("retries converge the deployment despite drops");
        let snap = net.telemetry().metrics().snapshot();
        let dropped = snap.counter("simnet.rpc_dropped");
        assert!(dropped > 0, "seed 7 @ 40% must drop something");
        assert!(
            snap.counter("core.rpc_retries") >= dropped,
            "every dropped RPC is eventually re-issued"
        );
        // The lossy fleet ends up running exactly what the clean one runs.
        for &d in idx.fsw.iter().flatten().chain(idx.ssw.iter().flatten()) {
            assert_eq!(
                net.device(d).unwrap().engine.installed(),
                clean_net.device(d).unwrap().engine.installed(),
            );
        }
        assert!(controller.nsdb.get(&Path::parse("/deploy/state")).is_none());
    }

    #[test]
    fn wedged_wave_holds_with_its_records_in_nsdb() {
        use centralium_simnet::ChaosPlan;
        let (mut net, idx) = fabric();
        // Total loss: no wave can ever converge.
        net.set_chaos(ChaosPlan::with_rpc_loss(7, 1.0));
        let mut controller = Controller::new(&net, idx.rsw[0][0]);
        controller
            .agent
            .set_retry_policy(crate::retry::RetryPolicy {
                max_retries: 2,
                base_backoff_us: 5_000,
                max_backoff_us: 20_000,
                jitter_seed: 7,
            });
        let intent = equalize(TargetSet::Layers(vec![Layer::Fsw, Layer::Ssw]));
        let err = controller
            .deploy_intent(
                &mut net,
                &intent,
                Layer::Backbone,
                DeploymentStrategy::SafeOrder,
                &HealthCheck::default(),
                &HealthCheck::default(),
            )
            .unwrap_err();
        assert!(
            matches!(err, DeployError::PhaseStuck { phase: 0 }),
            "the first wave (FSW) wedges, got {err}"
        );
        // Hold and page: nothing was issued past the stuck wave, and the
        // intent and the partial-wave record stay for a later resume.
        for &d in idx.ssw.iter().flatten() {
            assert!(net.device(d).unwrap().engine.installed().is_empty());
        }
        assert!(controller
            .nsdb
            .get(&Path::parse("/intents/equalize-paths"))
            .is_some());
        assert!(controller.nsdb.get(&Path::parse("/deploy/state")).is_some());
    }

    #[test]
    fn intents_are_recorded_in_nsdb() {
        let (mut net, idx) = fabric();
        let mut controller = Controller::new(&net, idx.rsw[0][0]);
        let intent = equalize(TargetSet::Layer(Layer::Ssw));
        controller
            .deploy_intent(
                &mut net,
                &intent,
                Layer::Backbone,
                DeploymentStrategy::SafeOrder,
                &HealthCheck::default(),
                &HealthCheck::default(),
            )
            .unwrap();
        assert!(controller
            .nsdb
            .get(&Path::parse("/intents/equalize-paths"))
            .is_some());
        controller
            .remove_intent(
                &mut net,
                &intent,
                Layer::Backbone,
                DeploymentStrategy::SafeOrder,
                &HealthCheck::default(),
            )
            .unwrap();
        assert!(controller
            .nsdb
            .get(&Path::parse("/intents/equalize-paths"))
            .is_none());
    }
}
