//! The Centralium controller facade: health-checked, safely-sequenced intent
//! deployment over the emulated fabric.
//!
//! The deployment pipeline itself is transport-agnostic: the generic
//! [`deploy_intent_over`] / [`resume_deployment_over`] / [`remove_intent_over`]
//! functions drive any [`ControlTransport`] — the in-process simulator, or a
//! remote agent over TCP. [`Controller`]'s methods are thin wrappers that
//! select the transport from [`DeployOptions::transport`].

use crate::compile::{compile_intent, CompileError};
use crate::health::{HealthCheck, HealthReport};
use crate::intent::RoutingIntent;
use crate::sequencer::{
    deployment_phases, removal_phases, DeploymentPhase, DeploymentStrategy, WaveFailurePolicy,
};
use crate::switch_agent::{IssuedOp, SwitchAgent};
use crate::transport::{ControlTransport, InProcessTransport, TcpTransport, TransportKind};
use centralium_nsdb::{Path, ReplicatedNsdb};
use centralium_simnet::{ManagementPlane, SimNet, SimTime};
use centralium_telemetry::{EventKind, Severity};
use centralium_topology::{DeviceId, Layer};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// NSDB path of the durable partial-deployment record. Written before the
/// first wave, bumped after every converged wave, deleted on completion (or
/// rollback) — so a restarted controller can [`Controller::resume_deployment`]
/// from exactly the wave the crash interrupted.
const DEPLOY_STATE_PATH: &str = "/deploy/state";

/// Why a deployment did not happen.
#[derive(Debug)]
pub enum DeployError {
    /// Intent compilation failed.
    Compile(CompileError),
    /// The pre-deployment health check failed; nothing was deployed.
    PreCheckFailed(HealthReport),
    /// A phase failed to reach consistency within its retry budget and the
    /// wave policy is [`WaveFailurePolicy::HoldAndRetry`]: the intent stays
    /// published and the partial-wave record stays in NSDB for resumption.
    PhaseStuck {
        /// Zero-based index of the stuck phase.
        phase: usize,
    },
    /// A wave failed under [`WaveFailurePolicy::Rollback`]: the wave's RPAs
    /// (and those of every previously converged wave) were uninstalled in
    /// reverse topology order.
    WaveRolledBack {
        /// Zero-based index of the failed wave.
        wave: usize,
        /// Health of the network after the rollback completed.
        post_health: HealthReport,
    },
    /// The controller halted after [`DeployOptions::halt_after_waves`]
    /// converged waves (a simulated crash): the partial-wave record remains
    /// in NSDB and the deployment resumes via
    /// [`Controller::resume_deployment`].
    Halted {
        /// Number of waves that converged before the halt.
        completed_waves: usize,
    },
    /// An internal failure outside the deployment state machine — NSDB
    /// (de)serialization, agent I/O, the service plane — surfaced through
    /// the crate's unified [`Error`](crate::Error) type.
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
            DeployError::WaveRolledBack { wave, .. } => {
                write!(f, "deployment wave {wave} failed and was rolled back")
            }
            DeployError::Halted { completed_waves } => {
                write!(f, "controller halted after {completed_waves} waves")
            }
            DeployError::Internal(e) => write!(f, "internal error: {e}"),
        }
    }
}

impl std::error::Error for DeployError {}

/// Knobs for a single deployment (or removal). [`Controller::deploy_intent`]
/// uses the defaults; resilience tests and the chaos harness reach for
/// [`Controller::deploy_intent_with`].
///
/// Construct via [`DeployOptions::new`] plus field mutation, or fluently via
/// [`DeployOptions::builder`]. `#[non_exhaustive]` keeps future knob
/// additions backwards-compatible for out-of-crate callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DeployOptions {
    /// Where the affected routes originate (drives the §5.3.2 safe order).
    pub origination_layer: Layer,
    /// Phase ordering (ablations pass `Unordered`/`InverseOrder`).
    pub strategy: DeploymentStrategy,
    /// What to do with a wave that exhausts its retry budget.
    pub wave_policy: WaveFailurePolicy,
    /// Reconcile rounds (each with deadline-driven RPC retries) a wave may
    /// take before it counts as failed. Clamped to at least 1.
    pub max_wave_rounds: u32,
    /// Testing hook: stop — as if the controller process died — once this
    /// many waves have converged, leaving the partial-wave record in NSDB.
    pub halt_after_waves: Option<usize>,
    /// How the controller reaches the switch-agent service plane:
    /// in-process (default) or RPCs to a TCP `AgentServer`.
    pub transport: TransportKind,
}

impl DeployOptions {
    /// Defaults: hold-and-retry with a 10-round wave budget, in-process
    /// transport.
    pub fn new(origination_layer: Layer, strategy: DeploymentStrategy) -> Self {
        DeployOptions {
            origination_layer,
            strategy,
            wave_policy: WaveFailurePolicy::HoldAndRetry,
            max_wave_rounds: 10,
            halt_after_waves: None,
            transport: TransportKind::InProcess,
        }
    }

    /// Start a fluent builder seeded with [`DeployOptions::new`]'s defaults.
    pub fn builder(origination_layer: Layer, strategy: DeploymentStrategy) -> DeployOptionsBuilder {
        DeployOptionsBuilder {
            opts: DeployOptions::new(origination_layer, strategy),
        }
    }
}

/// Fluent builder for [`DeployOptions`]; see [`DeployOptions::builder`].
#[derive(Debug, Clone)]
pub struct DeployOptionsBuilder {
    opts: DeployOptions,
}

impl DeployOptionsBuilder {
    /// Reconcile rounds a wave may take before it counts as failed.
    pub fn max_wave_rounds(mut self, rounds: u32) -> Self {
        self.opts.max_wave_rounds = rounds;
        self
    }

    /// Simulate a controller crash after this many converged waves.
    pub fn halt_after_waves(mut self, waves: usize) -> Self {
        self.opts.halt_after_waves = Some(waves);
        self
    }

    /// Select the service-plane transport (see [`TransportKind`]).
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.opts.transport = kind;
        self
    }

    /// Finish, yielding the configured [`DeployOptions`].
    pub fn build(self) -> DeployOptions {
        self.opts
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
    wave_policy: WaveFailurePolicy,
    max_wave_rounds: u32,
    install: bool,
    total_waves: usize,
    next_wave: usize,
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
/// health checks.
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
        self.deploy_intent_with(
            net,
            intent,
            &DeployOptions::new(origination_layer, strategy),
            pre,
            post,
        )
    }

    /// [`Controller::deploy_intent`] with explicit failure-handling knobs:
    /// wave policy (hold vs rollback), retry budget, the crash-simulation
    /// halt used by the resume tests, and the service-plane transport.
    ///
    /// With [`TransportKind::Tcp`] the local `net`/`agent` pair is unused:
    /// the fabric lives behind the remote
    /// [`AgentServer`](crate::serve::AgentServer) and every operation becomes
    /// an RPC, while the controller's phases, journal events and counters
    /// still record into `net`'s telemetry handle.
    pub fn deploy_intent_with(
        &mut self,
        net: &mut SimNet,
        intent: &RoutingIntent,
        opts: &DeployOptions,
        pre: &HealthCheck,
        post: &HealthCheck,
    ) -> Result<DeploymentReport, DeployError> {
        match &opts.transport {
            TransportKind::InProcess => {
                let Controller { nsdb, agent } = self;
                let mut transport = InProcessTransport::new(net, agent);
                deploy_intent_over(nsdb, &mut transport, intent, opts, pre, post)
            }
            TransportKind::Tcp { addr } => {
                let mut transport = TcpTransport::connect(addr).map_err(DeployError::Internal)?;
                transport.set_telemetry(net.telemetry().clone());
                deploy_intent_over(&mut self.nsdb, &mut transport, intent, opts, pre, post)
            }
        }
    }

    /// Continue a deployment whose controller died mid-wave.
    ///
    /// Reads the durable partial-wave record, polls ground truth (a restarted
    /// controller has no in-memory current state), rebuilds intended state
    /// from the per-device NSDB records, recompiles the intent, and re-runs
    /// the remaining waves. Returns `Ok(None)` when no deployment was in
    /// flight.
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
        remove_intent_over(
            nsdb,
            &mut transport,
            intent,
            &DeployOptions::new(origination_layer, strategy),
            post,
        )
    }
}

/// Deploy an intent over any [`ControlTransport`]: pre-check → compile →
/// record in NSDB → phased deployment with convergence barriers →
/// post-check. [`Controller::deploy_intent_with`] delegates here.
pub fn deploy_intent_over<T: ControlTransport>(
    nsdb: &mut ReplicatedNsdb,
    transport: &mut T,
    intent: &RoutingIntent,
    opts: &DeployOptions,
    pre: &HealthCheck,
    post: &HealthCheck,
) -> Result<DeploymentReport, DeployError> {
    let tel = transport.telemetry();
    let pre_span = tel.phase("preverify", now_of(transport)?);
    let pre_report = transport.health_check(pre).map_err(DeployError::Internal)?;
    pre_span.finish(now_of(transport)?);
    if !pre_report.passed() {
        return Err(DeployError::PreCheckFailed(pre_report));
    }
    let plan_span = tel.phase("plan", now_of(transport)?);
    let started = std::time::Instant::now();
    let phases = {
        let topo = transport.topology().map_err(DeployError::Internal)?;
        let docs = compile_intent(&topo, intent).map_err(DeployError::Compile)?;
        deployment_phases(&topo, docs, opts.origination_layer, opts.strategy)
    };
    let generation_time = started.elapsed();
    plan_span.finish(now_of(transport)?);
    let intent_path = format!("/intents/{}", intent.kind());
    let intent_value = serde_json::to_value(intent).map_err(|e| {
        DeployError::Internal(crate::Error::NsdbEncode {
            record: intent_path.clone(),
            source: e,
        })
    })?;
    nsdb.publish(Path::parse(&intent_path), intent_value);
    let state = DeployState {
        intent: intent.clone(),
        origination_layer: opts.origination_layer,
        strategy: opts.strategy,
        wave_policy: opts.wave_policy,
        max_wave_rounds: opts.max_wave_rounds,
        install: true,
        total_waves: phases.len(),
        next_wave: 0,
    };
    publish_deploy_state(nsdb, &state).map_err(DeployError::Internal)?;
    let (phase_reports, issued_ops) =
        run_phases_over(nsdb, transport, phases, true, opts, post, state)?;
    let health_span = tel.phase("health", now_of(transport)?);
    let post_health = transport
        .health_check(post)
        .map_err(DeployError::Internal)?;
    health_span.finish(now_of(transport)?);
    Ok(DeploymentReport {
        generation_time,
        phases: phase_reports,
        issued_ops,
        post_health,
    })
}

/// Continue a deployment whose controller died mid-wave, over any
/// [`ControlTransport`]. See [`Controller::resume_deployment`].
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
    let tel = transport.telemetry();
    // Ground truth first; then intended state from the durable records
    // (exactly the waves published before the crash), so continuous
    // reconciliation also repairs any straggler from the interrupted wave.
    transport.poll_current().map_err(DeployError::Internal)?;
    for (path, value) in nsdb.get_matching(&Path::parse("/devices/*/rpa/*")) {
        transport
            .seed_intended(&path.to_string(), value)
            .map_err(DeployError::Internal)?;
    }
    let plan_span = tel.phase("plan", now_of(transport)?);
    let started = std::time::Instant::now();
    let phases = {
        let topo = transport.topology().map_err(DeployError::Internal)?;
        let docs = compile_intent(&topo, &state.intent).map_err(DeployError::Compile)?;
        if state.install {
            deployment_phases(&topo, docs, state.origination_layer, state.strategy)
        } else {
            removal_phases(&topo, docs, state.origination_layer, state.strategy)
        }
    };
    let generation_time = started.elapsed();
    plan_span.finish(now_of(transport)?);
    let opts = DeployOptions {
        origination_layer: state.origination_layer,
        strategy: state.strategy,
        wave_policy: state.wave_policy,
        max_wave_rounds: state.max_wave_rounds,
        halt_after_waves: None,
        transport: TransportKind::InProcess,
    };
    let install = state.install;
    let (phase_reports, issued_ops) =
        run_phases_over(nsdb, transport, phases, install, &opts, post, state)?;
    let health_span = tel.phase("health", now_of(transport)?);
    let post_health = transport
        .health_check(post)
        .map_err(DeployError::Internal)?;
    health_span.finish(now_of(transport)?);
    Ok(Some(DeploymentReport {
        generation_time,
        phases: phase_reports,
        issued_ops,
        post_health,
    }))
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
    let tel = transport.telemetry();
    let plan_span = tel.phase("plan", now_of(transport)?);
    let started = std::time::Instant::now();
    let phases = {
        let topo = transport.topology().map_err(DeployError::Internal)?;
        let docs = compile_intent(&topo, intent).map_err(DeployError::Compile)?;
        removal_phases(&topo, docs, opts.origination_layer, opts.strategy)
    };
    let generation_time = started.elapsed();
    plan_span.finish(now_of(transport)?);
    let state = DeployState {
        intent: intent.clone(),
        origination_layer: opts.origination_layer,
        strategy: opts.strategy,
        wave_policy: opts.wave_policy,
        max_wave_rounds: opts.max_wave_rounds,
        install: false,
        total_waves: phases.len(),
        next_wave: 0,
    };
    publish_deploy_state(nsdb, &state).map_err(DeployError::Internal)?;
    let (phase_reports, issued_ops) =
        run_phases_over(nsdb, transport, phases, false, opts, post, state)?;
    // Only drop the durable record once the fleet no longer runs the RPAs —
    // a stuck removal must leave the intent recorded.
    nsdb.delete(&Path::parse(&format!("/intents/{}", intent.kind())));
    let health_span = tel.phase("health", now_of(transport)?);
    let post_health = transport
        .health_check(post)
        .map_err(DeployError::Internal)?;
    health_span.finish(now_of(transport)?);
    Ok(DeploymentReport {
        generation_time,
        phases: phase_reports,
        issued_ops,
        post_health,
    })
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

fn run_phases_over<T: ControlTransport>(
    nsdb: &mut ReplicatedNsdb,
    transport: &mut T,
    phases: Vec<DeploymentPhase>,
    install: bool,
    opts: &DeployOptions,
    post: &HealthCheck,
    mut state: DeployState,
) -> Result<(Vec<PhaseReport>, Vec<IssuedOp>), DeployError> {
    let tel = transport.telemetry();
    let mut reports = Vec::with_capacity(phases.len());
    let mut all_ops = Vec::new();
    let start_wave = state.next_wave.min(phases.len());
    // Each round polls ground truth only from the devices the deployment has
    // touched so far (cumulative across waves, so a straggler from an
    // earlier wave is still observed).
    let mut polled_devices: Vec<DeviceId> = phases[..start_wave]
        .iter()
        .flat_map(|p| p.installs.iter().map(|(d, _)| *d))
        .collect();
    for i in start_wave..phases.len() {
        if opts.halt_after_waves.is_some_and(|n| i >= n) {
            // Simulated controller crash: the durable record still says
            // `next_wave = i`, so resume_deployment picks up here.
            return Err(DeployError::Halted { completed_waves: i });
        }
        let phase = &phases[i];
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
            if install {
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
        // Convergence barrier with a retry budget: "every layer must receive
        // the new RPA after all their downstream peers have picked up"
        // (§5.3.2). Each round issues deadline-carrying RPCs; between rounds
        // simulated time advances to the earliest retry deadline (or
        // circuit-breaker reopen) so lost RPCs get re-issued with backoff.
        let mut wave_ok = false;
        let mut idle_rounds = 0u32;
        for _round in 0..opts.max_wave_rounds.max(1) {
            let ops = transport.reconcile().map_err(DeployError::Internal)?;
            let issued_any = !ops.is_empty();
            all_ops.extend(ops.iter().copied());
            if !transport
                .run_until_quiescent()
                .map_err(DeployError::Internal)?
                .converged
            {
                return Err(DeployError::PhaseStuck { phase: i });
            }
            transport
                .poll_devices(&polled_devices)
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
                wave_ok = true;
                break;
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
                        break;
                    }
                }
                None => idle_rounds = 0,
            }
        }
        if !wave_ok {
            return Err(fail_wave_over(
                nsdb, transport, &phases, i, install, opts, post,
            ));
        }
        let converged_at = now_of(transport)?;
        wave_span.finish(converged_at);
        if tel.journal_enabled() {
            let mut ev = tel
                .event(EventKind::SequencerWave, Severity::Info)
                .field("wave", i + 1)
                .field("devices", devices.len())
                .field("install", install)
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
    Ok((reports, all_ops))
}

/// A wave exhausted its retry budget: apply the wave policy. Always produces
/// the error `run_phases_over` surfaces.
fn fail_wave_over<T: ControlTransport>(
    nsdb: &mut ReplicatedNsdb,
    transport: &mut T,
    phases: &[DeploymentPhase],
    failed: usize,
    install: bool,
    opts: &DeployOptions,
    post: &HealthCheck,
) -> DeployError {
    // Rolling back a removal would mean re-installing already-removed RPAs;
    // hold instead (the mirror order makes partial removals safe).
    if !install || opts.wave_policy == WaveFailurePolicy::HoldAndRetry {
        return DeployError::PhaseStuck { phase: failed };
    }
    rollback_through_over(nsdb, transport, phases, failed, opts);
    nsdb.delete(&Path::parse(DEPLOY_STATE_PATH));
    let post_health = match transport.health_check(post) {
        Ok(report) => report,
        Err(e) => return DeployError::Internal(e),
    };
    DeployError::WaveRolledBack {
        wave: failed,
        post_health,
    }
}

/// Uninstall the RPAs of waves `0..=failed` in reverse topology order — the
/// §5.3.2 mirror of the deployment order — with the same deadline-driven
/// retry loop per wave (best effort: a still-wedged device is left to
/// continuous reconciliation).
fn rollback_through_over<T: ControlTransport>(
    nsdb: &mut ReplicatedNsdb,
    transport: &mut T,
    phases: &[DeploymentPhase],
    failed: usize,
    opts: &DeployOptions,
) {
    let tel = transport.telemetry();
    let started_at = now_of(transport).map_or(0, |t| t);
    for phase in phases[..=failed].iter().rev() {
        for (dev, doc) in &phase.installs {
            // Best effort throughout: a typed failure mid-rollback leaves
            // the rest to continuous reconciliation.
            let _ = transport.clear_intended(*dev, doc.name());
            nsdb.delete(&Path::parse(&format!(
                "/devices/d{}/rpa/{}",
                dev.0,
                doc.name()
            )));
        }
        let mut idle_rounds = 0u32;
        for _round in 0..opts.max_wave_rounds.max(1) {
            let Ok(ops) = transport.reconcile() else {
                break;
            };
            let issued_any = !ops.is_empty();
            let _ = transport.run_until_quiescent();
            if transport.poll_current().is_err() {
                break;
            }
            match transport.out_of_sync_paths() {
                Ok(paths) if paths.is_empty() => break,
                Ok(_) => {}
                Err(_) => break,
            }
            let Ok(now) = transport.now() else { break };
            match transport.next_retry_due(now) {
                Ok(Some(due)) => {
                    let _ = transport.run_until(due);
                    idle_rounds = 0;
                }
                Ok(None) if !issued_any => {
                    idle_rounds += 1;
                    if idle_rounds >= 2 {
                        break;
                    }
                }
                Ok(None) => idle_rounds = 0,
                Err(_) => break,
            }
        }
    }
    tel.metrics().counter("core.wave_rollbacks").inc();
    if tel.journal_enabled() {
        tel.record(
            tel.event(EventKind::WaveRollback, Severity::Error)
                .field("wave", failed + 1)
                .field("waves_rolled_back", failed + 1)
                .field("started_at_us", started_at),
        );
    }
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
    fn wedged_wave_rolls_back_in_reverse_order() {
        use crate::sequencer::WaveFailurePolicy;
        use centralium_simnet::ChaosPlan;
        let (mut net, idx) = fabric();
        net.set_telemetry(centralium_telemetry::Telemetry::with_journal(4096));
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
        let mut opts = DeployOptions::new(Layer::Backbone, DeploymentStrategy::SafeOrder);
        opts.wave_policy = WaveFailurePolicy::Rollback;
        opts.max_wave_rounds = 3;
        let err = controller
            .deploy_intent_with(
                &mut net,
                &intent,
                &opts,
                &HealthCheck::default(),
                &HealthCheck::default(),
            )
            .unwrap_err();
        let DeployError::WaveRolledBack { wave, post_health } = err else {
            panic!("expected WaveRolledBack, got {err}");
        };
        assert_eq!(wave, 0, "first wave (FSW) is the one that wedges");
        assert!(post_health.passed(), "rollback leaves a healthy fabric");
        // Nothing is left installed and nothing is left intended.
        for &d in idx.fsw.iter().flatten().chain(idx.ssw.iter().flatten()) {
            assert!(net.device(d).unwrap().engine.installed().is_empty());
        }
        assert!(controller.agent.service.store.out_of_sync().is_empty());
        // The durable partial-wave record is gone: nothing to resume.
        assert!(controller.nsdb.get(&Path::parse("/deploy/state")).is_none());
        let snap = net.telemetry().metrics().snapshot();
        assert_eq!(snap.counter("core.wave_rollbacks"), 1);
        assert!(net
            .telemetry()
            .journal()
            .unwrap()
            .snapshot()
            .iter()
            .any(|e| e.kind == EventKind::WaveRollback));
    }

    #[test]
    fn halted_deployment_resumes_from_nsdb_partial_state() {
        let (mut net, idx) = fabric();
        let mut controller = Controller::new(&net, idx.rsw[0][0]);
        let intent = equalize(TargetSet::Layers(vec![Layer::Fsw, Layer::Ssw, Layer::Fadu]));
        let mut opts = DeployOptions::new(Layer::Backbone, DeploymentStrategy::SafeOrder);
        // Crash after the first wave (FSW) converges.
        opts.halt_after_waves = Some(1);
        let err = controller
            .deploy_intent_with(
                &mut net,
                &intent,
                &opts,
                &HealthCheck::default(),
                &HealthCheck::default(),
            )
            .unwrap_err();
        assert!(matches!(err, DeployError::Halted { completed_waves: 1 }));
        // Only the FSW wave landed.
        for &d in idx.ssw.iter().flatten() {
            assert!(net.device(d).unwrap().engine.installed().is_empty());
        }
        // "Restart": a brand-new controller (fresh agent, empty in-memory
        // state) inherits only the durable NSDB.
        let nsdb = std::mem::replace(&mut controller.nsdb, ReplicatedNsdb::new(2));
        drop(controller);
        let mut restarted = Controller::new(&net, idx.rsw[0][0]);
        restarted.nsdb = nsdb;
        let report = restarted
            .resume_deployment(&mut net, &HealthCheck::default())
            .unwrap()
            .expect("a partial deployment was recorded");
        // Waves 2 and 3 (SSW, FADU) ran under the restarted controller.
        let order: Vec<Layer> = report.phases.iter().filter_map(|p| p.layer).collect();
        assert_eq!(order, vec![Layer::Ssw, Layer::Fadu]);
        for &d in idx.fsw.iter().flatten().chain(idx.ssw.iter().flatten()) {
            assert_eq!(
                net.device(d).unwrap().engine.installed(),
                vec!["equalize-paths"]
            );
        }
        assert!(report.post_health.passed());
        assert!(restarted.nsdb.get(&Path::parse("/deploy/state")).is_none());
        // Idempotent: nothing further to resume.
        assert!(restarted
            .resume_deployment(&mut net, &HealthCheck::default())
            .unwrap()
            .is_none());
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

    #[test]
    fn builder_defaults_to_in_process_transport() {
        let opts = DeployOptions::builder(Layer::Backbone, DeploymentStrategy::SafeOrder).build();
        assert_eq!(opts.transport, TransportKind::InProcess);
        let opts = DeployOptions::builder(Layer::Backbone, DeploymentStrategy::SafeOrder)
            .transport(TransportKind::Tcp {
                addr: "127.0.0.1:4271".into(),
            })
            .build();
        assert!(matches!(opts.transport, TransportKind::Tcp { .. }));
    }
}
