//! The Switch Agent: the controller's I/O layer (§5.1).
//!
//! "The Switch Agent (1) consumes intended state and writes it to the
//! distributed control-plane to reconcile current state with intended state,
//! and (2) polls or streams state and statistics from physical switches to
//! populate the current state."
//!
//! Intended and current state live in the shared [`centralium_nsdb`] dual
//! store under `/devices/d<id>/rpa/<name>` paths; reconciliation issues RPA
//! install/remove RPCs into the emulator, with latency taken from the
//! management plane's SPF distance to each device.

use crate::error::Error;
use crate::retry::{CircuitBreaker, RetryPolicy};
use centralium_nsdb::store::View;
use centralium_nsdb::{Path, ServiceTemplate};
use centralium_rpa::RpaDocument;
use centralium_simnet::{ManagementPlane, SimNet, SimTime, MAX_DEADLINE};
use centralium_telemetry::{EventKind, Severity};
use centralium_topology::DeviceId;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One issued RPA operation and its RPC latency (the Figure 12 sample).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IssuedOp {
    /// Target device.
    pub device: DeviceId,
    /// One-way RPC latency in µs.
    pub latency_us: SimTime,
    /// True = install/replace, false = remove.
    pub install: bool,
}

/// In-flight RPC bookkeeping for one out-of-sync path.
#[derive(Debug, Clone, Copy)]
struct AttemptState {
    /// RPCs issued so far for this path's current divergence.
    attempts: u32,
    /// Deadline of the in-flight RPC: before this instant the path is not
    /// re-issued; after it, the attempt counts as failed.
    deadline_at: SimTime,
}

/// The agent.
#[derive(Debug)]
pub struct SwitchAgent {
    /// Shared service template: dual store + health + stats.
    pub service: ServiceTemplate,
    mgmt: ManagementPlane,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
    /// Per-path in-flight RPC state; cleared when the path syncs.
    attempts: HashMap<Path, AttemptState>,
}

impl SwitchAgent {
    /// Create an agent reaching devices over the given management plane.
    pub fn new(mgmt: ManagementPlane) -> Self {
        SwitchAgent {
            service: ServiceTemplate::new("switch-agent"),
            mgmt,
            retry: RetryPolicy::default(),
            breaker: CircuitBreaker::default(),
            attempts: HashMap::new(),
        }
    }

    /// The management plane in use.
    pub(crate) fn mgmt(&self) -> &ManagementPlane {
        &self.mgmt
    }

    /// Replace the management plane (topology changed).
    pub(crate) fn set_mgmt(&mut self, mgmt: ManagementPlane) {
        self.mgmt = mgmt;
    }

    /// Replace the RPC retry schedule.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The RPC retry schedule in use.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Earliest instant at which a held-back RPC becomes issuable again —
    /// the minimum over in-flight deadlines and open-circuit cooldowns.
    /// The controller advances simulated time here while holding a wave
    /// (the event queue alone does not advance time past its last event).
    pub fn next_retry_due(&self, now: SimTime) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        let mut fold = |t: SimTime| best = Some(best.map_or(t, |b: SimTime| b.min(t)));
        for (path, s) in &self.attempts {
            // A path whose deadline passed while its device's circuit is
            // open only becomes actionable at the circuit's reopen.
            let mut due = s.deadline_at;
            if let Some((device, _)) = Self::parse_rpa_path(path) {
                if let Some(reopen) = self.breaker.reopen_at(device) {
                    due = due.max(reopen);
                }
            }
            fold(due);
        }
        if let Some(r) = self.breaker.earliest_reopen(now) {
            fold(r);
        }
        best
    }

    fn rpa_path(device: DeviceId, name: &str) -> Path {
        Path::parse(&format!("/devices/d{}/rpa/{}", device.0, name))
    }

    fn parse_rpa_path(path: &Path) -> Option<(DeviceId, String)> {
        let segs = path.segments();
        if segs.len() == 4 && segs[0] == "devices" && segs[2] == "rpa" {
            let id: u32 = segs[1].strip_prefix('d')?.parse().ok()?;
            Some((DeviceId(id), segs[3].clone()))
        } else {
            None
        }
    }

    /// Record that `device` should run `doc` (writes intended state).
    ///
    /// Fails with [`Error::InvalidPath`] unless the document's name is one
    /// concrete path segment, the only kind `parse_rpa_path` reads back, and
    /// with [`Error::DeadlineOutOfRange`] for an expiration past [`MAX_DEADLINE`].
    pub fn set_intended(&mut self, device: DeviceId, doc: &RpaDocument) -> Result<(), Error> {
        doc.deadlines().try_for_each(check_deadline)?;
        let path = Self::rpa_path(device, doc.name());
        if path.is_pattern() || path.segments().last().map(String::as_str) != Some(doc.name()) {
            return Err(Error::InvalidPath {
                path: path.to_string(),
            });
        }
        let value = serde_json::to_value(doc).map_err(|e| Error::NsdbEncode {
            record: path.to_string(),
            source: e,
        })?;
        self.service.store.set(View::Intended, path, value);
        Ok(())
    }

    /// Record that `device` should no longer run the named RPA.
    pub(crate) fn clear_intended(&mut self, device: DeviceId, name: &str) {
        let path = Self::rpa_path(device, name);
        self.service.store.delete(View::Intended, &path);
    }

    /// Serialize the RPA documents installed on the given devices into
    /// `(path, value)` observations.
    fn observe_devices(net: &SimNet, devices: &[DeviceId]) -> Result<Vec<(Path, Value)>, Error> {
        let mut observed: Vec<(Path, Value)> = Vec::new();
        for &dev in devices {
            let Some(device) = net.device(dev) else {
                continue;
            };
            for doc in device.engine.documents() {
                let path = Self::rpa_path(dev, doc.name());
                let value = serde_json::to_value(doc).map_err(|e| Error::NsdbEncode {
                    record: path.to_string(),
                    source: e,
                })?;
                observed.push((path, value));
            }
        }
        Ok(observed)
    }

    /// Poll every device's engine into the current-state view. This is the
    /// ground-truth collection flow; it also covers re-provisioned or newly
    /// commissioned switches (§5 function 5).
    pub fn poll_current(&mut self, net: &SimNet) -> Result<(), Error> {
        let observed = Self::observe_devices(net, &net.device_ids())?;
        // Replace the devices subtree of current state with observations.
        self.replace_current(&[Path::parse("/devices")], observed);
        Ok(())
    }

    /// Poll ground truth from the given devices only, replacing just their
    /// `/devices/d<id>` current-state subtrees — the scoped collection a
    /// deployment runs between reconcile rounds over the devices it has
    /// touched so far. State observed from other devices is left untouched.
    pub(crate) fn poll_devices(&mut self, net: &SimNet, devices: &[DeviceId]) -> Result<(), Error> {
        let observed = Self::observe_devices(net, devices)?;
        let roots: Vec<Path> = devices
            .iter()
            .map(|dev| Path::parse(&format!("/devices/d{}", dev.0)))
            .collect();
        self.replace_current(&roots, observed);
        Ok(())
    }

    /// Make `observed` the current state under `roots`: a leaf there that
    /// no observation names is deleted, every observation is written.
    fn replace_current(&mut self, roots: &[Path], observed: Vec<(Path, Value)>) {
        let seen: HashSet<&Path> = observed.iter().map(|(p, _)| p).collect();
        let current = self.service.store.view(View::Current);
        let stale: Vec<Path> = roots
            .iter()
            .flat_map(|root| current.subtree(root))
            .filter(|(p, _)| !seen.contains(p))
            .map(|(p, _)| p.clone())
            .collect();
        drop(seen);
        for p in stale {
            self.service.store.delete(View::Current, &p);
        }
        let n = observed.len() as u64;
        for (p, v) in observed {
            self.service.store.set(View::Current, p, v);
        }
        self.service.record_rpc(n.max(1));
        // Fresh ground truth settles in-flight RPCs immediately — a path
        // may sync and re-diverge (new intent) before the next reconcile,
        // and a stale deadline must not suppress the new divergence's RPC.
        self.settle_attempts();
    }

    /// Drop in-flight state (and reset breakers) for paths that synced:
    /// their RPC succeeded.
    fn settle_attempts(&mut self) {
        if self.attempts.is_empty() {
            return;
        }
        let diverged = self.service.store.out_of_sync();
        let resolved: Vec<Path> = self
            .attempts
            .keys()
            .filter(|p| !diverged.contains(p))
            .cloned()
            .collect();
        for path in resolved {
            self.attempts.remove(&path);
            if let Some((device, _)) = Self::parse_rpa_path(&path) {
                self.breaker.record_success(device);
            }
        }
    }

    /// One reconciliation round: issue install/remove operations for every
    /// out-of-sync path. Returns the issued operations (empty = in sync or
    /// everything held back by deadlines/breakers); a corrupt intended-state
    /// record surfaces as [`Error::NsdbDecode`] instead of being skipped.
    ///
    /// Failure semantics: every issued RPC carries a deadline from the
    /// [`RetryPolicy`]; a path still diverged past its deadline counts as a
    /// failed RPC and is re-issued with exponential backoff (journal:
    /// [`EventKind::RpcRetry`]). Consecutive failures trip the device's
    /// [`CircuitBreaker`] (journal: [`EventKind::CircuitOpen`]) so a wedged
    /// agent fails fast until its cooldown. Unreachable devices are skipped
    /// and retried next round — the eventual-consistency guarantee.
    pub fn reconcile(&mut self, net: &mut SimNet) -> Result<Vec<IssuedOp>, Error> {
        let now = net.now();
        let tel = net.telemetry().clone();
        let mut issued = Vec::new();
        // Paths that synced since the last round: their RPC succeeded.
        self.settle_attempts();
        let diverged = self.service.store.out_of_sync();
        // Batch divergences per device: one reachability/latency lookup per
        // target, operations issued back-to-back in device order — the same
        // per-device grouping the parallel convergence engine batches on.
        let mut batches: BTreeMap<DeviceId, Vec<(&Path, String)>> = BTreeMap::new();
        for path in &diverged {
            if let Some((device, name)) = Self::parse_rpa_path(path) {
                batches.entry(device).or_default().push((path, name));
            }
        }
        tel.metrics()
            .counter("core.reconcile_batches")
            .add(batches.len() as u64);
        for (device, paths) in batches {
            let reachable = self.mgmt.rpc_latency_us(device);
            for (path, name) in paths {
                let attempt = match self.attempts.get(path) {
                    // In-flight RPC still within its deadline: leave it alone.
                    Some(s) if now < s.deadline_at => continue,
                    Some(s) => s.attempts,
                    None => 0,
                };
                if attempt > 0 {
                    // The previous RPC missed its deadline: a failure.
                    if self.breaker.record_failure(device, now) {
                        tel.metrics().counter("core.circuit_open").inc();
                        if tel.journal_enabled() {
                            tel.record(
                                tel.event(EventKind::CircuitOpen, Severity::Error)
                                    .field("device", format!("d{}", device.0))
                                    .field("failures", self.breaker.threshold)
                                    .field("cooldown_us", self.breaker.cooldown_us),
                            );
                        }
                    }
                }
                if !self.breaker.allows(device, now) {
                    // Degraded: fail fast, and drop the in-flight state — its
                    // failure is already counted, and after the cooldown the
                    // path restarts as a fresh half-open probe.
                    self.attempts.remove(path);
                    continue;
                }
                if attempt > self.retry.max_retries {
                    // Budget exhausted: reset so the next (breaker-gated)
                    // round starts a fresh burst.
                    self.attempts.remove(path);
                    continue;
                }
                let Some(latency) = reachable else {
                    continue; // unreachable: retry next round
                };
                let intended = self.service.store.view(View::Intended).get(path).cloned();
                let install = match intended {
                    Some(value) => {
                        let doc: RpaDocument =
                            serde_json::from_value(value).map_err(|e| Error::NsdbDecode {
                                record: path.to_string(),
                                source: e,
                            })?;
                        doc.deadlines().try_for_each(check_deadline)?;
                        net.deploy_rpa(device, doc, latency);
                        true
                    }
                    None => {
                        net.remove_rpa(device, name.clone(), latency);
                        false
                    }
                };
                if attempt > 0 {
                    tel.metrics().counter("core.rpc_retries").inc();
                    if tel.journal_enabled() {
                        tel.record(
                            tel.event(EventKind::RpcRetry, Severity::Warn)
                                .field("device", format!("d{}", device.0))
                                .field("document", name.as_str())
                                .field("attempt", attempt)
                                .field("install", install),
                        );
                    }
                }
                let backoff = self.retry.backoff_us(attempt, device);
                self.attempts.insert(
                    path.clone(),
                    AttemptState {
                        attempts: attempt + 1,
                        deadline_at: now + latency + backoff,
                    },
                );
                issued.push(IssuedOp {
                    device,
                    latency_us: latency,
                    install,
                });
            }
        }
        self.service.record_reconcile(diverged.len() as u64 + 1);
        Ok(issued)
    }
}

/// Refuse a deadline past [`MAX_DEADLINE`], which the clock never reaches.
pub(crate) fn check_deadline(deadline: SimTime) -> Result<(), Error> {
    let max = MAX_DEADLINE;
    let err = Error::DeadlineOutOfRange { deadline, max };
    (deadline <= max).then_some(()).ok_or(err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_bgp::attrs::well_known;
    use centralium_bgp::Prefix;
    use centralium_rpa::{
        Destination, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature,
    };
    use centralium_simnet::{NetEvent, SimConfig};
    use centralium_topology::{build_fabric, FabricSpec};

    fn setup() -> (
        SimNet,
        SwitchAgent,
        centralium_topology::builder::FabricIndex,
    ) {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let mut net = SimNet::new(topo, SimConfig::default());
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        let mgmt = ManagementPlane::compute(net.topology(), idx.rsw[0][0]);
        let agent = SwitchAgent::new(mgmt);
        (net, agent, idx)
    }

    /// RPCs issued so far for `device`/`name`'s current divergence (0 once
    /// the path syncs).
    fn attempts(agent: &SwitchAgent, device: DeviceId, name: &str) -> u32 {
        agent
            .attempts
            .get(&SwitchAgent::rpa_path(device, name))
            .map_or(0, |s| s.attempts)
    }

    fn doc(name: &str) -> RpaDocument {
        RpaDocument::PathSelection(PathSelectionRpa::single(
            name,
            PathSelectionStatement::select(
                Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
                vec![PathSet::new("all", PathSignature::any())],
            ),
        ))
    }

    #[test]
    fn reconcile_installs_intended_rpas() {
        let (mut net, mut agent, idx) = setup();
        let target = idx.ssw[0][0];
        agent.set_intended(target, &doc("equalize")).unwrap();
        assert!(!agent.service.store.out_of_sync().is_empty());
        let ops = agent.reconcile(&mut net).unwrap();
        assert_eq!(ops.len(), 1);
        assert!(ops[0].install);
        assert!(ops[0].latency_us > 0);
        net.run_until_quiescent().expect_converged();
        assert_eq!(
            net.device(target).unwrap().engine.installed(),
            vec!["equalize"]
        );
        agent.poll_current(&net).unwrap();
        assert!(agent.service.store.out_of_sync().is_empty());
        // Second round: nothing to do.
        assert!(agent.reconcile(&mut net).unwrap().is_empty());
    }

    #[test]
    fn reconcile_removes_unintended_rpas() {
        let (mut net, mut agent, idx) = setup();
        let target = idx.ssw[0][0];
        agent.set_intended(target, &doc("equalize")).unwrap();
        agent.reconcile(&mut net).unwrap();
        net.run_until_quiescent().expect_converged();
        agent.poll_current(&net).unwrap();
        // Operator withdraws the intent.
        agent.clear_intended(target, "equalize");
        let ops = agent.reconcile(&mut net).unwrap();
        assert_eq!(ops.len(), 1);
        assert!(!ops[0].install);
        net.run_until_quiescent().expect_converged();
        assert!(net.device(target).unwrap().engine.installed().is_empty());
        agent.poll_current(&net).unwrap();
        assert!(agent.service.store.out_of_sync().is_empty());
    }

    #[test]
    fn poll_detects_straggler_after_recommission() {
        let (mut net, mut agent, idx) = setup();
        let target = idx.ssw[0][0];
        agent.set_intended(target, &doc("equalize")).unwrap();
        agent.reconcile(&mut net).unwrap();
        net.run_until_quiescent().expect_converged();
        agent.poll_current(&net).unwrap();
        // The switch is re-provisioned: its engine loses all RPAs.
        net.device_mut(target)
            .unwrap()
            .engine
            .remove("equalize")
            .unwrap();
        agent.poll_current(&net).unwrap();
        // Continuous reconciliation catches the straggler and re-installs.
        let ops = agent.reconcile(&mut net).unwrap();
        assert_eq!(ops.len(), 1, "straggler re-pushed");
        net.run_until_quiescent().expect_converged();
        assert_eq!(
            net.device(target).unwrap().engine.installed(),
            vec!["equalize"]
        );
    }

    #[test]
    fn an_expiration_past_the_clock_bound_is_refused_not_retried() {
        use centralium_rpa::{RouteAttributeRpa, RouteAttributeStatement};
        let (mut net, mut agent, idx) = setup();
        let target = idx.ssw[0][0];
        let destination = Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE);
        let statement = RouteAttributeStatement::new(destination, vec![]);
        let far = RpaDocument::RouteAttribute(RouteAttributeRpa::single(
            "far",
            statement.expires_at(MAX_DEADLINE + 1),
        ));
        let refused = Error::DeadlineOutOfRange {
            deadline: MAX_DEADLINE + 1,
            max: MAX_DEADLINE,
        };
        let err = agent.set_intended(target, &far).unwrap_err();
        assert_eq!(err.to_string(), refused.to_string());
        assert!(agent.service.store.out_of_sync().is_empty());
        // A record written past the check is refused where it is read, not
        // issued as an RPC to wait out and retry.
        let path = SwitchAgent::rpa_path(target, "far");
        let value = serde_json::to_value(&far).unwrap();
        agent.service.store.set(View::Intended, path, value);
        let err = agent.reconcile(&mut net).unwrap_err();
        assert_eq!(err.to_string(), refused.to_string());
        assert_eq!(attempts(&agent, target, "far"), 0);
        assert_eq!(net.run_until_quiescent().events_processed, 0);
    }

    #[test]
    fn lost_rpc_is_retried_after_deadline() {
        use centralium_simnet::ChaosPlan;
        let (mut net, mut agent, idx) = setup();
        net.set_telemetry(centralium_telemetry::Telemetry::with_journal(1024));
        // Drop the first RPCs, then heal: nonce-keyed fates make exactly
        // the early attempts fail. With loss 1.0 on nonce 0 only we can't
        // express "first only" via probability, so use full loss and heal
        // by swapping the plan after the first round.
        net.set_chaos(ChaosPlan::with_rpc_loss(7, 1.0));
        let target = idx.ssw[0][0];
        agent.set_retry_policy(RetryPolicy {
            max_retries: 6,
            base_backoff_us: 5_000,
            max_backoff_us: 40_000,
            jitter_seed: 7,
        });
        agent.set_intended(target, &doc("equalize")).unwrap();
        let ops = agent.reconcile(&mut net).unwrap();
        assert_eq!(ops.len(), 1);
        net.run_until_quiescent().expect_converged();
        agent.poll_current(&net).unwrap();
        // RPC was dropped: still out of sync, attempt recorded.
        assert_eq!(attempts(&agent, target, "equalize"), 1);
        // Within the deadline nothing is re-issued.
        assert!(agent.reconcile(&mut net).unwrap().is_empty());
        // Heal the network and advance past the deadline: the retry fires.
        net.set_chaos(ChaosPlan::new(7));
        let due = agent.next_retry_due(net.now()).expect("deadline pending");
        net.run_until(due);
        let ops = agent.reconcile(&mut net).unwrap();
        assert_eq!(ops.len(), 1, "retry issued");
        net.run_until_quiescent().expect_converged();
        agent.poll_current(&net).unwrap();
        assert_eq!(
            net.device(target).unwrap().engine.installed(),
            vec!["equalize"]
        );
        assert_eq!(attempts(&agent, target, "equalize"), 0, "settled");
        let snap = net.telemetry().metrics().snapshot();
        assert_eq!(snap.counter("core.rpc_retries"), 1);
        let journal = net.telemetry().journal().unwrap().snapshot();
        assert!(journal
            .iter()
            .any(|e| e.kind == centralium_telemetry::EventKind::RpcRetry));
    }

    #[test]
    fn wedged_device_trips_circuit_breaker() {
        use centralium_simnet::ChaosPlan;
        let (mut net, mut agent, idx) = setup();
        net.set_telemetry(centralium_telemetry::Telemetry::with_journal(1024));
        net.set_chaos(ChaosPlan::with_rpc_loss(7, 1.0));
        let target = idx.ssw[0][0];
        agent.set_retry_policy(RetryPolicy {
            max_retries: 10,
            base_backoff_us: 1_000,
            max_backoff_us: 4_000,
            jitter_seed: 1,
        });
        agent.breaker = CircuitBreaker::new(3, 1_000_000);
        agent.set_intended(target, &doc("equalize")).unwrap();
        // Drive rounds until the breaker opens. (Degradation must be
        // checked before advancing time: next_retry_due points at the
        // cooldown's end once the circuit is open.)
        for _ in 0..8 {
            agent.reconcile(&mut net).unwrap();
            net.run_until_quiescent();
            agent.poll_current(&net).unwrap();
            if !agent.breaker.allows(target, net.now()) {
                break;
            }
            if let Some(due) = agent.next_retry_due(net.now()) {
                net.run_until(due);
            }
        }
        assert!(!agent.breaker.allows(target, net.now()));
        let snap = net.telemetry().metrics().snapshot();
        assert_eq!(snap.counter("core.circuit_open"), 1);
        assert!(net
            .telemetry()
            .journal()
            .unwrap()
            .snapshot()
            .iter()
            .any(|e| e.kind == centralium_telemetry::EventKind::CircuitOpen));
        // While open, reconcile fails fast: no RPCs toward the device.
        assert!(agent.reconcile(&mut net).unwrap().is_empty());
        // After the cooldown the half-open probe flows again — and with the
        // chaos healed it succeeds and closes the circuit.
        net.set_chaos(ChaosPlan::new(7));
        let due = agent.next_retry_due(net.now()).expect("cooldown pending");
        net.run_until(due);
        let ops = agent.reconcile(&mut net).unwrap();
        assert_eq!(ops.len(), 1, "half-open probe");
        net.run_until_quiescent().expect_converged();
        agent.poll_current(&net).unwrap();
        assert!(agent.breaker.allows(target, net.now()));
        assert_eq!(
            net.device(target).unwrap().engine.installed(),
            vec!["equalize"]
        );
    }

    #[test]
    fn precedence_survives_agent_restart() {
        // Two Path Selection documents both govern the default route, each
        // through a different uplink. Deployed zeta first, they must keep
        // their precedence through a restart, which drops both and lets
        // reconcile reinstall them in path order (alpha first).
        let (mut net, mut agent, idx) = setup();
        let target = idx.ssw[0][0];
        let uplinks = net.topology().uplinks(target);
        let asn = |i: usize| net.topology().device(uplinks[i].0).unwrap().asn;
        let via = |name: &str, first_asn| {
            RpaDocument::PathSelection(PathSelectionRpa::single(
                name,
                PathSelectionStatement::select(
                    Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
                    vec![PathSet::new(
                        "via",
                        PathSignature {
                            first_asn: Some(first_asn),
                            ..PathSignature::default()
                        },
                    )],
                ),
            ))
        };
        let docs = [via("zeta", asn(0)), via("alpha", asn(1))];
        let default_entry = |net: &SimNet| {
            net.device(target)
                .unwrap()
                .fib
                .entry(Prefix::DEFAULT)
                .cloned()
        };
        for doc in &docs {
            agent.set_intended(target, doc).unwrap();
            agent.reconcile(&mut net).unwrap();
            net.run_until_quiescent().expect_converged();
            agent.poll_current(&net).unwrap();
        }
        let before = default_entry(&net).expect("default route installed");
        net.schedule_in(0, NetEvent::AgentRestart { dev: target });
        net.run_until_quiescent().expect_converged();
        agent.poll_current(&net).unwrap();
        assert_eq!(agent.reconcile(&mut net).unwrap().len(), 2);
        net.run_until_quiescent().expect_converged();
        agent.poll_current(&net).unwrap();
        assert!(agent.service.store.out_of_sync().is_empty());
        assert_eq!(default_entry(&net), Some(before));
    }

    #[test]
    fn rpc_latency_reflects_mgmt_distance() {
        let (mut net, mut agent, idx) = setup();
        agent.set_intended(idx.fsw[0][0], &doc("near")).unwrap();
        agent.set_intended(idx.fauu[0][0], &doc("far")).unwrap();
        let ops = agent.reconcile(&mut net).unwrap();
        let near = ops.iter().find(|o| o.device == idx.fsw[0][0]).unwrap();
        let far = ops.iter().find(|o| o.device == idx.fauu[0][0]).unwrap();
        assert!(
            far.latency_us > near.latency_us,
            "FAUUs are most distant (§6.2)"
        );
    }
}
