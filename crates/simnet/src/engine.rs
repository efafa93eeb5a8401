//! The run loop of [`SimNet`]: causality-safe windows of events, each taken
//! through a pre-pass (global bookkeeping, pop order), device work (grouped
//! by device) and a merge (emission replay, pop order). `net.rs` keeps
//! construction, administrative operations and the emit/coalesce path.

use super::{NetCounters, NetEvent, SimConfig, SimNet, BASE_LATENCY_US, MAX_EVENTS};
use crate::device::SimDevice;
use crate::event::SimTime;
use crate::fib::FibScratch;
use crate::trace::ConvergenceReport;
use centralium_bgp::policy::Policy;
use centralium_bgp::{PathAttributes, PeerId, Prefix, UpdateMessage};
use centralium_rpa::RpaDocument;
use centralium_telemetry::{Event, EventKind, ProvenanceKind, Severity, Telemetry};
use centralium_topology::{DeviceId, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// The device-local portion of one event, executed in a window's work
/// phase. Mirrors [`NetEvent`] minus the target device id (held by the
/// event's [`Slot`]) and minus everything the pre-pass already consumed
/// (global counters, churn/origination bookkeeping).
#[derive(Debug)]
enum Work {
    /// Apply a BGP UPDATE received on session `on`.
    Deliver { on: PeerId, msg: UpdateMessage },
    /// A session reached Established.
    SessionUp { peer: PeerId },
    /// A session dropped.
    SessionDown { peer: PeerId },
    /// Re-send the full Adj-RIB-Out for session `on` if it is established.
    RouteRefresh { on: PeerId },
    /// Tear down and unconfigure a session.
    RemovePeer { peer: PeerId },
    /// Install an RPA document.
    InstallRpa { doc: Box<RpaDocument> },
    /// Remove an RPA document by name.
    RemoveRpa { name: String },
    /// Start originating a prefix.
    Originate {
        prefix: Prefix,
        attrs: PathAttributes,
    },
    /// Stop originating a prefix.
    WithdrawOrigin { prefix: Prefix },
    /// Apply an export-policy override across all sessions.
    SetExportPolicy { policy: Policy },
    /// Crash-restart the RPA agent, losing installed documents.
    AgentRestart,
    /// Re-run the full decision process without a configuration change.
    Reevaluate,
}

/// What the work phase produced for one event: the daemon's output updates,
/// then route-refresh requests toward `(neighbor, neighbor's session)` — the
/// latter only from a Route Filter removal. The merge phase replays both in
/// global pop order — the updates through [`SimNet::emit`], the requests one
/// base latency out — so every RNG draw (jitter, faults, split shuffles),
/// FIFO clamp and queue sequence number lands exactly as it would processing
/// one event at a time.
type Output = (Vec<(PeerId, UpdateMessage)>, Vec<(DeviceId, PeerId)>);

/// A provenance step of one event, before it reaches the log: kind, sending
/// peer and detail. Device and time are the event's own.
type ProvStep = (ProvenanceKind, Option<u32>, String);

/// One popped event on its way through a window: what the pre-pass left for
/// the device, what the device produced, and what the journal and the
/// provenance log are owed — all held until the merge phase reaches the event
/// in pop order.
#[derive(Debug)]
struct Slot {
    /// The event's own timestamp.
    t: SimTime,
    /// Target device; `None` when the event was a no-op (device gone).
    dev: Option<DeviceId>,
    /// Device-local work, taken by the work phase.
    work: Option<Work>,
    /// What the work phase produced, replayed by the merge phase.
    output: Output,
    /// Journal events of the pre-pass and the work phase.
    journal: Vec<Event>,
    /// Provenance steps of the pre-pass and the work phase.
    provenance: Vec<ProvStep>,
}

/// Static span/report name of one [`Work`] kind.
fn work_name(work: &Work) -> &'static str {
    match work {
        Work::Deliver { .. } => "deliver",
        Work::SessionUp { .. } => "session_up",
        Work::SessionDown { .. } => "session_down",
        Work::RouteRefresh { .. } => "route_refresh",
        Work::RemovePeer { .. } => "remove_peer",
        Work::InstallRpa { .. } => "install_rpa",
        Work::RemoveRpa { .. } => "remove_rpa",
        Work::Originate { .. } => "originate",
        Work::WithdrawOrigin { .. } => "withdraw_origin",
        Work::SetExportPolicy { .. } => "set_export_policy",
        Work::AgentRestart => "agent_restart",
        Work::Reevaluate => "reevaluate",
    }
}

/// Execute the device-local part of one event. Touches only `dev`, read-only
/// context, and atomic counters — never the RNG, the event queue, or
/// cross-device state, which is what lets a window run its events grouped by
/// device without changing the outcome.
fn run_work(
    dev: &mut SimDevice,
    scratch: &mut FibScratch,
    t: SimTime,
    work: Work,
    counters: &NetCounters,
    topo: &Topology,
    cfg: &SimConfig,
) -> Output {
    let updates = match work {
        Work::Deliver { on, msg } => {
            dev.engine.set_time(t);
            dev.with_daemon(scratch, |dm, e| dm.handle_update(on, msg, e))
        }
        Work::SessionUp { peer } => {
            dev.engine.set_time(t);
            dev.with_daemon(scratch, |dm, e| dm.peer_up(peer, e))
        }
        Work::SessionDown { peer } => {
            dev.engine.set_time(t);
            dev.with_daemon(scratch, |dm, e| dm.peer_down(peer, e))
        }
        Work::RouteRefresh { on } => {
            // The establishment check must run here, not in the pre-pass: an
            // earlier event in the same window may have dropped the session.
            if !dev.daemon.is_established(on) {
                return Output::default();
            }
            let refresh = dev.daemon.full_advertisement(on);
            if refresh.is_empty() {
                Vec::new()
            } else {
                vec![(on, refresh)]
            }
        }
        Work::RemovePeer { peer } => {
            dev.engine.set_time(t);
            dev.with_daemon(scratch, |dm, e| dm.remove_peer(peer, e))
        }
        Work::InstallRpa { doc } => {
            dev.engine.set_time(t);
            // Dirty-prefix frontier: combine the scopes of the incoming
            // document and (on a replace) the one it displaces — the old
            // document's prefixes must re-decide too, since its effect is
            // being withdrawn.
            let scope = match dev.engine.document(doc.name()) {
                Some(old) => rpa_scope(dev, &[old, doc.as_ref()]),
                None => rpa_scope(dev, &[doc.as_ref()]),
            };
            match dev.engine.install_or_replace(*doc) {
                Ok(()) => reevaluate_scoped(dev, scratch, scope, counters),
                Err(_) => {
                    counters.rpa_failures.inc();
                    Vec::new()
                }
            }
        }
        Work::RemoveRpa { name } => {
            dev.engine.set_time(t);
            // Scope must come from the document *before* removal — after it,
            // the engine no longer knows which prefixes it governed.
            // Removing an ingress-only Route Filter only *relaxes* admission:
            // routes already held keep passing (no purge needed), and routes
            // the filter had evicted come back via the refresh requests
            // returned below. Only time-joined prefixes can flip right now,
            // which is exactly `rpa_scope` over an empty document set.
            let scope = match dev.engine.document(&name) {
                Some(RpaDocument::RouteFilter(rf)) if !rf.constrains_egress() => {
                    rpa_scope(dev, &[])
                }
                Some(RpaDocument::RouteFilter(_)) => RpaScope::Full,
                Some(old) => rpa_scope(dev, &[old]),
                None => RpaScope::Full,
            };
            let Ok(removed) = dev.engine.remove(&name) else {
                counters.rpa_failures.inc();
                return Output::default();
            };
            let updates = reevaluate_scoped(dev, scratch, scope, counters);
            let refresh = if matches!(removed, RpaDocument::RouteFilter(_)) {
                dev.daemon
                    .peer_ids()
                    .into_iter()
                    .map(|peer| {
                        (
                            DeviceId(peer.device()),
                            PeerId::compose(dev.id.0, peer.session_index()),
                        )
                    })
                    .collect()
            } else {
                Vec::new()
            };
            return (updates, refresh);
        }
        Work::Originate { prefix, attrs } => {
            dev.engine.set_time(t);
            dev.with_daemon(scratch, |dm, e| dm.originate(prefix, attrs, e))
        }
        Work::WithdrawOrigin { prefix } => {
            dev.engine.set_time(t);
            dev.with_daemon(scratch, |dm, e| dm.withdraw_origin(prefix, e))
        }
        Work::SetExportPolicy { policy } => {
            let peers = dev.daemon.peer_ids();
            let composed: Vec<(PeerId, Arc<Policy>)> = peers
                .iter()
                .map(|&peer| {
                    let base = SimNet::base_export_policy_for(
                        topo,
                        cfg.valley_free_policies,
                        dev.id,
                        peer,
                    );
                    let mut rules = policy.rules.clone();
                    rules.extend(base.rules.iter().cloned());
                    (
                        peer,
                        // Override policies are per-(device, peer) composites,
                        // so each gets its own body; only the canonical
                        // wiring-time shapes are shared.
                        Arc::new(Policy {
                            rules,
                            default_accept: base.default_accept,
                        }),
                    )
                })
                .collect();
            dev.engine.set_time(t);
            dev.with_daemon(scratch, |dm, e| {
                for (peer, p) in composed {
                    dm.set_export_policy(peer, p);
                }
                // An export-policy swap changes no RPA state, so the eviction
                // invariant holds and `reevaluate_all`'s purge would be a
                // no-op — skip the O(RIB) purge scan and re-decide every
                // known prefix directly.
                let known = dm.known_prefixes();
                dm.reevaluate_prefixes(known, e)
            })
        }
        Work::AgentRestart => {
            dev.engine.set_time(t);
            let installed: Vec<String> = dev
                .engine
                .installed()
                .into_iter()
                .map(str::to_string)
                .collect();
            for name in installed {
                let _ = dev.engine.remove(&name);
            }
            dev.with_daemon(scratch, |dm, e| dm.reevaluate_all(e))
        }
        Work::Reevaluate => {
            dev.engine.set_time(t);
            dev.with_daemon(scratch, |dm, e| dm.reevaluate_all(e))
        }
    };
    (updates, Vec::new())
}

/// The re-evaluation an RPA change demands, computed before the change is
/// applied to the engine.
#[derive(Debug, PartialEq)]
enum RpaScope {
    /// Structural change — egress filtering, or a document without bounded
    /// destinations. Every known prefix must re-decide from a freshly
    /// purged Adj-RIB-In.
    Full,
    /// Only these prefixes can change their decision outcome; the
    /// Adj-RIB-In needs no purge (nothing tightened admission).
    Prefixes(Vec<Prefix>),
    /// Ingress admission may have tightened: purge the Adj-RIB-In against
    /// the now-current filters, then re-decide the purged prefixes plus
    /// these destination-scoped ones.
    Filtered(Vec<Prefix>),
}

/// The prefixes on `dev` whose decision outcome the given RPA documents can
/// change, classified by the kind of re-evaluation they need. A prefix is in
/// scope when any document destination
/// [`applies`](centralium_rpa::Destination::applies) to it given the same
/// candidate set the decision process would see — read in place during one
/// ordered walk of the known prefixes
/// ([`BgpDaemon::known`](centralium_bgp::BgpDaemon::known)).
///
/// Route Filters constrain sessions rather than destinations, so they used
/// to force the full path wholesale. They now split by direction:
///
/// * An **egress** allow list can flip the advertisement of every known
///   prefix on its sessions without leaving any Adj-RIB-In trace, so any
///   document carrying one yields [`RpaScope::Full`].
/// * An **ingress-only** list affects the RIB exactly through admission.
///   Re-admission checks (the purge) find every prefix whose candidate set
///   shrinks, and by the eviction invariant — the Adj-RIB-In never holds a
///   route the current filters reject — no *other* prefix's candidates can
///   have changed. The result is [`RpaScope::Filtered`]: purge, then decide
///   purged ∪ time-joined prefixes.
fn rpa_scope(dev: &SimDevice, docs: &[&RpaDocument]) -> RpaScope {
    let mut dests: Vec<&centralium_rpa::Destination> = Vec::new();
    let mut ingress = false;
    for doc in docs {
        if let RpaDocument::RouteFilter(rf) = doc {
            if rf.constrains_egress() {
                return RpaScope::Full;
            }
            ingress = true;
            continue;
        }
        match doc.destinations() {
            Some(d) => dests.extend(d),
            None => return RpaScope::Full,
        }
    }
    // Installed documents with expiring statements re-evaluate against the
    // clock, so an unrelated install can still flip their outcome (the
    // deadline passed since the last decision run): their destinations join
    // every dirty scope.
    for doc in dev.engine.documents().filter(|doc| doc.time_dependent()) {
        match doc.destinations() {
            Some(d) => dests.extend(d),
            None => return RpaScope::Full,
        }
    }
    let scope = dev
        .daemon
        .known()
        .filter(|(prefix, candidates)| {
            dests
                .iter()
                .any(|d| d.applies(*prefix, |c| candidates.any(|attrs| attrs.has_community(c))))
        })
        .map(|(prefix, _)| prefix)
        .collect();
    if ingress {
        RpaScope::Filtered(scope)
    } else {
        RpaScope::Prefixes(scope)
    }
}

/// Re-run the decision process over the computed scope. Scoped runs are
/// behavior-identical to full ones: out-of-scope prefixes' decisions cannot
/// change (their candidate sets are untouched — for the filtered variant the
/// purge itself proves it), and the Adj-RIB-Out diff suppresses
/// re-announcing unchanged routes either way.
fn reevaluate_scoped(
    dev: &mut SimDevice,
    scratch: &mut FibScratch,
    scope: RpaScope,
    counters: &NetCounters,
) -> Vec<(PeerId, UpdateMessage)> {
    match scope {
        RpaScope::Prefixes(prefixes) => {
            counters.rpa_scoped_reevals.inc();
            dev.with_daemon(scratch, |dm, e| dm.reevaluate_prefixes(prefixes, e))
        }
        RpaScope::Filtered(prefixes) => {
            counters.rpa_scoped_reevals.inc();
            dev.with_daemon(scratch, |dm, e| dm.reevaluate_filtered(prefixes, e))
        }
        RpaScope::Full => {
            counters.rpa_full_reevals.inc();
            dev.with_daemon(scratch, |dm, e| dm.reevaluate_all(e))
        }
    }
}

/// A traced prefix's observable state on one device, captured before and
/// after an event to detect the causal effects provenance records: the
/// Adj-RIB-In size, the decision outcome, and the FIB entry, each rendered
/// once so comparisons are plain string equality.
#[derive(Debug, PartialEq, Eq)]
struct ProvState {
    rib_in: usize,
    decision: String,
    fib: String,
}

fn prov_state(dev: &SimDevice, prefix: Prefix) -> ProvState {
    let decision = match dev.daemon.loc_rib_entry(prefix) {
        Some(entry) => {
            let hops: Vec<String> = entry
                .nexthop_sessions()
                .iter()
                .map(|p| format!("d{}s{}", p.device(), p.session_index()))
                .collect();
            if hops.is_empty() {
                "local".to_string()
            } else {
                hops.join(",")
            }
        }
        None => "none".to_string(),
    };
    let fib = match dev.fib.entry(prefix) {
        Some(entry) => {
            let hops: Vec<String> = entry
                .nexthops
                .iter()
                .map(|(p, w)| format!("d{}s{}*{}", p.device(), p.session_index(), w))
                .collect();
            let warm = if entry.warm { " (warm)" } else { "" };
            format!("{}{}", hops.join(","), warm)
        }
        None => "none".to_string(),
    };
    ProvState {
        rib_in: dev.daemon.rib_in_count(prefix),
        decision,
        fib,
    }
}

/// Push one provenance step per observable change an event produced on its
/// device for the traced prefix.
fn push_prov_deltas(steps: &mut Vec<ProvStep>, before: &ProvState, after: &ProvState) {
    if before.rib_in != after.rib_in {
        steps.push((
            ProvenanceKind::AdjRibInChanged,
            None,
            format!("{} -> {} routes", before.rib_in, after.rib_in),
        ));
    }
    if before.decision != after.decision {
        steps.push((
            ProvenanceKind::DecisionFlip,
            None,
            format!("{} -> {}", before.decision, after.decision),
        ));
    }
    if before.fib != after.fib {
        steps.push((
            ProvenanceKind::FibDelta,
            None,
            format!("{} -> {}", before.fib, after.fib),
        ));
    }
}

/// Bucket bounds (ms) for per-prefix convergence latency.
const CONVERGENCE_MS_BOUNDS: &[f64] = &[0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0, 1000.0];

impl SimNet {
    /// Process a single event. Returns `false` when the queue is empty.
    ///
    /// A window with a budget of one event: the pop-order reference that
    /// [`run_until_quiescent`](Self::run_until_quiescent) and
    /// [`run_until`](Self::run_until), which take whole windows, must match.
    pub fn step(&mut self) -> bool {
        self.run_window(SimTime::MAX, 1) == 1
    }

    /// Run until the queue drains or the event cap hits.
    ///
    /// Events are taken a *window* at a time (see `run_window`), and the
    /// result is **bit-identical** to processing them one by one in pop
    /// order. The determinism argument:
    ///
    /// 1. Every message scheduled during a run lands at least one base
    ///    latency `L` after the event that produced it, so all events in the
    ///    window `[t0, t0 + L)` are already queued when the window opens and
    ///    nothing produced inside the window can land inside it. (In the
    ///    coalescing configuration the window stretches to three latencies,
    ///    with explicit cuts around the two event shapes that could violate
    ///    this — see `run_window` and `DESIGN.md` §9.)
    /// 2. Events targeting different devices within one window are causally
    ///    independent (all cross-device effects travel as messages, which
    ///    land beyond the window), so the work phase may run them grouped
    ///    by device; each device's events keep their pop order.
    /// 3. Device work never touches the RNG, the queue, or shared maps — it
    ///    returns each event's updates (and refresh requests), which the
    ///    merge phase replays through the normal `emit` path in global pop
    ///    order, reproducing every jitter/fault/shuffle draw, FIFO clamp and
    ///    queue sequence number. Journal events and provenance steps are held
    ///    with that output and appended in the same order.
    pub fn run_until_quiescent(&mut self) -> ConvergenceReport {
        let mut sp = self.telemetry.span("simnet", "converge");
        let mut n = 0u64;
        while n < MAX_EVENTS && !self.queue.is_empty() {
            n += self.run_window(SimTime::MAX, MAX_EVENTS - n);
        }
        let converged = self.queue.is_empty();
        self.publish_phases();
        if converged {
            self.observe_quiescence();
        }
        sp.arg("events", n);
        ConvergenceReport {
            converged,
            events_processed: n,
            finished_at: self.now,
        }
    }

    /// Run events with time ≤ `deadline` (for snapshotting transitory
    /// states). Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while self.queue.peek_time().is_some_and(|t| t <= deadline) {
            n += self.run_window(deadline, u64::MAX);
        }
        self.now = self.now.max(deadline);
        self.telemetry.set_now(self.now);
        self.publish_phases();
        n
    }

    /// Move whole microseconds of accumulated phase time to the
    /// `simnet.phase.*` counters, keeping the sub-µs remainder.
    fn publish_phases(&mut self) {
        for (ns, us) in self.phase_ns.iter_mut().zip(&self.counters.phase_us) {
            us.add(*ns / 1_000);
            *ns %= 1_000;
        }
    }

    /// Process one causality-safe window of events — at most `budget`, none
    /// later than `deadline` — in three phases: pre-pass (global bookkeeping,
    /// in pop order), device work (grouped by device), merge (emission
    /// replay, in pop order). Returns the number of events consumed. The
    /// only place a run pops the event queue.
    ///
    /// ## Window width
    ///
    /// The base window is one latency: everything in `[t0, t0 + L)` is
    /// already queued and causally independent across devices. When UPDATE
    /// coalescing is on — the default configuration — fresh coalesced
    /// batches are scheduled a full `3·L` out, so the window stretches to
    /// `[t0, t0 + 3L)` and carries roughly three times the events. Two *cuts*
    /// keep the wide window byte-identical to one-event windows:
    ///
    /// * a `RemoveRpa` ends the window: its replay may schedule route-refresh
    ///   requests one `L` out (a Route Filter removal), which could land
    ///   inside `3L` and must sort against later events in a fresh window;
    /// * a batch delivery is cut *out* of the window when any device that
    ///   already holds an in-window job is its emitter and the delivery is
    ///   at least `L` after that job — the job's replayed output would have
    ///   merged into the batch one event at a time (`emit_coalesced` merges
    ///   into batches at least one `L` away), but the pre-pass would already
    ///   have retired the payload. Deferring the delivery to the next window
    ///   restores the merge.
    ///
    /// Any prefix of a window's pop sequence is itself a valid window, which
    /// is all `budget` and `deadline` ever select.
    fn run_window(&mut self, deadline: SimTime, budget: u64) -> u64 {
        let Some(t0) = self.queue.peek_time() else {
            return 0;
        };
        let wide = self.cfg.coalesce_updates;
        let width = if wide {
            3 * BASE_LATENCY_US
        } else {
            BASE_LATENCY_US
        };
        let horizon = t0.saturating_add(width).min(deadline.saturating_add(1));

        // Phase 1 — pre-pass: pop the window and run the global-state side
        // of each event (counters, churn, origination bookkeeping,
        // device-existence checks), leaving the device-local rest in a slot.
        let pre_start = std::time::Instant::now();
        let sp_pre = self.telemetry.span("simnet", "window.pre");
        let mut slots: Vec<Slot> = Vec::new();
        let mut first_job_t: HashMap<DeviceId, SimTime> = HashMap::new();
        let mut cut = false;
        while !cut && (slots.len() as u64) < budget {
            match self.queue.peek() {
                Some((t, ev)) if t < horizon => {
                    if let NetEvent::DeliverBatch { on, .. } = ev {
                        let emitter = DeviceId(on.device());
                        if let Some(&te) = first_job_t.get(&emitter) {
                            if t >= te + BASE_LATENCY_US {
                                // In-window output from the emitter could
                                // still merge into this batch: defer it.
                                break;
                            }
                        }
                    }
                }
                _ => break,
            }
            let (t, ev) = self.queue.pop().expect("peeked event");
            debug_assert!(t >= self.now, "time must be monotonic");
            if wide {
                cut = matches!(ev, NetEvent::RemoveRpa { .. });
            }
            let slot = self.prepare(t, ev);
            if wide {
                if let Some(dev) = slot.dev {
                    first_job_t.entry(dev).or_insert(t);
                }
            }
            slots.push(slot);
        }
        drop(sp_pre);

        // Phase 2 — device work, grouped by device (ascending id), each
        // device's events in pop order.
        let work_start = std::time::Instant::now();
        let mut sp_work = self.telemetry.span("simnet", "window.work");
        let mut order: Vec<(DeviceId, usize)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((slot.dev?, i)))
            .collect();
        order.sort_unstable();
        for &(_, i) in &order {
            self.run_job(&mut slots[i]);
        }
        self.counters.window_jobs.observe(order.len() as u64);
        sp_work.arg("jobs", order.len() as u64);
        drop(sp_work);

        // Phase 3 — merge, in pop order.
        let merge_start = std::time::Instant::now();
        let sp_merge = self.telemetry.span("simnet", "window.merge");
        let events = slots.len() as u64;
        for slot in slots {
            self.finish(slot);
        }
        drop(sp_merge);

        let end = std::time::Instant::now();
        self.phase_ns[0] += (work_start - pre_start).as_nanos() as u64;
        self.phase_ns[1] += (merge_start - work_start).as_nanos() as u64;
        self.phase_ns[2] += (end - merge_start).as_nanos() as u64;
        self.counters.windows.inc();
        events
    }

    /// Process `ev` at the current time without queueing it, through the
    /// same prepare / work / merge steps a window's events take.
    pub(super) fn run_now(&mut self, ev: NetEvent) {
        let mut slot = self.prepare(self.now, ev);
        self.run_job(&mut slot);
        self.finish(slot);
    }

    /// Run a slot's device work, if it has any. Journal events and provenance
    /// steps the work produces are held in the slot. With span tracing on, the
    /// event gets a span named after its [`Work`] kind and the time it took
    /// lands in `simnet.event.latency_ns` and the device's busy counter; off,
    /// that costs two relaxed atomic loads.
    fn run_job(&mut self, slot: &mut Slot) {
        let (Some(dev_id), Some(work)) = (slot.dev, slot.work.take()) else {
            return;
        };
        let Self {
            devices,
            counters,
            topo,
            cfg,
            telemetry,
            provenance,
            fib_scratch,
            ..
        } = self;
        let dev = devices
            .get_mut(dev_id)
            .expect("prepared event targets a live device");
        telemetry.set_now(slot.t);
        let before = provenance.as_ref().map(|(p, _)| prov_state(dev, *p));
        let started = telemetry.tracing().then(std::time::Instant::now);
        let mut sp = telemetry.span("simnet.work", work_name(&work));
        sp.arg("device", dev_id.0 as u64);
        sp.arg("t_us", slot.t);
        let (output, mut journal) =
            telemetry.capture(|| run_work(dev, fib_scratch, slot.t, work, counters, topo, cfg));
        drop(sp);
        slot.output = output;
        slot.journal.append(&mut journal);
        if let (Some((p, _)), Some(before)) = (provenance.as_ref(), before) {
            push_prov_deltas(&mut slot.provenance, &before, &prov_state(dev, *p));
        }
        if let Some(started) = started {
            let ns = started.elapsed().as_nanos() as u64;
            counters.event_latency_ns.observe(ns);
            self.note_busy(dev_id, ns);
        }
    }

    /// Finish a slot: advance the clock to its event, hand its held journal
    /// events and provenance steps to their logs, and replay its output
    /// through the scheduling path at the event's time: the updates via
    /// `emit`, then any route-refresh requests one base latency out.
    fn finish(&mut self, slot: Slot) {
        self.now = slot.t;
        self.telemetry.set_now(slot.t);
        for event in slot.journal {
            self.telemetry.record(event);
        }
        let Some(dev) = slot.dev else {
            return;
        };
        if let Some((_, log)) = &self.provenance {
            for (kind, from_peer, detail) in slot.provenance {
                log.append(slot.t, dev.0, kind, from_peer, detail);
            }
        }
        let (updates, refresh) = slot.output;
        self.emit(dev, updates);
        for (to, on) in refresh {
            self.schedule_in(BASE_LATENCY_US, NetEvent::RouteRefreshRequest { to, on });
        }
    }

    /// The pre-pass of one event at its own timestamp `t`: device-existence
    /// check, global counters and bookkeeping, leaving the device-local
    /// remainder as a [`Work`] job in the returned slot — or none when the
    /// event is a no-op (target device gone).
    fn prepare(&mut self, t: SimTime, ev: NetEvent) -> Slot {
        self.telemetry.set_now(t);
        let mut slot = Slot {
            t,
            dev: None,
            work: None,
            output: Output::default(),
            journal: Vec::new(),
            provenance: Vec::new(),
        };
        if let Some((dev, work)) = self.prepare_inner(t, ev, &mut slot) {
            slot.dev = Some(dev);
            slot.work = Some(work);
        }
        slot
    }

    fn prepare_inner(
        &mut self,
        t: SimTime,
        ev: NetEvent,
        slot: &mut Slot,
    ) -> Option<(DeviceId, Work)> {
        match ev {
            NetEvent::DeliverBatch { to, on, batch } => {
                // Always retire the side-table state — even when the target
                // device is gone, leaving the payload behind would leak and
                // leaving the open-batch entry behind would merge future
                // output into a batch that will never be delivered again.
                let msg = self.batches.remove(&batch)?;
                let key = (DeviceId(on.device()), to, on.session_index());
                if let Some(&(id, _)) = self.open_batch.get(&key) {
                    if id == batch {
                        self.open_batch.remove(&key);
                    }
                }
                if !self.devices.contains_key(to) {
                    return None;
                }
                self.counters.batches_delivered.inc();
                let size = (msg.announced.len() + msg.withdrawn.len()) as u64;
                self.max_batch_size = self.max_batch_size.max(size);
                self.counters.batch_routes.observe(size);
                Some(self.arrive(t, to, on, msg, &mut slot.provenance))
            }
            NetEvent::Deliver { to, on, msg } => {
                if !self.devices.contains_key(to) {
                    return None;
                }
                Some(self.arrive(t, to, on, msg, &mut slot.provenance))
            }
            NetEvent::SessionUp { dev, peer } => {
                if !self.devices.contains_key(dev) {
                    return None;
                }
                self.counters.session_events.inc();
                Self::note_session_transition(&self.telemetry, &mut slot.journal, dev, peer, "up");
                Some((dev, Work::SessionUp { peer }))
            }
            NetEvent::SessionDown { dev, peer } => {
                if !self.devices.contains_key(dev) {
                    return None;
                }
                self.counters.session_events.inc();
                Self::note_session_transition(
                    &self.telemetry,
                    &mut slot.journal,
                    dev,
                    peer,
                    "down",
                );
                Some((dev, Work::SessionDown { peer }))
            }
            NetEvent::RouteRefreshRequest { to, on } => {
                if !self.devices.contains_key(to) {
                    return None;
                }
                Some((to, Work::RouteRefresh { on }))
            }
            NetEvent::RemovePeer { dev, peer } => {
                if !self.devices.contains_key(dev) {
                    return None;
                }
                self.counters.session_events.inc();
                Self::note_session_transition(
                    &self.telemetry,
                    &mut slot.journal,
                    dev,
                    peer,
                    "removed",
                );
                Some((dev, Work::RemovePeer { peer }))
            }
            NetEvent::InstallRpa { dev, doc } => {
                if !self.devices.contains_key(dev) {
                    return None;
                }
                self.counters.rpa_operations.inc();
                if self.provenance.is_some() {
                    let detail = format!("install {}", doc.name());
                    slot.provenance
                        .push((ProvenanceKind::RpaApplied, None, detail));
                }
                Some((dev, Work::InstallRpa { doc }))
            }
            NetEvent::RemoveRpa { dev, name } => {
                if !self.devices.contains_key(dev) {
                    return None;
                }
                self.counters.rpa_operations.inc();
                if self.provenance.is_some() {
                    let detail = format!("remove {name}");
                    slot.provenance
                        .push((ProvenanceKind::RpaApplied, None, detail));
                }
                Some((dev, Work::RemoveRpa { name }))
            }
            NetEvent::Originate { dev, prefix, attrs } => {
                if !self.devices.contains_key(dev) {
                    return None;
                }
                self.originators.entry(prefix).or_default().insert(dev);
                self.origin_time.entry(prefix).or_insert(t);
                Some((dev, Work::Originate { prefix, attrs }))
            }
            NetEvent::WithdrawOrigin { dev, prefix } => {
                if !self.devices.contains_key(dev) {
                    return None;
                }
                if let Some(set) = self.originators.get_mut(&prefix) {
                    set.remove(&dev);
                }
                Some((dev, Work::WithdrawOrigin { prefix }))
            }
            NetEvent::SetExportPolicy { dev, policy } => {
                if !self.devices.contains_key(dev) {
                    return None;
                }
                Some((dev, Work::SetExportPolicy { policy }))
            }
            NetEvent::AgentRestart { dev } => {
                if !self.devices.contains_key(dev) {
                    return None;
                }
                self.counters.agent_restarts.inc();
                Some((dev, Work::AgentRestart))
            }
            NetEvent::Reevaluate { dev } => {
                if !self.devices.contains_key(dev) {
                    return None;
                }
                Some((dev, Work::Reevaluate))
            }
        }
    }

    /// Fold per-run observations into the metrics registry at quiescence:
    /// per-prefix convergence latency (origination → last UPDATE carrying
    /// the prefix) and the RIB/FIB size gauges. Runs once per convergence
    /// barrier, so the device walk is off every hot path.
    fn observe_quiescence(&mut self) {
        if !self.last_update.is_empty() {
            let hist = self
                .telemetry
                .metrics()
                .histogram("simnet.prefix_convergence_ms", CONVERGENCE_MS_BOUNDS);
            for (prefix, &last) in &self.last_update {
                if let Some(&origin) = self.origin_time.get(prefix) {
                    if last >= origin {
                        hist.observe((last - origin) as f64 / 1_000.0);
                    }
                }
            }
        }
        self.origin_time.clear();
        self.last_update.clear();
        let (mut adj_rib_in, mut loc_rib, mut nhgs) = (0i64, 0i64, 0i64);
        let mut rib_in_fp = centralium_bgp::RibFootprint::default();
        let mut rib_out_fp = centralium_bgp::RibFootprint::default();
        for dev in self.devices.values() {
            adj_rib_in += dev.daemon.adj_rib_in_len() as i64;
            loc_rib += dev.daemon.loc_rib_len() as i64;
            nhgs += dev.fib.nhg_stats().current_groups as i64;
            let (fin, fout) = dev.daemon.rib_footprints();
            rib_in_fp.peer_refs += fin.peer_refs;
            rib_in_fp.bytes += fin.bytes;
            rib_out_fp.peer_refs += fout.peer_refs;
            rib_out_fp.bytes += fout.bytes;
        }
        let m = self.telemetry.metrics();
        m.gauge("bgp.adj_rib_in_total").set(adj_rib_in);
        m.gauge("bgp.loc_rib_total").set(loc_rib);
        m.gauge("fib.nexthop_groups_total").set(nhgs);
        m.gauge("simnet.max_batch_size")
            .set(self.max_batch_size as i64);
        // Memory accounting, sampled at the same phase boundary. The
        // adjacency-RIB gauges count table storage only: the attribute
        // bodies are shared with their senders and counted nowhere. The
        // scheduler and arena gauges are *capacity*-based — calendar bucket
        // arrays and arena slot vectors keep their allocations across
        // windows, and that retained capacity (not the momentary occupancy)
        // is what a memory budget must provision for.
        m.gauge("mem.adj_rib_in_bytes").set(rib_in_fp.bytes as i64);
        m.gauge("mem.adj_rib_out_bytes")
            .set(rib_out_fp.bytes as i64);
        m.gauge("bgp.peer_refs")
            .set((rib_in_fp.peer_refs + rib_out_fp.peer_refs) as i64);
        m.gauge("mem.event_queue_hwm")
            .set(self.queue.high_water_mark() as i64);
        m.gauge("mem.event_queue_bytes")
            .set(self.queue.footprint_bytes() as i64);
        m.gauge("mem.device_arena_bytes").set(
            (self.devices.footprint_bytes()
                + self.churn.footprint_bytes()
                + self.busy.footprint_bytes()) as i64,
        );
    }

    /// The pre-pass side of an UPDATE arriving at live device `to` on its
    /// session `on`, batched or not: delivery and announce/withdraw counters,
    /// the receiver's churn counter, provenance arrival steps, and the last
    /// update time of every originated prefix it carries. Returns the job.
    fn arrive(
        &mut self,
        t: SimTime,
        to: DeviceId,
        on: PeerId,
        msg: UpdateMessage,
        steps: &mut Vec<ProvStep>,
    ) -> (DeviceId, Work) {
        self.counters.messages_delivered.inc();
        self.counters.announcements.add(msg.announced.len() as u64);
        self.counters.withdrawals.add(msg.withdrawn.len() as u64);
        self.note_churn(to);
        self.note_provenance_arrival(steps, on, &msg);
        if !self.origin_time.is_empty() {
            let carried = msg.announced.iter().map(|(p, _)| p).chain(&msg.withdrawn);
            for p in carried {
                if self.origin_time.contains_key(p) {
                    self.last_update.insert(*p, t);
                }
            }
        }
        (to, Work::Deliver { on, msg })
    }

    /// Bump the per-device UPDATE-churn counter for `dev`, binding the
    /// registry handle on first use. Written without `entry()` because the
    /// bind closure would need `&self.telemetry` while `self.churn` is
    /// mutably borrowed.
    fn note_churn(&mut self, dev: DeviceId) {
        if let Some(c) = self.churn.get(dev) {
            c.inc();
        } else {
            let c = self
                .telemetry
                .metrics()
                .counter(&format!("simnet.device.d{}.updates", dev.0));
            c.inc();
            self.churn.insert(dev, c);
        }
    }

    /// Accumulate device-processing wall time for `dev` (only called while
    /// span tracing is enabled — two clock reads per event otherwise).
    fn note_busy(&mut self, dev: DeviceId, ns: u64) {
        if let Some(c) = self.busy.get(dev) {
            c.add(ns);
        } else {
            let c = self
                .telemetry
                .metrics()
                .counter(&format!("simnet.device.d{}.busy_ns", dev.0));
            c.add(ns);
            self.busy.insert(dev, c);
        }
    }

    /// Note UPDATE/withdraw arrivals carrying the traced prefix as provenance
    /// steps of the event. A no-op (one `Option` check) when no trace is
    /// armed.
    fn note_provenance_arrival(&self, steps: &mut Vec<ProvStep>, on: PeerId, msg: &UpdateMessage) {
        let Some((prefix, _)) = &self.provenance else {
            return;
        };
        let from = Some(on.device());
        if msg.announced.iter().any(|(p, _)| p == prefix) {
            steps.push((
                ProvenanceKind::UpdateReceived,
                from,
                format!(
                    "announcement from d{} session {}",
                    on.device(),
                    on.session_index()
                ),
            ));
        }
        if msg.withdrawn.contains(prefix) {
            steps.push((
                ProvenanceKind::WithdrawReceived,
                from,
                format!(
                    "withdraw from d{} session {}",
                    on.device(),
                    on.session_index()
                ),
            ));
        }
    }

    /// Note a session lifecycle change (up / down / removed) as a journal
    /// event of the event being prepared.
    fn note_session_transition(
        telemetry: &Telemetry,
        journal: &mut Vec<Event>,
        dev: DeviceId,
        peer: PeerId,
        state: &str,
    ) {
        if telemetry.journal_enabled() {
            journal.push(
                telemetry
                    .event(EventKind::SessionTransition, Severity::Info)
                    .field("device", format!("d{}", dev.0))
                    .field("neighbor", format!("d{}", peer.device()))
                    .field("session", peer.session_index())
                    .field("state", state),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_bgp::attrs::well_known;
    use centralium_bgp::{BgpDaemon, Community, Route};
    use centralium_rpa::{
        Destination, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature,
        PeerSignature, PrefixFilter, RouteAttributeRpa, RouteAttributeStatement, RouteFilterRpa,
        RouteFilterStatement,
    };
    use centralium_topology::{build_fabric, FabricSpec};
    use serde::{Deserialize, Serialize};

    fn rack(pod: u32, rack: u32) -> Prefix {
        Prefix::new(0x0A00_0000 | pod << 16 | rack << 8, 24)
    }

    /// The scope as computed before the ordered walk: every known prefix's
    /// candidates materialized, and a destination applying when it names
    /// the prefix or a candidate carries its community. The known prefixes
    /// are found by probing every prefix of `universe` (ascending), not by
    /// the walk.
    fn reference_scope(dev: &SimDevice, docs: &[&RpaDocument], universe: &[Prefix]) -> RpaScope {
        let mut dests = Vec::new();
        let mut ingress = false;
        for doc in docs {
            match doc {
                RpaDocument::RouteFilter(rf) if rf.constrains_egress() => return RpaScope::Full,
                RpaDocument::RouteFilter(_) => ingress = true,
                _ => dests.extend(doc.destinations().expect("bounded destinations")),
            }
        }
        for name in dev.engine.installed() {
            let doc = dev.engine.document(name).expect("installed");
            if doc.time_dependent() {
                dests.extend(doc.destinations().expect("bounded destinations"));
            }
        }
        let applies = |d: &Destination, prefix: Prefix, candidates: &[Route]| match d {
            Destination::Community(c) => candidates.iter().any(|r| r.attrs.has_community(*c)),
            Destination::PrefixExact(p) => *p == prefix,
            Destination::PrefixWithin(p) => p.contains(&prefix),
            Destination::Any => true,
        };
        let daemon = &dev.daemon;
        let known: Vec<Prefix> = universe
            .iter()
            .copied()
            .filter(|&p| {
                daemon.rib_in_count(p) > 0
                    || daemon.origination(p).is_some()
                    || daemon.loc_rib_entry(p).is_some()
            })
            .collect();
        assert_eq!(daemon.known_prefixes(), known, "d{}", dev.id.0);
        let scope = known
            .into_iter()
            .filter(|&p| {
                let candidates = daemon.candidates(p);
                dests.iter().any(|d| applies(d, p, &candidates))
            })
            .collect();
        if ingress {
            RpaScope::Filtered(scope)
        } else {
            RpaScope::Prefixes(scope)
        }
    }

    /// Restore `dev`'s daemon from a snapshot that lost `prefix`'s
    /// Adj-RIB-In routes: its Loc-RIB entry survives with no route behind it.
    fn strand_loc_rib_entry(dev: &mut SimDevice, prefix: Prefix) {
        let mut snapshot = dev.daemon.serialize();
        let serde::Value::Object(fields) = &mut snapshot else {
            panic!("a daemon serializes as an object");
        };
        let Some(serde::Value::Array(routes)) = fields.get_mut("adj_rib_in") else {
            panic!("the Adj-RIB-In serializes as a route list");
        };
        let key = prefix.serialize();
        routes.retain(|route| route.get("prefix") != Some(&key));
        dev.daemon = BgpDaemon::deserialize(&snapshot).expect("snapshot round-trips");
        assert!(dev.daemon.loc_rib_entry(prefix).is_some() && dev.daemon.rib_in_count(prefix) == 0);
    }

    fn select(name: &str, destination: Destination) -> RpaDocument {
        RpaDocument::PathSelection(PathSelectionRpa::single(
            name,
            PathSelectionStatement::select(
                destination,
                vec![PathSet::new("all", PathSignature::any())],
            ),
        ))
    }

    fn filter(name: &str, ingress: bool) -> RpaDocument {
        let allow = Some(vec![PrefixFilter::within(Prefix::DEFAULT, 24)]);
        RpaDocument::RouteFilter(RouteFilterRpa {
            name: name.into(),
            statements: vec![RouteFilterStatement {
                peer_signature: PeerSignature::Any,
                ingress_filter: if ingress { allow.clone() } else { None },
                egress_filter: if ingress { None } else { allow },
            }],
        })
    }

    /// `rpa_scope` on the ordered walk equals the materialized scan on a
    /// converged `large` fabric with every rack's `/24`: community
    /// destinations present and absent, the three prefix forms, a
    /// time-dependent Route Attribute document joining every scope, and
    /// ingress / egress Route Filters — on a rack switch (whose own prefix
    /// is an origination only), a fabric switch holding a Loc-RIB entry no
    /// route backs, and a spine.
    #[test]
    fn rpa_scope_matches_the_materialized_candidate_scan() {
        let (topo, idx, _) = build_fabric(&FabricSpec::large());
        let mut net = SimNet::new(
            topo,
            SimConfig {
                seed: 7,
                ..Default::default()
            },
        );
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        let mut universe = vec![Prefix::DEFAULT];
        for (pod, racks) in idx.rsw.iter().enumerate() {
            for (r, &rsw) in racks.iter().enumerate() {
                let prefix = rack(pod as u32, r as u32);
                net.originate(rsw, prefix, [well_known::RACK_PREFIX]);
                universe.push(prefix);
            }
        }
        universe.sort_unstable();
        net.run_until_quiescent().expect_converged();

        let (rsw, fsw, ssw) = (idx.rsw[0][0], idx.fsw[1][0], idx.ssw[0][0]);
        let stranded = rack(2, 1);
        strand_loc_rib_entry(net.device_mut(fsw).unwrap(), stranded);

        let docs = [
            select(
                "backbone",
                Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
            ),
            select("racks", Destination::Community(well_known::RACK_PREFIX)),
            select(
                "absent",
                Destination::Community(Community::from_pair(65000, 99)),
            ),
            select("exact", Destination::PrefixExact(rack(1, 3))),
            select("stranded", Destination::PrefixExact(stranded)),
            select(
                "pod",
                Destination::PrefixWithin(Prefix::new(0x0A02_0000, 16)),
            ),
            select("any", Destination::Any),
            filter("ingress", true),
            filter("egress", false),
        ];
        let [backbone, racks, _, exact, on_stranded, .., ingress, _] = &docs;
        // The two sources a walk could miss decide these: the rack switch's
        // own prefix is an origination only, and the stranded entry is in
        // the Loc-RIB only.
        let RpaScope::Prefixes(tagged) = rpa_scope(net.device(rsw).unwrap(), &[racks]) else {
            panic!("a community destination scopes by prefix");
        };
        assert!(tagged.contains(&rack(0, 0)) && tagged.len() == universe.len() - 1);
        assert_eq!(
            rpa_scope(net.device(fsw).unwrap(), &[on_stranded]),
            RpaScope::Prefixes(vec![stranded])
        );
        let mut cases: Vec<Vec<&RpaDocument>> = docs.iter().map(|d| vec![d]).collect();
        cases.push(vec![]);
        cases.push(vec![racks, exact]);
        cases.push(vec![ingress, backbone]);
        let timed = RpaDocument::RouteAttribute(RouteAttributeRpa::single(
            "timed",
            RouteAttributeStatement::new(
                Destination::PrefixWithin(Prefix::new(0x0A03_0000, 16)),
                vec![],
            )
            .expires_at(60 * crate::event::SECONDS),
        ));

        for id in [rsw, fsw, ssw] {
            for with_timed in [false, true] {
                if with_timed {
                    let dev = net.device_mut(id).unwrap();
                    dev.engine.install_or_replace(timed.clone()).unwrap();
                }
                let dev = net.device(id).unwrap();
                for docs in &cases {
                    assert_eq!(
                        rpa_scope(dev, docs),
                        reference_scope(dev, docs, &universe),
                        "d{} with {:?} (timed document installed: {with_timed})",
                        id.0,
                        docs.iter().map(|d| d.name()).collect::<Vec<_>>(),
                    );
                }
            }
        }
    }
}
