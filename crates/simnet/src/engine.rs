//! The run loop of [`SimNet`]: causality-safe windows of events, each taken
//! through a pre-pass (global bookkeeping, pop order), device work (grouped
//! by device) and a merge (emission replay, pop order). `net.rs` keeps
//! construction, administrative operations and the emit/coalesce path.

use super::{BatchSlab, NetCounters, NetEvent, SimConfig, SimNet, BASE_LATENCY_US, MAX_EVENTS};
use crate::arena::DenseMap;
use crate::device::SimDevice;
use crate::event::SimTime;
use crate::fib::FibScratch;
use crate::trace::ConvergenceReport;
use centralium_bgp::policy::Policy;
use centralium_bgp::{BgpDaemon, Outbox, PeerId, Prefix, UpdateMessage};
use centralium_rpa::{Destination, RpaDocument, RpaEngine};
use centralium_telemetry::{Counter, Event, EventKind, Severity, Telemetry};
use centralium_topology::{DeviceId, Topology};
use std::borrow::Borrow;
use std::ops::Range;
use std::sync::Arc;

/// One popped event on its way through a window: what the pre-pass left for
/// the device, where the device's output went, and what the journal is owed
/// — all held until the merge phase reaches the event in pop order. The
/// merge replays the output in global pop order — the writes through
/// [`SimNet::emit`], the refresh requests one base latency out — so every
/// RNG draw (jitter, split shuffles), FIFO clamp and queue sequence
/// number lands exactly as it would processing one event at a time.
#[derive(Debug)]
struct Slot {
    /// The event's own timestamp.
    t: SimTime,
    /// Target device; `None` when the event was a no-op (device gone).
    dev: Option<DeviceId>,
    /// The event as the device runs it, taken by the work phase. A batch
    /// delivery's payload stays in the batch slab until then.
    work: Option<NetEvent>,
    /// The writes of the window's outbox the work phase made.
    writes: Range<u32>,
    /// The device's sessions whose neighbors are asked for a route refresh
    /// (a Route Filter removal's).
    refresh: Vec<PeerId>,
    /// Journal events of the pre-pass and the work phase, provenance steps
    /// included.
    events: Vec<Event>,
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 96);

/// A window's working memory, kept from window to window and dropped at
/// quiescence: its slots in pop order, the slots' device order, and the
/// outbox the jobs write into.
#[derive(Debug, Default)]
pub(super) struct Window {
    slots: Vec<Slot>,
    order: Vec<(DeviceId, u32)>,
    outbox: Outbox,
}

/// What every job reads beside its device.
#[derive(Clone, Copy)]
struct JobContext<'a> {
    counters: &'a NetCounters,
    topo: &'a Topology,
    cfg: &'a SimConfig,
}

/// Execute the device-local part of one event, writing the daemon's output
/// into `out` and returning the sessions to ask for a route refresh. Touches
/// only `dev`, its batch's payload, read-only context, and atomic counters —
/// never the RNG, the event queue, or cross-device state, which is what lets
/// a window run its events grouped by device without changing the outcome.
fn run_work(
    dev: &mut SimDevice,
    scratch: &mut FibScratch,
    out: &mut Outbox,
    batches: &mut BatchSlab,
    t: SimTime,
    work: NetEvent,
    cx: JobContext<'_>,
) -> Vec<PeerId> {
    match work {
        NetEvent::DeliverBatch { on, batch, .. } => {
            let msg = batches
                .take(batch)
                .expect("a prepared batch keeps its payload until its job");
            dev.decide(scratch, out, |dm, e| dm.ingest(on, msg, e));
        }
        NetEvent::SessionUp { peer, .. } => {
            for (peer, msg) in dev.daemon.peer_up(peer, &dev.engine) {
                out.push(peer, msg);
            }
        }
        NetEvent::SessionDown { peer, .. } => dev.decide(scratch, out, |dm, _| dm.peer_down(peer)),
        NetEvent::RouteRefreshRequest { on, .. } => {
            // The establishment check must run here, not in the pre-pass: an
            // earlier event in the same window may have dropped the session.
            if dev.daemon.is_established(on) {
                out.push(on, dev.daemon.full_advertisement(on));
            }
        }
        NetEvent::RemovePeer { peer, .. } => dev.decide(scratch, out, |dm, _| dm.remove_peer(peer)),
        NetEvent::InstallRpa { doc, .. } => {
            // Dirty-prefix frontier: combine the scopes of the incoming
            // document and (on a replace) the one it displaces — the old
            // document's prefixes must re-decide too, since its effect is
            // being withdrawn.
            let scope = match dev.engine.document(doc.name()) {
                Some(old) => rpa_scope(dev, &[old, doc.as_ref()]),
                None => rpa_scope(dev, &[doc.as_ref()]),
            };
            match dev.engine.install(*doc) {
                Ok(()) => {
                    // A document that arrives at or after a deadline of its
                    // own is born expired.
                    let expired = dev.engine.expire(t);
                    dev.decide(scratch, out, |dm, e| {
                        mark_scope(dm, e, scope, cx.counters);
                        mark_applicable(dm, &expired);
                    });
                }
                Err(_) => cx.counters.rpa_failures.inc(),
            }
        }
        NetEvent::RemoveRpa { name, .. } => {
            // Scope must come from the document *before* removal — after it,
            // the engine no longer knows which prefixes it governed.
            // Removing an ingress-only Route Filter only *relaxes* admission:
            // routes already held keep passing (no purge needed), and routes
            // the filter had evicted come back via the refresh requests
            // returned below. No decision can flip right now.
            let scope = match dev.engine.document(&name) {
                Some(RpaDocument::RouteFilter(rf)) if !rf.constrains_egress() => {
                    RpaScope::Prefixes(Vec::new())
                }
                Some(RpaDocument::RouteFilter(_)) => RpaScope::Full,
                Some(old) => rpa_scope(dev, &[old]),
                None => RpaScope::Full,
            };
            let Ok(removed) = dev.engine.remove(&name) else {
                cx.counters.rpa_failures.inc();
                return Vec::new();
            };
            dev.decide(scratch, out, |dm, e| mark_scope(dm, e, scope, cx.counters));
            if matches!(removed, RpaDocument::RouteFilter(_)) {
                return dev.daemon.peer_ids();
            }
        }
        NetEvent::ExpireRpa { .. } => {
            let expired = dev.engine.expire(t);
            if !expired.is_empty() {
                dev.decide(scratch, out, |dm, _| mark_applicable(dm, &expired));
            }
        }
        NetEvent::Originate { prefix, attrs, .. } => {
            dev.decide(scratch, out, |dm, _| dm.originate(prefix, *attrs));
        }
        NetEvent::WithdrawOrigin { prefix, .. } => {
            dev.decide(scratch, out, |dm, _| dm.withdraw_origin(prefix));
        }
        NetEvent::SetExportPolicy { policy, .. } => {
            let peers = dev.daemon.peer_ids();
            let composed: Vec<(PeerId, Arc<Policy>)> = peers
                .iter()
                .map(|&peer| {
                    let base = SimNet::base_export_policy_for(
                        cx.topo,
                        cx.cfg.valley_free_policies,
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
            dev.decide(scratch, out, |dm, _| {
                for (peer, p) in composed {
                    dm.set_export_policy(peer, p);
                }
                // An export-policy swap changes no RPA state, so the eviction
                // invariant holds and a purge would be a no-op — skip the
                // O(RIB) scan and mark every known prefix directly.
                dm.mark(dm.known_prefixes());
            });
        }
        NetEvent::AgentRestart { .. } => {
            let installed: Vec<String> = dev
                .engine
                .installed()
                .into_iter()
                .map(str::to_string)
                .collect();
            for name in installed {
                let _ = dev.engine.remove(&name);
            }
            dev.decide(scratch, out, mark_all);
        }
        NetEvent::Reevaluate { .. } => dev.decide(scratch, out, mark_all),
    }
    Vec::new()
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
///   the purged prefixes plus the other documents' destination scopes.
fn rpa_scope(dev: &SimDevice, docs: &[&RpaDocument]) -> RpaScope {
    let mut dests: Vec<&Destination> = Vec::new();
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
    let scope = applicable(&dev.daemon, &dests);
    if ingress {
        RpaScope::Filtered(scope)
    } else {
        RpaScope::Prefixes(scope)
    }
}

/// The known prefixes on `daemon` some destination
/// [`applies`](centralium_rpa::Destination::applies) to, found in one ordered
/// walk of [`BgpDaemon::known`] with the candidates read in place.
fn applicable<D: Borrow<Destination>>(daemon: &BgpDaemon, dests: &[D]) -> Vec<Prefix> {
    if dests.is_empty() {
        return Vec::new();
    }
    daemon
        .known()
        .filter(|(prefix, candidates)| {
            dests.iter().any(|d| {
                d.borrow()
                    .applies(*prefix, |c| candidates.any(|attrs| attrs.has_community(c)))
            })
        })
        .map(|(prefix, _)| prefix)
        .collect()
}

/// Mark the known prefixes an expired statement's destination applies to.
fn mark_applicable(dm: &mut BgpDaemon, expired: &[Destination]) {
    let prefixes = applicable(dm, expired);
    dm.mark(prefixes);
}

/// Mark what the computed scope re-decides. Scoped marks are
/// behavior-identical to full ones: out-of-scope prefixes' decisions cannot
/// change (their candidate sets are untouched — for the filtered variant the
/// purge itself proves it), and the Adj-RIB-Out diff suppresses
/// re-announcing unchanged routes either way.
fn mark_scope(dm: &mut BgpDaemon, e: &RpaEngine, scope: RpaScope, counters: &NetCounters) {
    match scope {
        RpaScope::Prefixes(prefixes) => {
            counters.rpa_scoped_reevals.inc();
            dm.mark(prefixes);
        }
        RpaScope::Filtered(prefixes) => {
            counters.rpa_scoped_reevals.inc();
            dm.purge_ingress(e);
            dm.mark(prefixes);
        }
        RpaScope::Full => {
            counters.rpa_full_reevals.inc();
            mark_all(dm, e);
        }
    }
}

/// The marks of [`BgpDaemon::reevaluate_all`]: purge, then every known prefix.
fn mark_all(dm: &mut BgpDaemon, e: &RpaEngine) {
    dm.purge_ingress(e);
    dm.mark(dm.known_prefixes());
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
                .fib_nexthops()
                .map(|(p, _)| format!("d{}s{}", p.device(), p.session_index()))
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

/// A provenance event of the traced `prefix` on `dev`, stamped with the
/// handle's clock (the event being processed).
fn prov_event(tel: &Telemetry, kind: EventKind, dev: DeviceId, prefix: Prefix) -> Event {
    tel.event(kind, Severity::Debug)
        .field("device", format!("d{}", dev.0))
        .field("prefix", prefix.to_string())
}

/// Push one provenance event per observable change an event produced on
/// device `dev` for the traced `prefix`.
fn push_prov_deltas(
    events: &mut Vec<Event>,
    tel: &Telemetry,
    dev: DeviceId,
    prefix: Prefix,
    before: &ProvState,
    after: &ProvState,
) {
    let mut push = |kind, detail: String| {
        events.push(prov_event(tel, kind, dev, prefix).field("detail", detail));
    };
    if before.rib_in != after.rib_in {
        let detail = format!("{} -> {} routes", before.rib_in, after.rib_in);
        push(EventKind::AdjRibInChanged, detail);
    }
    if before.decision != after.decision {
        push(
            EventKind::DecisionFlip,
            format!("{} -> {}", before.decision, after.decision),
        );
    }
    if before.fib != after.fib {
        push(
            EventKind::FibDelta,
            format!("{} -> {}", before.fib, after.fib),
        );
    }
}

/// Device `dev`'s busy-time counter `simnet.device.d<N>.busy_ns` in
/// `counters`, bound in `tel`'s registry on first use.
fn busy_counter<'a>(
    counters: &'a mut DenseMap<Counter>,
    tel: &Telemetry,
    dev: DeviceId,
) -> &'a Counter {
    if !counters.contains_key(dev) {
        let name = format!("simnet.device.d{}.busy_ns", dev.0);
        counters.insert(dev, tel.metrics().counter(&name));
    }
    &counters[dev]
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
    ///    nothing produced inside the window can land inside it.
    /// 2. Events targeting different devices within one window are causally
    ///    independent (all cross-device effects travel as messages, which
    ///    land beyond the window), so the work phase may run them grouped
    ///    by device; each device's events keep their pop order.
    /// 3. Device work never touches the RNG, the queue, or shared maps — it
    ///    returns each event's updates (and refresh requests), which the
    ///    merge phase replays through the normal `emit` path in global pop
    ///    order, reproducing every jitter/shuffle draw, FIFO clamp and
    ///    queue sequence number. Journal events, provenance steps included,
    ///    are held with that output and recorded in the same order.
    pub fn run_until_quiescent(&mut self) -> ConvergenceReport {
        let mut sp = self.telemetry.span("simnet", "converge");
        let mut n = 0u64;
        while n < MAX_EVENTS && !self.queue.is_empty() {
            n += self.run_window(SimTime::MAX, MAX_EVENTS - n);
        }
        let converged = self.queue.is_empty();
        self.publish_phases();
        if converged {
            self.queue.shrink();
            self.batches.slots.shrink_to_fit();
            self.window = Window::default();
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
    /// A window is one latency wide, `[t0, t0 + L)`. Every emission lands at
    /// least `L` after its cause — a split piece `L` + jitter out, a fresh
    /// coalesced batch `3L` + jitter, a route-refresh request `L` — so the
    /// whole window is queued when it opens and none of its output lands in
    /// it. A batch popped here is closed to the window's output too: its
    /// delivery is under `t0 + L`, and `emit` merges only into batches at
    /// least `L` away from the emitting event. Any prefix of a window's pop
    /// sequence is itself a valid window, which is all `budget` and
    /// `deadline` ever select.
    fn run_window(&mut self, deadline: SimTime, budget: u64) -> u64 {
        let Some(t0) = self.queue.peek_time() else {
            return 0;
        };
        let horizon = t0
            .saturating_add(BASE_LATENCY_US)
            .min(deadline.saturating_add(1));

        // Phase 1 — pre-pass: pop the window and run the global-state side
        // of each event (counters, origination bookkeeping,
        // device-existence checks), leaving the device-local rest in a slot.
        let pre_start = std::time::Instant::now();
        let sp_pre = self.telemetry.span("simnet", "window.pre");
        let mut w = std::mem::take(&mut self.window);
        while (w.slots.len() as u64) < budget && self.queue.peek_time().is_some_and(|t| t < horizon)
        {
            let (t, ev) = self.queue.pop().expect("peeked event");
            debug_assert!(t >= self.now, "time must be monotonic");
            w.slots.push(self.prepare(t, ev));
        }
        drop(sp_pre);

        // Phase 2 — device work, grouped by device (ascending id), each
        // device's events in pop order.
        let work_start = std::time::Instant::now();
        let mut sp_work = self.telemetry.span("simnet", "window.work");
        let jobs = w.slots.iter().enumerate();
        w.order
            .extend(jobs.filter_map(|(i, slot)| Some((slot.dev?, i as u32))));
        w.order.sort_unstable();
        for &(_, i) in &w.order {
            self.run_job(&mut w.slots[i as usize], &mut w.outbox);
        }
        self.counters.window_jobs.observe(w.order.len() as u64);
        sp_work.arg("jobs", w.order.len() as u64);
        drop(sp_work);

        // Phase 3 — merge, in pop order.
        let merge_start = std::time::Instant::now();
        let sp_merge = self.telemetry.span("simnet", "window.merge");
        let events = w.slots.len() as u64;
        for slot in w.slots.drain(..) {
            self.finish(slot, &mut w.outbox);
        }
        w.order.clear();
        w.outbox.clear();
        self.window = w;
        drop(sp_merge);
        debug_assert!(
            events == budget || self.queue.peek_time().is_none_or(|t| t >= horizon),
            "a window's output landed inside it"
        );

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
        let mut w = std::mem::take(&mut self.window);
        self.run_job(&mut slot, &mut w.outbox);
        self.finish(slot, &mut w.outbox);
        w.outbox.clear();
        self.window = w;
    }

    /// Run a slot's device work, if it has any, into the window's outbox,
    /// noting in the slot the writes it made. The journal events the work
    /// records, and the provenance steps it causes while a prefix is traced,
    /// are held in the slot. With span tracing on, the
    /// event gets a span named after its kind and the time it took
    /// lands in `simnet.event.latency_ns` and the device's busy counter; off,
    /// that costs two relaxed atomic loads.
    fn run_job(&mut self, slot: &mut Slot, outbox: &mut Outbox) {
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
            batches,
            busy,
            ..
        } = self;
        let dev = devices
            .get_mut(dev_id)
            .expect("prepared event targets a live device");
        telemetry.set_now(slot.t);
        let traced = provenance.filter(|_| telemetry.journal_enabled());
        let before = traced.map(|p| prov_state(dev, p));
        let started = telemetry.tracing().then(std::time::Instant::now);
        let mut sp = telemetry.span("simnet.work", work.name());
        sp.arg("device", dev_id.0 as u64);
        sp.arg("t_us", slot.t);
        let cx = JobContext {
            counters,
            topo,
            cfg,
        };
        let first = outbox.writes() as u32;
        let (refresh, mut events) =
            telemetry.capture(|| run_work(dev, fib_scratch, outbox, batches, slot.t, work, cx));
        drop(sp);
        slot.writes = first..outbox.writes() as u32;
        slot.refresh = refresh;
        slot.events.append(&mut events);
        if let (Some(p), Some(before)) = (traced, before) {
            let after = prov_state(dev, p);
            push_prov_deltas(&mut slot.events, telemetry, dev_id, p, &before, &after);
        }
        if let Some(started) = started {
            let ns = started.elapsed().as_nanos() as u64;
            counters.event_latency_ns.observe(ns);
            busy_counter(busy, telemetry, dev_id).add(ns);
        }
    }

    /// Finish a slot: advance the clock to its event, record its held
    /// journal events, and replay its output through the scheduling path at
    /// the event's time: its writes of `outbox` via `emit`, then any
    /// route-refresh requests one base latency out.
    fn finish(&mut self, slot: Slot, outbox: &mut Outbox) {
        self.now = slot.t;
        self.telemetry.set_now(slot.t);
        for event in slot.events {
            self.telemetry.record(event);
        }
        let Some(dev) = slot.dev else {
            return;
        };
        for write in slot.writes {
            self.emit(dev, outbox.messages(write as usize));
        }
        for peer in slot.refresh {
            let to = DeviceId(peer.device());
            let on = PeerId::compose(dev.0, peer.session_index());
            self.schedule_in(BASE_LATENCY_US, NetEvent::RouteRefreshRequest { to, on });
        }
    }

    /// The pre-pass of one event at its own timestamp `t`: device-existence
    /// check, global counters and bookkeeping, leaving the event in the
    /// returned slot as its device's job — or no job when the event is a
    /// no-op (target device gone).
    fn prepare(&mut self, t: SimTime, ev: NetEvent) -> Slot {
        self.telemetry.set_now(t);
        let mut events = Vec::new();
        let work = self.prepare_inner(t, ev, &mut events);
        Slot {
            t,
            dev: work.as_ref().map(NetEvent::target),
            work,
            writes: 0..0,
            refresh: Vec::new(),
            events,
        }
    }

    fn prepare_inner(
        &mut self,
        t: SimTime,
        ev: NetEvent,
        events: &mut Vec<Event>,
    ) -> Option<NetEvent> {
        let dev = ev.target();
        if !self.devices.contains_key(dev) {
            // A batch to a device that is gone still takes its payload: left
            // in the slab, it would leak.
            if let NetEvent::DeliverBatch { batch, .. } = ev {
                self.batches.take(batch);
            }
            return None;
        }
        match &ev {
            NetEvent::DeliverBatch { to, on, batch } => self.arrive(t, *to, *on, *batch, events),
            NetEvent::SessionUp { peer, .. } => self.note_session(events, dev, *peer, "up"),
            NetEvent::SessionDown { peer, .. } => self.note_session(events, dev, *peer, "down"),
            NetEvent::RemovePeer { peer, .. } => self.note_session(events, dev, *peer, "removed"),
            NetEvent::InstallRpa { .. } | NetEvent::RemoveRpa { .. } => {
                self.counters.rpa_operations.inc();
            }
            NetEvent::Originate { prefix, .. } => {
                self.originators.entry(*prefix).or_default().insert(dev);
                if let Err(i) = self.prefix_clock.find(prefix) {
                    self.prefix_clock.insert_at(i, *prefix, (t, None));
                }
            }
            NetEvent::WithdrawOrigin { prefix, .. } => {
                if let Some(set) = self.originators.get_mut(prefix) {
                    set.remove(&dev);
                }
            }
            NetEvent::AgentRestart { .. } => self.counters.agent_restarts.inc(),
            NetEvent::RouteRefreshRequest { .. }
            | NetEvent::SetExportPolicy { .. }
            | NetEvent::ExpireRpa { .. }
            | NetEvent::Reevaluate { .. } => {}
        }
        Some(ev)
    }

    /// Fold per-run observations into the metrics registry at quiescence:
    /// per-prefix convergence latency (origination → last UPDATE carrying
    /// the prefix) and the RIB/FIB size gauges. Runs once per convergence
    /// barrier, so the device walk is off every hot path.
    fn observe_quiescence(&mut self) {
        let clock = std::mem::take(&mut self.prefix_clock);
        let mut latencies = clock
            .values()
            .filter_map(|&(origin, last)| last?.checked_sub(origin))
            .peekable();
        if latencies.peek().is_some() {
            let hist = self
                .telemetry
                .metrics()
                .histogram("simnet.prefix_convergence_ms", CONVERGENCE_MS_BOUNDS);
            for us in latencies {
                hist.observe(us as f64 / 1_000.0);
            }
        }
        let (mut loc_rib, mut loc_rib_bytes, mut nhgs) = (0i64, 0i64, 0i64);
        let mut rib_in_fp = centralium_bgp::RibFootprint::default();
        let mut rib_out_fp = centralium_bgp::RibFootprint::default();
        for dev in self.devices.values() {
            loc_rib += dev.daemon.loc_rib_len() as i64;
            nhgs += dev.fib.nhg_stats().current_groups as i64;
            let (fin, fout, loc_bytes) = dev.daemon.rib_footprints();
            loc_rib_bytes += loc_bytes as i64;
            rib_in_fp.peer_refs += fin.peer_refs;
            rib_in_fp.bytes += fin.bytes;
            rib_out_fp.peer_refs += fout.peer_refs;
            rib_out_fp.bytes += fout.bytes;
        }
        let m = self.telemetry.metrics();
        m.gauge("bgp.adj_rib_in_total")
            .set(rib_in_fp.peer_refs as i64);
        m.gauge("bgp.loc_rib_total").set(loc_rib);
        m.gauge("fib.nexthop_groups_total").set(nhgs);
        m.gauge("simnet.max_batch_size")
            .set(self.max_batch_size as i64);
        // Memory accounting, sampled at the same phase boundary. The RIB
        // gauges count table storage only: the attribute bodies are shared
        // with their senders and counted nowhere. The
        // scheduler and arena gauges are *capacity*-based — the arena slot
        // vectors keep their allocations across windows, and that retained
        // capacity (not the momentary occupancy) is what a memory budget
        // must provision for. The queue, the batch slab and the window's
        // buffers have just handed back what quiescence no longer needs.
        m.gauge("mem.loc_rib_bytes").set(loc_rib_bytes);
        m.gauge("mem.adj_rib_in_bytes").set(rib_in_fp.bytes as i64);
        m.gauge("mem.adj_rib_out_bytes")
            .set(rib_out_fp.bytes as i64);
        m.gauge("bgp.peer_refs")
            .set((rib_in_fp.peer_refs + rib_out_fp.peer_refs) as i64);
        m.gauge("mem.event_queue_hwm")
            .set(self.queue.high_water_mark() as i64);
        m.gauge("mem.event_queue_bytes")
            .set(self.queue.footprint_bytes() as i64);
        m.gauge("mem.device_arena_bytes")
            .set((self.devices.footprint_bytes() + self.busy.footprint_bytes()) as i64);
    }

    /// The pre-pass side of an UPDATE batch arriving at a live device, its
    /// payload read in the slab: batch, delivery and announce/withdraw
    /// counters, provenance arrival events, and the last update time of
    /// every originated prefix it carries.
    fn arrive(
        &mut self,
        t: SimTime,
        to: DeviceId,
        on: PeerId,
        batch: u64,
        events: &mut Vec<Event>,
    ) {
        let msg = self
            .batches
            .get(batch)
            .expect("a queued batch has a payload");
        let size = (msg.announced.len() + msg.withdrawn.len()) as u64;
        self.max_batch_size = self.max_batch_size.max(size);
        self.counters.batch_routes.observe(size);
        self.counters.batches_delivered.inc();
        self.counters.messages_delivered.inc();
        self.counters.announcements.add(msg.announced.len() as u64);
        self.counters.withdrawals.add(msg.withdrawn.len() as u64);
        self.note_provenance_arrival(events, to, on, msg);
        if !self.prefix_clock.is_empty() {
            let carried = msg.announced.iter().map(|(p, _)| p).chain(&msg.withdrawn);
            for p in carried {
                if let Some((_, last)) = self.prefix_clock.get_mut(p) {
                    *last = Some(t);
                }
            }
        }
    }

    /// Note UPDATE/withdraw arrivals at `to` carrying the traced prefix as
    /// provenance events of the event. A no-op unless a prefix is traced and
    /// the journal is enabled.
    fn note_provenance_arrival(
        &self,
        events: &mut Vec<Event>,
        to: DeviceId,
        on: PeerId,
        msg: &UpdateMessage,
    ) {
        let traced = self.provenance.filter(|_| self.telemetry.journal_enabled());
        let Some(prefix) = traced else {
            return;
        };
        let mut push = |kind, what| {
            events.push(
                prov_event(&self.telemetry, kind, to, prefix)
                    .field("from", format!("d{}", on.device()))
                    .field(
                        "detail",
                        format!(
                            "{what} from d{} session {}",
                            on.device(),
                            on.session_index()
                        ),
                    ),
            );
        };
        if msg.announced.iter().any(|(p, _)| *p == prefix) {
            push(EventKind::UpdateReceived, "announcement");
        }
        if msg.withdrawn.contains(&prefix) {
            push(EventKind::WithdrawReceived, "withdraw");
        }
    }

    /// Count a session lifecycle change (up / down / removed) and note it as
    /// a journal event of the event being prepared.
    fn note_session(&self, events: &mut Vec<Event>, dev: DeviceId, peer: PeerId, state: &str) {
        self.counters.session_events.inc();
        if self.telemetry.journal_enabled() {
            events.push(
                self.telemetry
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
    use centralium_bgp::{Community, Route};
    use centralium_rpa::{
        PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature, PeerSignature,
        PrefixFilter, RouteFilterRpa, RouteFilterStatement,
    };
    use centralium_topology::{build_fabric, FabricSpec};

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

    /// Withdraw `prefix` on every session that holds it, without deciding:
    /// its Loc-RIB entry survives with no route behind it.
    fn strand_loc_rib_entry(dev: &mut SimDevice, prefix: Prefix) {
        for route in dev.daemon.candidates(prefix) {
            let peer = route.learned_from.expect("the prefix is learned here");
            dev.daemon
                .ingest(peer, UpdateMessage::withdraw(prefix), &dev.engine);
        }
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
        for id in [rsw, fsw, ssw] {
            let dev = net.device(id).unwrap();
            for docs in &cases {
                assert_eq!(
                    rpa_scope(dev, docs),
                    reference_scope(dev, docs, &universe),
                    "d{} with {:?}",
                    id.0,
                    docs.iter().map(|d| d.name()).collect::<Vec<_>>(),
                );
            }
        }
    }
}
