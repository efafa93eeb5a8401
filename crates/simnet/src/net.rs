//! The emulator: devices, sessions, message scheduling, operations.
//!
//! Design rules:
//!
//! * **Determinism** — all randomness (latency jitter, split shuffles)
//!   flows from the seed; event ties break by insertion order.
//! * **Per-session FIFO** — BGP runs over TCP, so messages on one session
//!   never reorder; *across* sessions and devices, timing is free. That
//!   asynchrony is precisely what creates the paper's transitory states.
//! * **Coalescing** — by default a session's UPDATEs merge into one batch
//!   per base latency. Rigs that study the per-prefix convergence
//!   interleaving behind the §3.4 next-hop-group explosion turn it off, and
//!   then every UPDATE is split into per-prefix messages, shuffled per
//!   session, each a batch of one with its own jitter. Either way an UPDATE
//!   leaves a device through [`SimNet::emit`] and travels as a
//!   [`NetEvent::DeliverBatch`].

use crate::arena::DenseMap;
use crate::device::SimDevice;
use crate::event::{EventQueue, SimTime, MAX_DEADLINE};
use crate::fault::{ChaosPlan, RpcFate};
use crate::fib::FibScratch;
use crate::trace::ConvergenceReport;
use centralium_bgp::flat::FlatMap;
use centralium_bgp::policy::{Action, MatchExpr, Policy, PolicyRule};
use centralium_bgp::{
    attrs::well_known, DaemonConfig, FibEntry, PathAttributes, PeerConfig, PeerId, Prefix,
    UpdateMessage,
};
use centralium_rpa::RpaDocument;
use centralium_telemetry::{Counter, EventKind, LogHistogram, Severity, Telemetry};
use centralium_topology::{Asn, DeviceId, DeviceState, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, OnceLock};

// A child module, so that the run loop keeps access to `SimNet`'s private
// state.
#[path = "engine.rs"]
mod engine;

/// Base one-way message latency in µs (`L` in DESIGN §9 and §11).
const BASE_LATENCY_US: SimTime = 200;

/// Delay between a device dying and its neighbors noticing, in µs.
const FAILURE_DETECTION_US: SimTime = 1_000;

/// Safety cap on processed events per `run_until_quiescent`. Equal to
/// `pipeline_bench`'s `MAX_STEPS`, the cap of its stepped pass.
const MAX_EVENTS: u64 = 10_000_000;

/// Emulator configuration.
///
/// Construct via [`SimConfig::default`] plus field mutation, or fluently via
/// [`SimConfig::builder`]. The struct is `#[non_exhaustive]`, so out-of-crate
/// code cannot use struct-literal syntax and a field can come or go without
/// breaking callers. A field exists only while a non-test caller sets it to
/// a value other than its default; a setting every caller leaves alone is a
/// constant in this module.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SimConfig {
    /// RNG seed; everything is reproducible from it.
    pub seed: u64,
    /// Uniform extra jitter bound in µs (the asynchrony source).
    pub jitter_us: SimTime,
    /// Parallel BGP sessions per physical link (§3.4 runs two per UU–DU).
    pub sessions_per_link: u8,
    /// Coalesce outgoing UPDATEs per directed session into batched delivery
    /// events. While a batch is still at least one base latency away, further
    /// output toward the same session merges into it with last-writer-wins
    /// squashing (a re-announcement replaces the queued announcement for the
    /// same prefix; a withdraw cancels it) — so a convergence wave costs
    /// O(links) delivery events instead of O(peers × prefixes). Converged
    /// FIBs are byte-identical with coalescing on or off (batching only
    /// reschedules in-flight information, it never reorders within a
    /// session).
    ///
    /// Off, every UPDATE is split into per-prefix messages, each a batch of
    /// one, queued in an order shuffled (seeded) per recipient session. BGP
    /// guarantees ordering *within* a TCP session but says nothing about the
    /// order a daemon generates updates for different prefixes toward
    /// different peers — production TX queues drain in effectively
    /// independent orders, which is what makes the §3.4 per-prefix state
    /// space combinatorial. Scenario rigs that study that interleaving turn
    /// coalescing off.
    pub coalesce_updates: bool,
    /// Attach link-bandwidth communities on export (distributed WCMP).
    pub wcmp_advertise: bool,
    /// Install the fabric's valley-free base policies: routes learned from
    /// an upper layer are marked `FROM_UPSTREAM` on import and rejected when
    /// exporting back toward upper layers. Production fabrics always run
    /// such deterministic propagation policies (§4.3); disabling this (for
    /// generic non-layered rigs like Figure 9) allows path hunting through
    /// valleys, which explodes combinatorially on large fabrics.
    pub valley_free_policies: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            jitter_us: 300,
            sessions_per_link: 1,
            coalesce_updates: true,
            wcmp_advertise: false,
            valley_free_policies: true,
        }
    }
}

impl SimConfig {
    /// Start a fluent builder seeded with [`SimConfig::default`].
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: SimConfig::default(),
        }
    }
}

/// Fluent builder for [`SimConfig`]. Every setter overrides one field of the
/// [`Default`] configuration; [`SimConfigBuilder::build`] returns the result.
///
/// ```
/// use centralium_simnet::SimConfig;
/// let cfg = SimConfig::builder().seed(7).jitter_us(0).build();
/// assert_eq!(cfg.seed, 7);
/// assert_eq!(cfg.jitter_us, 0);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// RNG seed; everything is reproducible from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Uniform extra jitter bound in µs.
    pub fn jitter_us(mut self, us: SimTime) -> Self {
        self.cfg.jitter_us = us;
        self
    }

    /// Parallel BGP sessions per physical link.
    pub fn sessions_per_link(mut self, n: u8) -> Self {
        self.cfg.sessions_per_link = n;
        self
    }

    /// Coalesce outgoing UPDATEs per directed session into batched delivery
    /// events (see [`SimConfig::coalesce_updates`]).
    pub fn coalesce_updates(mut self, on: bool) -> Self {
        self.cfg.coalesce_updates = on;
        self
    }

    /// Attach link-bandwidth communities on export (distributed WCMP).
    pub fn wcmp_advertise(mut self, on: bool) -> Self {
        self.cfg.wcmp_advertise = on;
        self
    }

    /// Install the fabric's valley-free base policies.
    pub fn valley_free_policies(mut self, on: bool) -> Self {
        self.cfg.valley_free_policies = on;
        self
    }

    /// Finish, yielding the configured [`SimConfig`].
    pub fn build(self) -> SimConfig {
        self.cfg
    }
}

/// Events on the simulation queue. Bulky payloads are boxed, so an event
/// is at most 24 bytes and the queue costs what its events carry.
#[derive(Debug, Clone)]
pub enum NetEvent {
    /// Deliver a BGP UPDATE batch to `to` on its session `on` — the only
    /// way an UPDATE travels. The payload lives in the net's batch slab
    /// (keyed by `batch`) so that, with coalescing on, output emitted while
    /// the event is still in flight can merge into it; queued event
    /// payloads themselves are immutable. With coalescing off a batch holds
    /// one split piece.
    DeliverBatch {
        /// Receiving device.
        to: DeviceId,
        /// Receiver-side session id.
        on: PeerId,
        /// Key into the pending-batch side table.
        batch: u64,
    },
    /// A session reaches Established on `dev`'s side.
    SessionUp {
        /// Device whose session comes up.
        dev: DeviceId,
        /// Its session id.
        peer: PeerId,
    },
    /// A session drops on `dev`'s side.
    SessionDown {
        /// Device whose session drops.
        dev: DeviceId,
        /// Its session id.
        peer: PeerId,
    },
    /// Install an RPA document on a device (the Switch Agent's write RPC).
    InstallRpa {
        /// Target device.
        dev: DeviceId,
        /// The document.
        doc: Box<RpaDocument>,
    },
    /// Remove an RPA document by name.
    RemoveRpa {
        /// Target device.
        dev: DeviceId,
        /// Document name.
        name: Box<str>,
    },
    /// A route-refresh request: `to` must re-send its full Adj-RIB-Out for
    /// session `on` (the requester lifted an ingress filter and wants the
    /// state it previously discarded).
    RouteRefreshRequest {
        /// The device being asked to re-advertise.
        to: DeviceId,
        /// Its session toward the requester.
        on: PeerId,
    },
    /// Tear down and unconfigure a session on one side (link removal).
    RemovePeer {
        /// Device losing the session.
        dev: DeviceId,
        /// Its session id.
        peer: PeerId,
    },
    /// Start originating a prefix.
    Originate {
        /// Originating device.
        dev: DeviceId,
        /// The prefix.
        prefix: Prefix,
        /// Origination attributes (communities etc.).
        attrs: Box<PathAttributes>,
    },
    /// Stop originating a prefix.
    WithdrawOrigin {
        /// Originating device.
        dev: DeviceId,
        /// The prefix.
        prefix: Prefix,
    },
    /// Apply an export-policy *override* on all sessions of a device (drain
    /// / undrain / base-policy change) and re-advertise. The override's
    /// rules run before each session's base (valley-free) policy; its
    /// default disposition is ignored.
    SetExportPolicy {
        /// Target device.
        dev: DeviceId,
        /// Override rules (an empty rule list restores the pure base).
        policy: Box<Policy>,
    },
    /// The device's RPA agent process crash-restarts (chaos injection):
    /// every installed RPA document is lost and routes re-evaluate natively.
    /// BGP sessions survive — only the agent's configuration state dies.
    AgentRestart {
        /// Target device.
        dev: DeviceId,
    },
    /// Re-run the full decision process on a device without changing its
    /// configuration. Scheduled by `force_full_reconvergence` and
    /// `verify_full_equivalence` (the oracle); a no-op on converged state.
    Reevaluate {
        /// Target device.
        dev: DeviceId,
    },
    /// An RPA deadline passes on a device: its Route Attribute statements
    /// due by now stop applying, and only the prefixes they governed
    /// re-decide. [`SimNet::deploy_rpa`] queues one per distinct deadline
    /// of the document; when nothing is due (the document was replaced,
    /// removed or lost first) nothing is decided.
    ExpireRpa {
        /// Target device.
        dev: DeviceId,
    },
}

const _: () = assert!(std::mem::size_of::<NetEvent>() <= 24);

impl NetEvent {
    /// The device the event acts on.
    fn target(&self) -> DeviceId {
        match *self {
            NetEvent::DeliverBatch { to: dev, .. }
            | NetEvent::RouteRefreshRequest { to: dev, .. }
            | NetEvent::SessionUp { dev, .. }
            | NetEvent::SessionDown { dev, .. }
            | NetEvent::InstallRpa { dev, .. }
            | NetEvent::RemoveRpa { dev, .. }
            | NetEvent::RemovePeer { dev, .. }
            | NetEvent::Originate { dev, .. }
            | NetEvent::WithdrawOrigin { dev, .. }
            | NetEvent::SetExportPolicy { dev, .. }
            | NetEvent::AgentRestart { dev }
            | NetEvent::Reevaluate { dev }
            | NetEvent::ExpireRpa { dev } => dev,
        }
    }

    /// Static span name of the event's kind.
    fn name(&self) -> &'static str {
        match self {
            NetEvent::DeliverBatch { .. } => "deliver_batch",
            NetEvent::SessionUp { .. } => "session_up",
            NetEvent::SessionDown { .. } => "session_down",
            NetEvent::InstallRpa { .. } => "install_rpa",
            NetEvent::RemoveRpa { .. } => "remove_rpa",
            NetEvent::RouteRefreshRequest { .. } => "route_refresh",
            NetEvent::RemovePeer { .. } => "remove_peer",
            NetEvent::Originate { .. } => "originate",
            NetEvent::WithdrawOrigin { .. } => "withdraw_origin",
            NetEvent::SetExportPolicy { .. } => "set_export_policy",
            NetEvent::AgentRestart { .. } => "agent_restart",
            NetEvent::Reevaluate { .. } => "reevaluate",
            NetEvent::ExpireRpa { .. } => "expire_rpa",
        }
    }
}

/// Cached handles for the registry counters the run loop bumps on every
/// event — binding by name happens once, updates are single atomic adds
/// (the same cost class as a plain `u64` field).
#[derive(Debug)]
struct NetCounters {
    messages_delivered: Counter,
    announcements: Counter,
    withdrawals: Counter,
    rpa_operations: Counter,
    rpa_failures: Counter,
    /// RPA installs/removes whose re-evaluation was scoped to the dirty
    /// prefix frontier (destination-bounded documents).
    rpa_scoped_reevals: Counter,
    /// RPA installs/removes that fell back to full re-evaluation (an egress
    /// Route Filter, or a document without bounded destinations).
    rpa_full_reevals: Counter,
    /// Batch deliveries (each one [`NetEvent::DeliverBatch`]); with
    /// coalescing off, equal to `messages_delivered`.
    batches_delivered: Counter,
    /// Output UPDATEs that merged into an in-flight batch instead of
    /// scheduling a delivery event of their own.
    updates_coalesced: Counter,
    session_events: Counter,
    rpc_dropped: Counter,
    rpc_duplicated: Counter,
    agent_restarts: Counter,
    /// Wall-clock µs spent in the windows' pre-pass, work phase and merge
    /// phase, in that order (published from [`SimNet::phase_ns`]).
    phase_us: [Counter; 3],
    /// Number of event windows processed.
    windows: Counter,
    /// Jobs per window.
    window_jobs: LogHistogram,
    /// Routing-information count (announcements + withdrawals) per
    /// delivered batch.
    batch_routes: LogHistogram,
    /// Per-event device-processing latency in nanoseconds. Recorded only
    /// while span tracing is enabled (two clock reads per event otherwise).
    event_latency_ns: LogHistogram,
}

impl NetCounters {
    fn bind(telemetry: &Telemetry) -> Self {
        let m = telemetry.metrics();
        NetCounters {
            messages_delivered: m.counter("simnet.messages_delivered"),
            announcements: m.counter("simnet.announcements"),
            withdrawals: m.counter("simnet.withdrawals"),
            rpa_operations: m.counter("simnet.rpa_operations"),
            rpa_failures: m.counter("simnet.rpa_failures"),
            rpa_scoped_reevals: m.counter("simnet.rpa_scoped_reevals"),
            rpa_full_reevals: m.counter("simnet.rpa_full_reevals"),
            batches_delivered: m.counter("simnet.batches_delivered"),
            updates_coalesced: m.counter("simnet.updates_coalesced"),
            session_events: m.counter("simnet.session_events"),
            rpc_dropped: m.counter("simnet.rpc_dropped"),
            rpc_duplicated: m.counter("simnet.rpc_duplicated"),
            agent_restarts: m.counter("simnet.agent_restarts"),
            phase_us: [
                m.counter("simnet.phase.pre_us"),
                m.counter("simnet.phase.work_us"),
                m.counter("simnet.phase.merge_us"),
            ],
            windows: m.counter("simnet.phase.windows"),
            window_jobs: m.log_histogram("simnet.window.jobs"),
            batch_routes: m.log_histogram("simnet.batch.routes"),
            event_latency_ns: m.log_histogram("simnet.event.latency_ns"),
        }
    }
}

/// The emulator.
#[derive(Debug)]
pub struct SimNet {
    topo: Topology,
    cfg: SimConfig,
    /// Per-device simulation state, arena-style: a dense id-indexed slot
    /// vector (ids are allocated densely and never reused), iterated in the
    /// same ascending-id order as the `BTreeMap` it replaced.
    devices: DenseMap<SimDevice>,
    queue: EventQueue<NetEvent>,
    now: SimTime,
    rng: StdRng,
    telemetry: Telemetry,
    counters: NetCounters,
    /// Per-device busy-time counters (`simnet.device.d<N>.busy_ns`), bound
    /// lazily; only written while span tracing is enabled.
    busy: DenseMap<Counter>,
    /// The prefix under route-provenance trace, if one is armed.
    provenance: Option<Prefix>,
    /// Each originated prefix's clock, for convergence latency: when it was
    /// first originated, and when an UPDATE carrying it was last delivered.
    prefix_clock: FlatMap<Prefix, (SimTime, Option<SimTime>)>,
    originators: HashMap<Prefix, BTreeSet<DeviceId>>,
    /// Per sending device, one [`Session`] for every directed session it
    /// ever sent on, ascending by session id. A device's table is made at
    /// its first emission and never pruned, so the TCP FIFO clamp survives
    /// session and device bounces.
    sessions: DenseMap<Vec<(PeerId, Session)>>,
    /// Payloads of in-flight batches: every UPDATE between its emission and
    /// its delivery.
    batches: BatchSlab,
    /// The run loop's working memory.
    window: engine::Window,
    /// Largest routing-information count (announcements + withdrawals)
    /// observed in a single delivered batch.
    max_batch_size: u64,
    /// Deterministic chaos schedule for management RPCs, if any. Decisions
    /// hash `(seed, device, rpc_nonce)` and never touch `rng`, so enabling
    /// chaos leaves BGP message timing bit-identical.
    chaos: Option<ChaosPlan>,
    /// Monotonic RPC counter feeding [`ChaosPlan::rpc_fate`].
    rpc_nonce: u64,
    /// Wall-clock ns spent per window phase (pre-pass, work, merge) and not
    /// yet published to the µs-granularity `simnet.phase.*` counters. Kept
    /// in ns because a one-event window takes well under a microsecond.
    phase_ns: [u64; 3],
    /// The FIB-programming working memory, lent to each device job in turn.
    fib_scratch: FibScratch,
}

impl SimNet {
    /// Build an emulator over a topology: one daemon per non-Down device,
    /// `sessions_per_link` sessions per Up link. Sessions start down; call
    /// [`establish_all`](Self::establish_all) (or schedule SessionUp events)
    /// to bring them up.
    pub fn new(topo: Topology, cfg: SimConfig) -> Self {
        let mut devices = DenseMap::with_capacity(topo.device_count());
        for dev in topo.devices() {
            if dev.state == DeviceState::Down {
                continue;
            }
            let mut dcfg = DaemonConfig::fabric(dev.asn);
            dcfg.wcmp_advertise = cfg.wcmp_advertise;
            devices.insert(dev.id, SimDevice::new(dev.id, dcfg, dev.max_nexthop_groups));
        }
        let telemetry = Telemetry::new();
        let counters = NetCounters::bind(&telemetry);
        let mut net = SimNet {
            rng: StdRng::seed_from_u64(cfg.seed),
            topo,
            cfg,
            devices,
            queue: EventQueue::new(),
            now: 0,
            telemetry,
            counters,
            busy: DenseMap::new(),
            provenance: None,
            prefix_clock: FlatMap::new(),
            originators: HashMap::new(),
            sessions: DenseMap::new(),
            batches: BatchSlab::default(),
            window: engine::Window::default(),
            max_batch_size: 0,
            chaos: None,
            rpc_nonce: 0,
            phase_ns: [0; 3],
            fib_scratch: FibScratch::default(),
        };
        net.bind_all_device_telemetry();
        // Wire sessions for every Up link between live devices.
        let links: Vec<_> = net.topo.links().cloned().collect();
        for link in links {
            net.wire_link(link.a, link.b, link.capacity_gbps);
        }
        net
    }

    /// Replace the network's telemetry handle (e.g. with a journal-enabled
    /// one), rebinding every cached counter and device instrument. Counts
    /// accumulated on the previous handle's registry are left behind; call
    /// this before running the simulation.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        telemetry.set_now(self.now);
        self.counters = NetCounters::bind(&telemetry);
        self.busy.clear();
        self.telemetry = telemetry;
        self.bind_all_device_telemetry();
    }

    /// Arm route-provenance tracing for `prefix`. Every UPDATE/withdraw
    /// arrival carrying the prefix, and every Adj-RIB-In change, decision
    /// flip and FIB delta it produces, is journaled as a `Debug` event with
    /// its simulated time and device; with the RPA engines' `RpaInstall`
    /// events they form the prefix's causal chain, the journal filtered by
    /// [`EventKind::is_provenance`]. Records nothing without a journal
    /// attached ([`set_telemetry`](Self::set_telemetry)). An armed trace
    /// renders the prefix's state before and after every event on its
    /// device, but leaves the schedule — and so the FIBs — exactly as they
    /// are without it.
    pub fn trace_provenance(&mut self, prefix: Prefix) {
        self.provenance = Some(prefix);
    }

    /// The network's telemetry handle — shared (via cheap clones) with every
    /// device daemon and RPA engine, so all metrics and journal events of
    /// one simulation land in one place.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn bind_all_device_telemetry(&mut self) {
        let t = self.telemetry.clone();
        for (id, dev) in self.devices.iter_mut() {
            let scope = format!("d{}", id.0);
            dev.daemon.set_telemetry(&t, scope.clone());
            dev.engine.set_telemetry(&t, scope);
        }
    }

    /// Session indices already wired from `dev` toward `other` (parallel
    /// links between the same pair stack their sessions).
    fn next_session_index(&self, dev: DeviceId, other: DeviceId) -> u8 {
        self.devices
            .get(dev)
            .map(|d| {
                d.daemon
                    .peer_ids()
                    .into_iter()
                    .filter(|p| p.device() == other.0)
                    .count() as u8
            })
            .unwrap_or(0)
    }

    fn wire_link(&mut self, a: DeviceId, b: DeviceId, capacity: f64) {
        if !self.devices.contains_key(a) || !self.devices.contains_key(b) {
            return;
        }
        let asn_a = self.devices[a].daemon.asn();
        let asn_b = self.devices[b].daemon.asn();
        let layer_a = self.topo.device(a).expect("device a in topo").layer();
        let layer_b = self.topo.device(b).expect("device b in topo").layer();
        // A second parallel link between the same pair must not collide with
        // (and silently reset) the first link's sessions.
        let base = self.next_session_index(a, b);
        for k in base..base + self.cfg.sessions_per_link {
            let peer_on_a = PeerId::compose(b.0, k);
            let peer_on_b = PeerId::compose(a.0, k);
            let mut cfg_a = PeerConfig::open(peer_on_a, asn_b, capacity);
            let mut cfg_b = PeerConfig::open(peer_on_b, asn_a, capacity);
            if self.cfg.valley_free_policies && layer_a != layer_b {
                let (lower_cfg, upper_cfg) = if layer_a.is_below(layer_b) {
                    (&mut cfg_a, &mut cfg_b)
                } else {
                    (&mut cfg_b, &mut cfg_a)
                };
                // Lower side: mark up-learned routes, never send them back up.
                lower_cfg.import = Self::import_from_up();
                lower_cfg.export = Self::export_to_up();
                // Upper side: routes from below are fresh information.
                upper_cfg.import = Self::import_from_down();
            }
            let dev_a = self.devices.get_mut(a).expect("device a");
            dev_a.daemon.add_peer(cfg_a);
            dev_a.engine.set_peer_asn(peer_on_a, asn_b);
            let dev_b = self.devices.get_mut(b).expect("device b");
            dev_b.daemon.add_peer(cfg_b);
            dev_b.engine.set_peer_asn(peer_on_b, asn_a);
        }
    }

    /// Import policy on a session toward the layer above: tag FROM_UPSTREAM.
    ///
    /// These three canonical policy shapes are attached to every session
    /// endpoint in the fabric (~1.5M at the xxl tier), so each returns one
    /// process-wide shared body instead of a fresh copy.
    fn import_from_up() -> Arc<Policy> {
        static SHARED: OnceLock<Arc<Policy>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| {
            Arc::new(Policy::accept_all().rule(PolicyRule {
                matches: MatchExpr::any(),
                actions: vec![Action::AddCommunity(well_known::FROM_UPSTREAM)],
            }))
        }))
    }

    /// Import policy on a session toward the layer below: clear any stale
    /// FROM_UPSTREAM marking (the route is fresh information from below).
    fn import_from_down() -> Arc<Policy> {
        static SHARED: OnceLock<Arc<Policy>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| {
            Arc::new(Policy::accept_all().rule(PolicyRule {
                matches: MatchExpr::any(),
                actions: vec![Action::RemoveCommunity(well_known::FROM_UPSTREAM)],
            }))
        }))
    }

    /// Export policy on a session toward the layer above: up-learned routes
    /// must not be re-advertised upward (valley-freedom).
    fn export_to_up() -> Arc<Policy> {
        static SHARED: OnceLock<Arc<Policy>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| {
            Arc::new(
                Policy::accept_all().rule(PolicyRule::reject(MatchExpr::community(
                    well_known::FROM_UPSTREAM,
                ))),
            )
        }))
    }

    /// The base export policy of a session, as installed at wiring time —
    /// used to rebuild effective policies when an override (drain, policy
    /// transition) is applied or lifted.
    /// Free-standing (no `&self`) so the work phase can rebuild effective
    /// policies while it holds a device mutably.
    fn base_export_policy_for(
        topo: &Topology,
        valley_free: bool,
        dev: DeviceId,
        peer: PeerId,
    ) -> Arc<Policy> {
        if !valley_free {
            return Policy::shared_accept_all();
        }
        let other = DeviceId(peer.device());
        let (Some(d), Some(o)) = (topo.device(dev), topo.device(other)) else {
            return Policy::shared_accept_all();
        };
        if d.layer().is_below(o.layer()) {
            Self::export_to_up()
        } else {
            Policy::shared_accept_all()
        }
    }

    // ---- accessors ---------------------------------------------------------

    /// Simulated now.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology (kept in sync with commissioned/decommissioned devices).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// A device, if present (not decommissioned).
    pub fn device(&self, id: DeviceId) -> Option<&SimDevice> {
        self.devices.get(id)
    }

    /// Mutable device access (tests / experiment setup).
    pub fn device_mut(&mut self, id: DeviceId) -> Option<&mut SimDevice> {
        self.devices.get_mut(id)
    }

    /// Ids of all live simulated devices.
    pub fn device_ids(&self) -> Vec<DeviceId> {
        self.devices.keys().collect()
    }

    /// Schedule a [`NetEvent::Reevaluate`] on every live device and run to
    /// quiescence — full re-evaluation of the entire fabric, the pass
    /// [`verify_full_equivalence`](Self::verify_full_equivalence) checks the
    /// incremental engine against.
    pub fn force_full_reconvergence(&mut self) -> ConvergenceReport {
        self.schedule_reevaluate_all();
        self.run_until_quiescent()
    }

    /// Queue a [`NetEvent::Reevaluate`] for every live device, one tick from
    /// now, in device order. Returns the devices.
    fn schedule_reevaluate_all(&mut self) -> Vec<DeviceId> {
        let devs: Vec<DeviceId> = self.devices.keys().collect();
        for &dev in &devs {
            self.schedule_in(1, NetEvent::Reevaluate { dev });
        }
        devs
    }

    /// Per-device FIB snapshot — entries only (prefix, next hops, warm
    /// flag). Group-table statistics are deliberately excluded: a forced
    /// full pass, a per-prefix delta and a full rebuild legitimately differ
    /// in churn *accounting* while converging to identical forwarding state.
    pub fn fib_snapshot(&self) -> BTreeMap<DeviceId, Vec<FibEntry>> {
        self.devices
            .iter()
            .map(|(id, dev)| (id, dev.fib.entries().cloned().collect()))
            .collect()
    }

    /// The oracle: snapshot the converged FIBs, force a full re-convergence,
    /// and verify that nothing moved — converged state must be a fixed point
    /// of full evaluation. Two things are checked. The FIBs are identical:
    /// any difference means the incremental engine skipped a decision it
    /// should have run. And the pass was *silent* — one event per live
    /// device, no message delivered: a daemon exports a re-decided prefix
    /// only when its advertisement moved, so an export that was skipped
    /// wrongly leaves this device's FIB intact and its Adj-RIB-Out stale,
    /// and the forced pass (which always exports) is what flushes it out as
    /// an UPDATE.
    ///
    /// The queue must be empty on entry, and an error says so otherwise: a
    /// pending event would pop inside the forced pass, and its effects would
    /// be blamed on the oracle.
    pub fn verify_full_equivalence(&mut self) -> Result<(), String> {
        let pending = self.pending_events();
        if pending != 0 {
            return Err(format!(
                "the oracle needs a quiescent fabric: {pending} events pending on entry"
            ));
        }
        let before = self.fib_snapshot();
        let delivered = self.counters.messages_delivered.get();
        // Take the Reevaluates one `step()` at a time — same-time events pop
        // in schedule order — so a device that emits can be named: its step
        // leaves the queue no shorter than it found it.
        let devs = self.schedule_reevaluate_all();
        let mut spoke = Vec::new();
        for &dev in &devs {
            let pending = self.pending_events();
            self.step();
            if self.pending_events() >= pending {
                spoke.push(dev);
            }
        }
        let report = self.run_until_quiescent();
        if !report.converged {
            return Err("full reconvergence hit the event cap".to_string());
        }
        let after = self.fib_snapshot();
        let messages = self.counters.messages_delivered.get() - delivered;
        // The first dozen names say where to look; a fabric-wide failure
        // need not print the fabric.
        let names = |ids: &[DeviceId]| {
            let mut shown: Vec<String> = ids.iter().take(12).map(|d| format!("d{}", d.0)).collect();
            if ids.len() > shown.len() {
                shown.push(format!("… ({} in all)", ids.len()));
            }
            shown.join(", ")
        };
        let mut failures = Vec::new();
        if report.events_processed != 0 || messages != 0 {
            failures.push(format!(
                "full reconvergence was not silent: {} events for {} devices, {} messages; \
                 stale Adj-RIB-Out on: {}",
                devs.len() as u64 + report.events_processed,
                devs.len(),
                messages,
                names(&spoke)
            ));
        }
        if before != after {
            let diverged: Vec<DeviceId> = before
                .keys()
                .chain(after.keys().filter(|id| !before.contains_key(id)))
                .filter(|id| before.get(id) != after.get(id))
                .copied()
                .collect();
            failures.push(format!(
                "FIB divergence after full reconvergence on: {}",
                names(&diverged)
            ));
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }

    /// Which devices originate `prefix`.
    pub(crate) fn originators_of(&self, prefix: Prefix) -> Vec<DeviceId> {
        self.originators
            .get(&prefix)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Pending event count.
    pub(crate) fn pending_events(&self) -> usize {
        self.queue.len()
    }

    // ---- operations (schedule events) ---------------------------------------

    /// Schedule an event `offset_us` from now.
    pub fn schedule_in(&mut self, offset_us: SimTime, event: NetEvent) {
        self.queue.schedule(self.now + offset_us, event);
    }

    /// Bring every configured session up administratively at t = now.
    ///
    /// Administrative bring-up is a management-plane action, not network
    /// traffic: each SessionUp runs synchronously (counters, journal records
    /// and any resulting advertisements behave as they would for a queued
    /// event) instead of flooding the event queue with O(sessions) bring-up
    /// events.
    pub fn establish_all(&mut self) {
        let devs: Vec<DeviceId> = self.devices.keys().collect();
        for dev in devs {
            for peer in self.devices[dev].daemon.peer_ids() {
                self.run_now(NetEvent::SessionUp { dev, peer });
            }
        }
    }

    /// Originate `prefix` from `dev` now, tagged with `communities`.
    pub fn originate(
        &mut self,
        dev: DeviceId,
        prefix: Prefix,
        communities: impl IntoIterator<Item = centralium_bgp::Community>,
    ) {
        let attrs = Box::new(PathAttributes::originated(communities));
        self.schedule_in(0, NetEvent::Originate { dev, prefix, attrs });
    }

    /// Install (or replace) the chaos schedule for management RPCs. Pass a
    /// quiet plan (or never call this) for fault-free RPC delivery.
    pub fn set_chaos(&mut self, plan: ChaosPlan) {
        self.chaos = Some(plan);
    }

    /// The active chaos schedule, if any.
    pub fn chaos(&self) -> Option<&ChaosPlan> {
        self.chaos.as_ref()
    }

    /// Deploy an RPA document to a device after `rpc_latency_us`, and queue
    /// one [`NetEvent::ExpireRpa`] at each distinct deadline of its Route
    /// Attribute statements later than now. Every install the program queues
    /// comes through here. The expiry events are queued whatever the RPC's
    /// fate, and `run_until_quiescent` runs through them: read the state
    /// before a deadline with `run_until`. A deadline past [`MAX_DEADLINE`]
    /// refuses the document: nothing is queued, `simnet.rpa_failures` + 1.
    pub fn deploy_rpa(&mut self, dev: DeviceId, doc: RpaDocument, rpc_latency_us: SimTime) {
        let deadlines: BTreeSet<SimTime> = doc.deadlines().filter(|&d| d > self.now).collect();
        if deadlines.last().is_some_and(|&last| last > MAX_DEADLINE) {
            self.counters.rpa_failures.inc();
            return;
        }
        self.schedule_rpc(
            dev,
            rpc_latency_us,
            NetEvent::InstallRpa {
                dev,
                doc: Box::new(doc),
            },
        );
        for deadline in deadlines {
            self.queue.schedule(deadline, NetEvent::ExpireRpa { dev });
        }
    }

    /// Remove an RPA document from a device after `rpc_latency_us`.
    pub fn remove_rpa(&mut self, dev: DeviceId, name: impl Into<String>, rpc_latency_us: SimTime) {
        self.schedule_rpc(
            dev,
            rpc_latency_us,
            NetEvent::RemoveRpa {
                dev,
                name: name.into().into_boxed_str(),
            },
        );
    }

    /// Schedule one management RPC toward `dev`, consulting the chaos plan:
    /// the RPC may be dropped, delayed beyond `rpc_latency_us`, delivered
    /// twice, or followed by an agent crash-restart.
    fn schedule_rpc(&mut self, dev: DeviceId, rpc_latency_us: SimTime, event: NetEvent) {
        let Some(plan) = self.chaos.filter(|p| !p.is_quiet()) else {
            self.schedule_in(rpc_latency_us, event);
            return;
        };
        let nonce = self.rpc_nonce;
        self.rpc_nonce += 1;
        match plan.rpc_fate(dev.0, nonce) {
            RpcFate::Dropped => {
                self.counters.rpc_dropped.inc();
                self.note_chaos(dev, "rpc_drop");
            }
            RpcFate::Delivered {
                extra_delay_us,
                duplicate,
                crash_agent,
            } => {
                let at = rpc_latency_us + extra_delay_us;
                if duplicate {
                    // At-least-once semantics under retransmission: the
                    // second copy lands one tick later (installs must be
                    // idempotent for this to be harmless).
                    self.counters.rpc_duplicated.inc();
                    self.note_chaos(dev, "rpc_duplicate");
                    self.schedule_in(at + 1, event.clone());
                }
                if crash_agent {
                    self.note_chaos(dev, "agent_crash");
                    self.schedule_in(at + 1, NetEvent::AgentRestart { dev });
                }
                self.schedule_in(at, event);
            }
        }
    }

    /// Journal one chaos-plan injection against `dev`.
    fn note_chaos(&self, dev: DeviceId, fault: &'static str) {
        if self.telemetry.journal_enabled() {
            self.telemetry.record(
                self.telemetry
                    .event(EventKind::FaultInjected, Severity::Warn)
                    .field("fault", fault)
                    .field("device", format!("d{}", dev.0)),
            );
        }
    }

    /// The export-policy *override* a drained device applies: pad the
    /// AS-path and tag MAINTENANCE, making every advertisement less
    /// preferred (§3.4's "preset BGP export policy"). The override's rules
    /// are prepended to each session's base policy, so valley-free
    /// propagation survives the drain.
    pub fn drain_export_policy(asn: Asn) -> Policy {
        Policy::accept_all().rule(PolicyRule {
            matches: MatchExpr::any(),
            actions: vec![
                Action::Prepend(asn, 3),
                Action::AddCommunity(well_known::MAINTENANCE),
            ],
        })
    }

    /// Drain a device (transition LIVE → MAINTENANCE) now.
    pub fn drain_device(&mut self, dev: DeviceId) {
        let Some(d) = self.devices.get(dev) else {
            return;
        };
        let policy = Box::new(Self::drain_export_policy(d.daemon.asn()));
        self.topo.set_device_state(dev, DeviceState::Drained);
        self.schedule_in(0, NetEvent::SetExportPolicy { dev, policy });
    }

    /// Undrain a device (MAINTENANCE → LIVE) now.
    pub fn undrain_device(&mut self, dev: DeviceId) {
        self.topo.set_device_state(dev, DeviceState::Live);
        self.schedule_in(
            0,
            NetEvent::SetExportPolicy {
                dev,
                policy: Box::new(Policy::accept_all()),
            },
        );
    }

    /// Power a device off: its sessions drop; neighbors notice after the
    /// failure-detection delay.
    pub fn device_down(&mut self, dev: DeviceId) {
        self.topo.set_device_state(dev, DeviceState::Down);
        let Some(d) = self.devices.get(dev) else {
            return;
        };
        let sessions = d.daemon.peer_ids();
        for peer in sessions {
            // Local side: immediate, silent (the box is dead).
            self.schedule_in(0, NetEvent::SessionDown { dev, peer });
            // Remote side notices after detection delay.
            let neighbor = DeviceId(peer.device());
            let their_session = PeerId::compose(dev.0, peer.session_index());
            self.schedule_in(
                FAILURE_DETECTION_US,
                NetEvent::SessionDown {
                    dev: neighbor,
                    peer: their_session,
                },
            );
        }
    }

    /// Power a device back on: sessions re-establish after detection delay.
    pub fn device_up(&mut self, dev: DeviceId) {
        self.topo.set_device_state(dev, DeviceState::Live);
        let Some(d) = self.devices.get(dev) else {
            return;
        };
        for peer in d.daemon.peer_ids() {
            self.schedule_in(FAILURE_DETECTION_US, NetEvent::SessionUp { dev, peer });
            let neighbor = DeviceId(peer.device());
            let their_session = PeerId::compose(dev.0, peer.session_index());
            self.schedule_in(
                FAILURE_DETECTION_US,
                NetEvent::SessionUp {
                    dev: neighbor,
                    peer: their_session,
                },
            );
        }
    }

    /// Commission a new device mid-simulation (topology expansion): creates
    /// the daemon, wires sessions to `links`, and schedules session
    /// establishment. Returns the new device id.
    pub fn commission_device(
        &mut self,
        name: centralium_topology::DeviceName,
        asn: Asn,
        links: &[(DeviceId, f64)],
    ) -> DeviceId {
        let id = self.topo.add_device(name, asn);
        let mut dcfg = DaemonConfig::fabric(asn);
        dcfg.wcmp_advertise = self.cfg.wcmp_advertise;
        let nhg_cap = self.topo.device(id).expect("just added").max_nexthop_groups;
        let mut device = SimDevice::new(id, dcfg, nhg_cap);
        let scope = format!("d{}", id.0);
        device.daemon.set_telemetry(&self.telemetry, scope.clone());
        device.engine.set_telemetry(&self.telemetry, scope);
        self.devices.insert(id, device);
        for &(other, capacity) in links {
            self.connect_devices(id, other, capacity);
        }
        id
    }

    /// Cable a new link between two live devices mid-simulation: updates the
    /// topology, wires sessions (with base policies) and schedules their
    /// establishment. Returns the new link id.
    pub(crate) fn connect_devices(
        &mut self,
        a: DeviceId,
        b: DeviceId,
        capacity_gbps: f64,
    ) -> centralium_topology::LinkId {
        let base = self.next_session_index(a, b);
        let lid = self.topo.add_link(a, b, capacity_gbps);
        self.wire_link(a, b, capacity_gbps);
        for k in base..base + self.cfg.sessions_per_link {
            self.schedule_in(
                0,
                NetEvent::SessionUp {
                    dev: a,
                    peer: PeerId::compose(b.0, k),
                },
            );
            self.schedule_in(
                0,
                NetEvent::SessionUp {
                    dev: b,
                    peer: PeerId::compose(a.0, k),
                },
            );
        }
        lid
    }

    /// De-cable a link: tear its sessions down *and unconfigure them* on
    /// both sides (so a later `device_up` cannot resurrect sessions over
    /// absent cabling), then remove it from the topology.
    pub(crate) fn disconnect_link(&mut self, link: centralium_topology::LinkId) -> bool {
        let Some(l) = self.topo.link(link).copied() else {
            return false;
        };
        for k in 0..self.cfg.sessions_per_link {
            self.schedule_in(
                0,
                NetEvent::RemovePeer {
                    dev: l.a,
                    peer: PeerId::compose(l.b.0, k),
                },
            );
            self.schedule_in(
                0,
                NetEvent::RemovePeer {
                    dev: l.b,
                    peer: PeerId::compose(l.a.0, k),
                },
            );
        }
        self.topo.remove_link(link);
        true
    }

    /// Apply one stage of a [`centralium_topology::Migration`] to the live
    /// network, translating topology deltas into emulator operations.
    /// Returns the name→id bindings for devices the stage created. Callers
    /// run the network to quiescence between stages — exactly the paper's
    /// convergence barrier between migration steps.
    pub fn apply_migration_stage(
        &mut self,
        stage: &centralium_topology::MigrationStage,
    ) -> Result<BTreeMap<centralium_topology::DeviceName, DeviceId>, String> {
        use centralium_topology::TopologyDelta;
        let mut created = BTreeMap::new();
        for delta in &stage.deltas {
            match delta {
                TopologyDelta::AddDevice { name, asn } => {
                    let id = self.commission_device(*name, *asn, &[]);
                    created.insert(*name, id);
                }
                TopologyDelta::RemoveDevice { id } => {
                    if self.device(*id).is_none() {
                        return Err(format!("unknown device {id}"));
                    }
                    self.decommission_device(*id);
                }
                TopologyDelta::SetDeviceState { id, state } => {
                    if self.device(*id).is_none() {
                        return Err(format!("unknown device {id}"));
                    }
                    match state {
                        DeviceState::Drained => self.drain_device(*id),
                        DeviceState::Live => {
                            // Undrain, and power back on if it was down.
                            if self.topo.device(*id).map(|d| d.state) == Some(DeviceState::Down) {
                                self.device_up(*id);
                            }
                            self.undrain_device(*id);
                        }
                        DeviceState::Down => self.device_down(*id),
                    }
                }
                TopologyDelta::AddLinkByName {
                    a,
                    b,
                    capacity_gbps,
                } => {
                    let ia = self
                        .topo
                        .device_by_name(*a)
                        .ok_or_else(|| format!("unknown device name {a}"))?;
                    let ib = self
                        .topo
                        .device_by_name(*b)
                        .ok_or_else(|| format!("unknown device name {b}"))?;
                    self.connect_devices(ia, ib, *capacity_gbps);
                }
                TopologyDelta::RemoveLink { id } => {
                    if !self.disconnect_link(*id) {
                        return Err(format!("unknown link {id}"));
                    }
                }
            }
        }
        Ok(created)
    }

    /// Decommission a device: drop all its sessions (neighbors notice after
    /// detection) and remove it from the simulation and topology.
    pub fn decommission_device(&mut self, dev: DeviceId) {
        self.device_down(dev);
        self.devices.remove(dev);
        self.topo.remove_device(dev);
        for prefix_origins in self.originators.values_mut() {
            prefix_origins.remove(&dev);
        }
    }

    /// Schedule `from`'s daemon output for delivery, applying latency,
    /// jitter and per-session FIFO; every piece travels as a
    /// [`NetEvent::DeliverBatch`] whose payload waits in the batch slab.
    /// The run loop sends every device's output through here; a host that
    /// drives a daemon by hand (Figure 12's installs) hands its output here
    /// too. The two delivery modes differ in two rules:
    ///
    /// * **Coalescing on** — output merges (last-writer-wins per prefix)
    ///   into the session's open batch while its delivery is still at least
    ///   one base latency away — i.e. while the new information could not
    ///   legally have arrived before the batch does — and otherwise opens a
    ///   batch held `3L` + jitter.
    /// * **Coalescing off** — the UPDATE is split into per-prefix pieces,
    ///   shuffled, and each piece is sent `L` + jitter out as a batch of one.
    ///
    /// FIFO order within a session holds by construction: a batch never
    /// overtakes an earlier delivery (the FIFO clamp) and merged content
    /// arrives exactly when its batch does.
    pub fn emit(&mut self, from: DeviceId, outputs: Vec<(PeerId, UpdateMessage)>) {
        if outputs.is_empty() {
            // A device's session table is made at its first emission.
            return;
        }
        let mut table = self.sessions.remove(from).unwrap_or_default();
        let mut cursor = 0;
        for (peer, msg) in outputs {
            let to = DeviceId(peer.device());
            let on = PeerId::compose(from.0, peer.session_index());
            cursor = session_slot(&mut table, cursor, peer) + 1;
            let (_, session) = &mut table[cursor - 1];
            if !self.cfg.coalesce_updates {
                let mut pieces = msg.split();
                if pieces.len() > 1 {
                    use rand::seq::SliceRandom;
                    pieces.shuffle(&mut self.rng);
                }
                for piece in pieces {
                    self.send(session, to, on, BASE_LATENCY_US, piece);
                }
            } else if session.last >= self.now + BASE_LATENCY_US {
                self.counters.updates_coalesced.inc();
                self.batches
                    .get_mut(session.batch)
                    .expect("open batch has a payload")
                    .merge(msg);
            } else {
                // A fresh batch is held one extra base latency beyond the
                // message's own flight time — the role BGP's MRAI timer
                // plays. Output a convergence wave generates in the next
                // latency window (reactions to events one hop upstream)
                // merges into the batch instead of scheduling deliveries of
                // its own, which also damps path hunting: the receiver never
                // processes the squashed-away intermediate states, so it
                // never re-advertises them.
                self.send(session, to, on, 3 * BASE_LATENCY_US, msg);
            }
        }
        self.sessions.insert(from, table);
    }

    /// Open a batch carrying `msg` on `session`, delivered to `to` on `on`
    /// `flight` + jitter from now, never before the session's latest
    /// delivery (TCP FIFO per directed session).
    fn send(
        &mut self,
        session: &mut Session,
        to: DeviceId,
        on: PeerId,
        flight: SimTime,
        msg: UpdateMessage,
    ) {
        let jitter = if self.cfg.jitter_us > 0 {
            self.rng.gen_range(0..=self.cfg.jitter_us)
        } else {
            0
        };
        let at = (self.now + flight + jitter).max(session.last + 1);
        let batch = self.batches.open(msg);
        *session = Session { last: at, batch };
        self.queue
            .schedule(at, NetEvent::DeliverBatch { to, on, batch });
    }
}

/// Payloads of in-flight batches, by batch id. They live outside the event
/// queue because queued payloads are immutable while a coalesced batch keeps
/// absorbing output until one base latency before delivery. Ids are minted
/// at the back in pop order; a delivery's job takes its payload, retired ids
/// are trimmed off the front, and quiescence hands back the capacity.
#[derive(Debug, Default)]
struct BatchSlab {
    /// Batch `base + i`'s payload at `i`, `None` once delivered.
    slots: VecDeque<Option<UpdateMessage>>,
    base: u64,
}

impl BatchSlab {
    /// Open a batch carrying `msg`, returning its id.
    fn open(&mut self, msg: UpdateMessage) -> u64 {
        self.slots.push_back(Some(msg));
        self.base + self.slots.len() as u64 - 1
    }

    /// The payload of batch `id`, while it is in flight.
    fn get(&self, id: u64) -> Option<&UpdateMessage> {
        self.slots
            .get(id.checked_sub(self.base)? as usize)?
            .as_ref()
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut UpdateMessage> {
        self.slots
            .get_mut(id.checked_sub(self.base)? as usize)?
            .as_mut()
    }

    /// Take batch `id`'s payload, trimming retired ids off the front.
    fn take(&mut self, id: u64) -> Option<UpdateMessage> {
        let msg = self
            .slots
            .get_mut(id.checked_sub(self.base)? as usize)?
            .take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        msg
    }
}

/// The sender's side of one directed session: when its latest delivery is
/// scheduled (the TCP FIFO clamp) and the batch that delivery carries —
/// with coalescing on, the session's open batch while it is at least one
/// base latency away.
#[derive(Debug, Clone, Copy, Default)]
struct Session {
    /// Time of the latest delivery scheduled on the session (0: none yet).
    last: SimTime,
    /// Id of the batch delivered at `last`.
    batch: u64,
}

/// The index of `peer`'s slot in the session-ascending `table`, inserted if
/// absent. A walk over session-ascending output passes the index after the
/// previous answer as `cursor`, where the next session's slot usually is.
fn session_slot(table: &mut Vec<(PeerId, Session)>, cursor: usize, peer: PeerId) -> usize {
    if table.get(cursor).is_some_and(|(p, _)| *p == peer) {
        return cursor;
    }
    let i = table.partition_point(|(p, _)| *p < peer);
    if table.get(i).is_none_or(|(p, _)| *p != peer) {
        table.insert(i, (peer, Session::default()));
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_topology::{build_fabric, FabricSpec, Layer};

    fn default_route() -> Prefix {
        Prefix::DEFAULT
    }

    fn tiny_net(seed: u64) -> (SimNet, centralium_topology::builder::FabricIndex) {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let net = SimNet::new(
            topo,
            SimConfig {
                seed,
                ..Default::default()
            },
        );
        (net, idx)
    }

    /// A registry counter of `net`'s telemetry handle.
    fn counter(net: &SimNet, name: &str) -> u64 {
        net.telemetry().metrics().snapshot().counter(name)
    }

    #[test]
    fn fabric_converges_on_default_route() {
        let (mut net, idx) = tiny_net(7);
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, default_route(), [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        let report = net.run_until_quiescent().expect_converged();
        assert!(report.events_processed > 0);
        // Every RSW must have a default route with multiple next-hops (its
        // FSW uplinks).
        for pod in &idx.rsw {
            for &rsw in pod {
                let fib = &net.device(rsw).unwrap().fib;
                let entry = fib.entry(default_route()).expect("default route installed");
                assert_eq!(entry.nexthops.len(), 2, "two FSW uplinks in tiny fabric");
            }
        }
    }

    #[test]
    fn runs_are_deterministic_under_seed() {
        let run = |seed| {
            let (mut net, idx) = tiny_net(seed);
            net.establish_all();
            for &eb in &idx.backbone {
                net.originate(eb, default_route(), [well_known::BACKBONE_DEFAULT_ROUTE]);
            }
            let r = net.run_until_quiescent();
            let counters: Vec<u64> = [
                "simnet.messages_delivered",
                "simnet.announcements",
                "simnet.withdrawals",
                "simnet.rpa_operations",
                "simnet.rpa_failures",
                "simnet.session_events",
            ]
            .iter()
            .map(|name| counter(&net, name))
            .collect();
            (r.events_processed, r.finished_at, counters)
        };
        assert_eq!(run(42), run(42));
        let (e1, t1, _) = run(42);
        let (e2, t2, _) = run(43);
        // Different seeds almost surely differ in timing.
        assert!(e1 != e2 || t1 != t2);
    }

    #[test]
    fn device_down_withdraws_routes() {
        let (mut net, idx) = tiny_net(3);
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, default_route(), [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        // Kill one FADU; SSWs connected to it lose one next-hop.
        let victim = idx.fadu[0][0];
        let ssw = idx.ssw[0][0]; // pairs with FADU-0s
        let before = net
            .device(ssw)
            .unwrap()
            .fib
            .entry(default_route())
            .unwrap()
            .nexthops
            .len();
        net.device_down(victim);
        net.run_until_quiescent().expect_converged();
        let after = net
            .device(ssw)
            .unwrap()
            .fib
            .entry(default_route())
            .unwrap()
            .nexthops
            .len();
        assert_eq!(after, before - 1);
    }

    #[test]
    fn drain_depreferences_routes() {
        let (mut net, idx) = tiny_net(11);
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, default_route(), [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        // Drain FADU-0 of grid 0: the paired SSW still has FADU-0 of grid 1
        // live; the drained FADU's longer AS-path loses path selection.
        let victim = idx.fadu[0][0];
        let ssw = idx.ssw[0][0];
        assert_eq!(
            net.device(ssw)
                .unwrap()
                .fib
                .entry(default_route())
                .unwrap()
                .nexthops
                .len(),
            2
        );
        net.drain_device(victim);
        net.run_until_quiescent().expect_converged();
        let entry = net
            .device(ssw)
            .unwrap()
            .fib
            .entry(default_route())
            .unwrap()
            .clone();
        assert_eq!(entry.nexthops.len(), 1, "drained FADU no longer selected");
        assert_eq!(entry.nexthops[0].0.device(), idx.fadu[1][0].0);
        // Undrain restores ECMP.
        net.undrain_device(victim);
        net.run_until_quiescent().expect_converged();
        assert_eq!(
            net.device(ssw)
                .unwrap()
                .fib
                .entry(default_route())
                .unwrap()
                .nexthops
                .len(),
            2
        );
    }

    #[test]
    fn commission_device_joins_fabric() {
        let (mut net, idx) = tiny_net(5);
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, default_route(), [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        // Add a third FAUU to grid 0, linked to both FADUs of grid 0 and
        // both EBs.
        let mut links: Vec<(DeviceId, f64)> = idx.fadu[0].iter().map(|&d| (d, 100.0)).collect();
        links.extend(idx.backbone.iter().map(|&d| (d, 100.0)));
        let new_fauu = net.commission_device(
            centralium_topology::DeviceName::new(Layer::Fauu, 0, 9),
            Asn(59_999),
            &links,
        );
        net.run_until_quiescent().expect_converged();
        // The new FAUU learned the default route from both EBs.
        let entry = net
            .device(new_fauu)
            .unwrap()
            .fib
            .entry(default_route())
            .unwrap();
        assert_eq!(entry.nexthops.len(), 2);
        // FADUs now have three uplinks toward the default route.
        for &fadu in &idx.fadu[0] {
            let entry = net
                .device(fadu)
                .unwrap()
                .fib
                .entry(default_route())
                .unwrap();
            assert_eq!(entry.nexthops.len(), 3);
        }
    }

    #[test]
    fn decommission_device_cleans_up() {
        let (mut net, idx) = tiny_net(6);
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, default_route(), [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        let victim = idx.fauu[0][0];
        net.decommission_device(victim);
        net.run_until_quiescent().expect_converged();
        assert!(net.device(victim).is_none());
        for &fadu in &idx.fadu[0] {
            let entry = net
                .device(fadu)
                .unwrap()
                .fib
                .entry(default_route())
                .unwrap();
            assert_eq!(entry.nexthops.len(), 1, "one FAUU left in grid 0");
        }
    }

    #[test]
    fn rpa_deployment_reevaluates_routes() {
        use centralium_rpa::{
            Destination, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature,
        };
        let (mut net, idx) = tiny_net(8);
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, default_route(), [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        let ssw = idx.ssw[0][0];
        // An equalize RPA on an SSW: select every backbone-tagged path.
        let doc = RpaDocument::PathSelection(PathSelectionRpa::single(
            "equalize",
            PathSelectionStatement::select(
                Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
                vec![PathSet::new("all", PathSignature::any())],
            ),
        ));
        net.deploy_rpa(ssw, doc, 300);
        net.run_until_quiescent().expect_converged();
        assert_eq!(
            net.device(ssw).unwrap().engine.installed(),
            vec!["equalize"]
        );
        assert_eq!(counter(&net, "simnet.rpa_operations"), 1);
    }

    #[test]
    fn run_until_moves_the_telemetry_clock_to_the_deadline() {
        let (mut net, idx) = tiny_net(7);
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, default_route(), [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        let deadline = net.now() + 5_000;
        assert_eq!(
            net.run_until(deadline),
            0,
            "a quiescent fabric has no events"
        );
        assert_eq!(net.now(), deadline);
        // Journal records made after the run (a controller's retry note)
        // are stamped with the telemetry clock, which must not lag behind.
        assert_eq!(net.telemetry().now(), net.now());
    }

    #[test]
    fn chaos_drops_rpcs_but_not_bgp() {
        let run = |chaos: Option<ChaosPlan>| {
            let (mut net, idx) = tiny_net(13);
            if let Some(plan) = chaos {
                net.set_chaos(plan);
            }
            net.establish_all();
            for &eb in &idx.backbone {
                net.originate(eb, default_route(), [well_known::BACKBONE_DEFAULT_ROUTE]);
            }
            let report = net.run_until_quiescent().expect_converged();
            (report.events_processed, report.finished_at, net, idx)
        };
        let (e0, t0, _, _) = run(None);
        // Chaos with total RPC loss: BGP convergence is bit-identical
        // (chaos never touches the shared RNG stream) and the lost RPCs
        // are counted.
        let (e1, t1, mut net, idx) = run(Some(ChaosPlan::with_rpc_loss(7, 1.0)));
        assert_eq!((e0, t0), (e1, t1), "chaos must not perturb BGP timing");
        let ssw = idx.ssw[0][0];
        net.deploy_rpa(
            ssw,
            RpaDocument::RouteFilter(centralium_rpa::RouteFilterRpa {
                name: "never-lands".into(),
                statements: vec![],
            }),
            300,
        );
        net.run_until_quiescent().expect_converged();
        assert!(net.device(ssw).unwrap().engine.installed().is_empty());
        assert_eq!(counter(&net, "simnet.rpa_operations"), 0);
        assert_eq!(
            net.telemetry()
                .metrics()
                .snapshot()
                .counter("simnet.rpc_dropped"),
            1
        );
    }

    #[test]
    fn chaos_duplicates_are_idempotent() {
        let (mut net, idx) = tiny_net(14);
        net.set_chaos(ChaosPlan {
            rpc_duplicate: 1.0,
            ..ChaosPlan::new(7)
        });
        net.establish_all();
        net.run_until_quiescent().expect_converged();
        let ssw = idx.ssw[0][0];
        net.deploy_rpa(
            ssw,
            RpaDocument::RouteFilter(centralium_rpa::RouteFilterRpa {
                name: "twice".into(),
                statements: vec![],
            }),
            300,
        );
        net.run_until_quiescent().expect_converged();
        // Both copies land; a same-name install replaces, so the second is a no-op.
        assert_eq!(net.device(ssw).unwrap().engine.installed(), vec!["twice"]);
        assert_eq!(counter(&net, "simnet.rpa_operations"), 2);
        assert_eq!(
            net.telemetry()
                .metrics()
                .snapshot()
                .counter("simnet.rpc_duplicated"),
            1
        );
    }

    #[test]
    fn agent_restart_loses_rpa_state() {
        let (mut net, idx) = tiny_net(15);
        net.establish_all();
        net.run_until_quiescent().expect_converged();
        let ssw = idx.ssw[0][0];
        net.deploy_rpa(
            ssw,
            RpaDocument::RouteFilter(centralium_rpa::RouteFilterRpa {
                name: "doomed".into(),
                statements: vec![],
            }),
            300,
        );
        net.run_until_quiescent().expect_converged();
        assert_eq!(net.device(ssw).unwrap().engine.installed(), vec!["doomed"]);
        net.schedule_in(0, NetEvent::AgentRestart { dev: ssw });
        net.run_until_quiescent().expect_converged();
        assert!(net.device(ssw).unwrap().engine.installed().is_empty());
        assert_eq!(
            net.telemetry()
                .metrics()
                .snapshot()
                .counter("simnet.agent_restarts"),
            1
        );
    }

    #[test]
    fn an_rpa_deadline_past_the_clock_bound_is_refused() {
        use centralium_rpa::{Destination, RouteAttributeRpa, RouteAttributeStatement};
        let (mut net, idx) = tiny_net(16);
        net.establish_all();
        net.run_until_quiescent().expect_converged();
        let ssw = idx.ssw[0][0];
        let doc = |deadline| {
            let destination = Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE);
            let statement = RouteAttributeStatement::new(destination, vec![]);
            let doc = RouteAttributeRpa::single("far", statement.expires_at(deadline));
            RpaDocument::RouteAttribute(doc)
        };
        for (refused, deadline) in [(1, u64::MAX), (2, MAX_DEADLINE + 1)] {
            net.deploy_rpa(ssw, doc(deadline), 300);
            // Checked before the loop runs: a queued deadline there would
            // spin it (`u64::MAX`) or overflow a later `now + offset`.
            assert!(net.queue.is_empty(), "nothing queued for {deadline}");
            assert_eq!(counter(&net, "simnet.rpa_failures"), refused);
        }
        net.run_until_quiescent().expect_converged();
        assert!(net.device(ssw).unwrap().engine.installed().is_empty());
        // The bound itself is a deadline like any other.
        net.deploy_rpa(ssw, doc(MAX_DEADLINE), 300);
        assert_eq!(net.queue.len(), 2, "the install and its expiry");
        net.run_until_quiescent().expect_converged();
        assert_eq!(net.now(), MAX_DEADLINE);
        assert_eq!(counter(&net, "simnet.rpa_failures"), 2);
    }

    #[test]
    fn the_oracle_refuses_a_pending_queue() {
        let (mut net, idx) = tiny_net(4);
        net.establish_all();
        net.run_until_quiescent().expect_converged();
        net.originate(
            idx.backbone[0],
            default_route(),
            [well_known::BACKBONE_DEFAULT_ROUTE],
        );
        let err = net.verify_full_equivalence().unwrap_err();
        assert!(err.contains("1 events pending"), "{err}");
        // Nothing ran: the origination is still queued, and once it has
        // converged the oracle holds.
        assert_eq!(net.pending_events(), 1);
        net.run_until_quiescent().expect_converged();
        net.verify_full_equivalence().unwrap();
    }

    /// Step `net` to quiescence, asserting per-session FIFO: every directed
    /// session delivers its batches in the order they were opened (id) and
    /// at strictly increasing times. Returns the batches delivered, and how
    /// many of them overtook an older batch of some other session.
    fn step_checking_fifo(net: &mut SimNet) -> (usize, usize) {
        let mut newest: BTreeMap<(PeerId, DeviceId), (SimTime, u64)> = BTreeMap::new();
        let (mut delivered, mut overtaking, mut newest_id) = (0, 0, 0);
        while let Some((t, ev)) = net.queue.peek() {
            if let NetEvent::DeliverBatch { to, on, batch } = *ev {
                overtaking += usize::from(batch < newest_id);
                newest_id = newest_id.max(batch);
                if let Some(&(last_t, last_id)) = newest.get(&(on, to)) {
                    assert!(
                        t > last_t && batch > last_id,
                        "d{}s{} -> d{}: batch {batch} at {t} after batch {last_id} at {last_t}",
                        on.device(),
                        on.session_index(),
                        to.0
                    );
                }
                newest.insert((on, to), (t, batch));
                delivered += 1;
            }
            net.step();
        }
        (delivered, overtaking)
    }

    /// A converged tiny fabric with up to 20 ms of jitter per delivery, and
    /// its first rack switch with the first uplink link, after the switch
    /// has just originated its rack prefix: that UPDATE is in flight toward
    /// the uplink.
    fn rack_update_in_flight(
        seed: u64,
        coalesce: bool,
    ) -> (SimNet, DeviceId, centralium_topology::Link) {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let cfg = SimConfig::builder()
            .seed(seed)
            .jitter_us(20_000)
            .coalesce_updates(coalesce)
            .build();
        let mut net = SimNet::new(topo, cfg);
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, default_route(), [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        let rsw = idx.rsw[0][0];
        let link = *net.topo.links().find(|l| l.a == rsw).expect("an uplink");
        net.originate(rsw, Prefix::new(0x0A00_0000, 24), [well_known::RACK_PREFIX]);
        net.run_until(net.now());
        assert!(net.pending_events() > 0, "the rack UPDATE is in flight");
        (net, rsw, link)
    }

    #[test]
    fn out_of_order_deliveries_leave_the_batch_slab_empty() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let cfg = SimConfig {
            seed: 3,
            jitter_us: 4 * BASE_LATENCY_US,
            ..Default::default()
        };
        let mut net = SimNet::new(topo, cfg);
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, default_route(), [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        let (mut newest, mut overtaken) = (0, 0);
        while let Some((_, ev)) = net.queue.peek() {
            if let NetEvent::DeliverBatch { batch, .. } = *ev {
                overtaken += usize::from(batch < newest);
                newest = newest.max(batch);
            }
            net.step();
        }
        assert!(overtaken > 0, "no batch was delivered before an older one");
        assert!(
            net.batches.slots.is_empty(),
            "{} slab slots left",
            net.batches.slots.len()
        );
        assert_eq!(net.batches.base, newest + 1);
        assert!(net.batches.slots.capacity() > 0);
        net.run_until_quiescent().expect_converged();
        assert_eq!(net.batches.slots.capacity(), 0, "quiescence hands it back");
    }

    /// A link removed and re-cabled while an UPDATE is in flight on it comes
    /// back with the same session index. The sender's slot survives, so the
    /// re-advertisement queues behind the in-flight batch. Coalescing merges
    /// it into the batch, which is still open. Split delivery sends it one
    /// latency plus a fresh jitter out, which often draws a time before the
    /// in-flight batch's: only the FIFO clamp in `send` keeps it behind.
    #[test]
    fn a_recabled_session_keeps_fifo_behind_its_in_flight_batch() {
        for (seed, coalesce) in (1..=6).flat_map(|s| [(s, true), (s, false)]) {
            let (mut net, rsw, link) = rack_update_in_flight(seed, coalesce);
            net.disconnect_link(link.id);
            net.run_until(net.now());
            net.connect_devices(rsw, link.b, link.capacity_gbps);
            assert!(step_checking_fifo(&mut net).0 > 0);
            let fsw = net.device(link.b).expect("the uplink is live");
            assert!(fsw.daemon.is_established(PeerId::compose(rsw.0, 0)));
        }
    }

    /// The same guarantee across a device bounce: sessions come back one
    /// failure-detection delay later, while UPDATEs sent before the
    /// bounce can still be in flight (in split delivery, behind the clamp).
    #[test]
    fn a_bounced_device_keeps_fifo_behind_its_in_flight_batches() {
        for (seed, coalesce) in (1..=6).flat_map(|s| [(s, true), (s, false)]) {
            let (mut net, rsw, _) = rack_update_in_flight(seed, coalesce);
            net.device_down(rsw);
            net.device_up(rsw);
            assert!(step_checking_fifo(&mut net).0 > 0);
        }
    }

    /// Split delivery under jitter fifty base latencies wide: the pieces of
    /// one UPDATE, and of successive UPDATEs on a session, draw jitters that
    /// would reorder them many times over, yet every session delivers its
    /// pieces in emission order — each a batch of one.
    #[test]
    fn split_pieces_keep_fifo_under_wide_jitter() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let cfg = SimConfig::builder()
            .seed(5)
            .jitter_us(50 * BASE_LATENCY_US)
            .coalesce_updates(false)
            .build();
        let mut net = SimNet::new(topo, cfg);
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, default_route(), [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        for (pod, racks) in idx.rsw.iter().enumerate() {
            for (r, &rsw) in racks.iter().enumerate() {
                let prefix = Prefix::new(0x0A00_0000 | (pod as u32) << 16 | (r as u32) << 8, 24);
                net.originate(rsw, prefix, [well_known::RACK_PREFIX]);
            }
        }
        let (delivered, overtaking) = step_checking_fifo(&mut net);
        assert!(overtaking > 0, "the jitter never reordered two batches");
        let snap = net.telemetry().metrics().snapshot();
        assert_eq!(snap.counter("simnet.messages_delivered"), delivered as u64);
        assert_eq!(snap.counter("simnet.batches_delivered"), delivered as u64);
        assert_eq!(snap.counter("simnet.updates_coalesced"), 0);
        assert!(net.batches.slots.is_empty());
    }
}
