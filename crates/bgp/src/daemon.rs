//! The BGP speaker: RIBs + decision process + advertisement, with RPA hooks.
//!
//! [`BgpDaemon`] is a pure state machine driven as a BGP kernel is: ingest,
//! then decide. The mutators ([`ingest`](BgpDaemon::ingest), `originate`,
//! `withdraw_origin`, `peer_down`, `remove_peer`, `purge_ingress`, `mark`)
//! only edit their table and mark the prefixes they touched dirty; one
//! [`decide`](BgpDaemon::decide) re-decides the dirty prefixes, programs the
//! host's [`ForwardingPlane`] with each Loc-RIB entry it moved, and writes
//! the updates the speaker wants transmitted into the caller's [`Outbox`],
//! one UPDATE per session. The caller owns delivery (and, in the
//! emulator, delivery *timing* — which is what creates the paper's
//! transitory states).
//!
//! # The Adj-RIB-Out invariant
//!
//! What a session should be told about a prefix is a function of three
//! inputs: the Loc-RIB entry's `advertised` route (plus, under
//! [`DaemonConfig::wcmp_advertise`], the entry's effective capacity), the
//! session's own state (established, export policy), and the hook's egress
//! verdict. *After every `decide`, Adj-RIB-Out holds for every established
//! session exactly what a full export would compute.* `decide` therefore
//! exports only what the marks since the last one can have moved:
//!
//! * `ingest`, `peer_down` / `remove_peer`, `originate` and `withdraw_origin`
//!   move only the first input, so a marked prefix is exported only when its
//!   advertised route moved — an arrival that leaves the best path alone
//!   costs no per-session work at all;
//! * `purge_ingress` and `mark` follow a move of the other two (an
//!   export-policy swap, an RPA install / remove, an agent restart), so one
//!   of their marks makes `decide` export every dirty prefix;
//! * [`peer_up`](BgpDaemon::peer_up) decides nothing: it moves one session's
//!   state and exports the whole table to that session.
//!
//! The incumbent fast path (compare the one moved route with the installed
//! entry) runs only while every mark since the last `decide` came from
//! `ingest` on one session. Both facts join conservatively: a mixed dirty
//! set gets the full pass and, if forced, the full export.
//!
//! # One slot per prefix
//!
//! Everything held for a prefix — each session's route, the origination,
//! the Loc-RIB entry, what each session was sent — is one [`PrefixState`]
//! slot, found once per step: by `ingest` per route, by `decide` per dirty
//! prefix, which hands it to the decision, the forwarding plane and the
//! export beside borrows of the config, the sessions and the telemetry. Both
//! walk ascending prefixes (an UPDATE's withdrawn run, then its announced
//! run; the sorted dirty list) with one cursor each, so a step searches only
//! the gap from the last slot. The export and candidate gathering walk the
//! sessions beside the slot's fans, never searching.

use crate::attrs::PathAttributes;
use crate::decision::{compare_routes, multipath_set, PathPreference};
use crate::flat::FlatMap;
use crate::hooks::{AdvertiseChoice, PathChoice, RibPolicy};
use crate::msg::UpdateMessage;
use crate::outbox::Outbox;
use crate::policy::Policy;
use crate::rib::{
    held, keep_selected, LocRibEntry, Path, PrefixState, PrefixTable, RibFootprint, Route,
};
use crate::types::{PeerId, Prefix};
use crate::wcmp;
use centralium_telemetry::{Counter, EventKind, Severity, Telemetry};
use centralium_topology::Asn;
use std::cmp::Ordering;
use std::sync::Arc;

/// Speaker-level configuration. A speaker always selects every
/// equally-preferred path (ECMP) and weighs them by the link-bandwidth
/// communities they carry (WCMP), unless a hook decides otherwise.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Own autonomous system.
    pub asn: Asn,
    /// Attach a link-bandwidth community on export, advertising the
    /// effective capacity behind the selected paths (distributed WCMP).
    pub wcmp_advertise: bool,
    /// Apply the §5.3.1 rule: when a Path Selection RPA chose the multipath
    /// set, advertise the *least favorable* selected route. Disabling this is
    /// the E10 ablation that re-creates the routing loop of Figure 9.
    pub least_favorable_advertisement: bool,
}

impl DaemonConfig {
    /// The standard fabric configuration: no capacity relayed, safe
    /// advertisement rule on.
    pub fn fabric(asn: Asn) -> Self {
        DaemonConfig {
            asn,
            wcmp_advertise: false,
            least_favorable_advertisement: true,
        }
    }
}

/// Per-session configuration.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// Session id.
    pub peer: PeerId,
    /// Remote AS (for documentation/validation; loop checks use AS-path).
    pub remote_asn: Asn,
    /// Import policy applied to routes received on this session. Shared —
    /// a fabric configures a handful of canonical policy shapes across
    /// ~millions of session endpoints, so sessions hold refs, not copies.
    pub import: Arc<Policy>,
    /// Export policy applied to routes advertised on this session. Shared,
    /// same rationale as `import`.
    pub export: Arc<Policy>,
    /// Physical capacity of the underlying link, in Gbps.
    pub link_capacity_gbps: f64,
}

impl PeerConfig {
    /// Accept-all policies with the given capacity.
    pub fn open(peer: PeerId, remote_asn: Asn, link_capacity_gbps: f64) -> Self {
        PeerConfig {
            peer,
            remote_asn,
            import: Policy::shared_accept_all(),
            export: Policy::shared_accept_all(),
            link_capacity_gbps,
        }
    }
}

#[derive(Debug, Clone)]
struct PeerState {
    cfg: PeerConfig,
    established: bool,
}

/// One FIB entry produced by the daemon for the forwarding plane.
#[derive(Debug, Clone, PartialEq)]
pub struct FibEntry {
    /// Destination.
    pub prefix: Prefix,
    /// Next-hop sessions with relative weights. Sorted by session id so that
    /// identical groups compare equal (next-hop-group dedup relies on this).
    pub nexthops: NextHops,
    /// True when the entry is retained only because of
    /// `KeepFibWarmIfMnhViolated` (withdrawn from peers).
    pub warm: bool,
}

/// A next-hop group as a FIB entry holds it: one allocation, shared by every
/// entry a FIB installs on the group, as ASIC entries point at one group
/// object. Derefs to the slice; compares and prints like a `Vec`.
#[derive(Clone, PartialEq, Eq)]
pub struct NextHops(pub Arc<[(PeerId, u32)]>);

impl std::ops::Deref for NextHops {
    type Target = [(PeerId, u32)];
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<'a> IntoIterator for &'a NextHops {
    type Item = &'a (PeerId, u32);
    type IntoIter = std::slice::Iter<'a, (PeerId, u32)>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl PartialEq<Vec<(PeerId, u32)>> for NextHops {
    fn eq(&self, other: &Vec<(PeerId, u32)>) -> bool {
        *self.0 == **other
    }
}

impl std::fmt::Debug for NextHops {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Where [`BgpDaemon::decide`] installs forwarding state: a host's FIB, or
/// nothing (`()`) for a speaker without one. A decide programs each prefix
/// whose Loc-RIB entry it (re)installed or removed, ascending and once,
/// with the entry borrowed in place (`None`: removed); so one decide is one
/// batch. A program may leave the forwarding state as it was (an entry
/// re-installed as it stood): the plane skips what it already holds.
pub trait ForwardingPlane {
    /// Install `prefix`'s forwarding state from `entry`, or remove it.
    fn program(&mut self, prefix: Prefix, entry: Option<&LocRibEntry>);
}

/// No forwarding plane: the Loc-RIB is all there is.
impl ForwardingPlane for () {
    fn program(&mut self, _prefix: Prefix, _entry: Option<&LocRibEntry>) {}
}

/// Records the prefixes programmed, in order: what a test counts.
impl ForwardingPlane for Vec<Prefix> {
    fn program(&mut self, prefix: Prefix, _entry: Option<&LocRibEntry>) {
        self.push(prefix);
    }
}

/// One known prefix's candidates as [`BgpDaemon::known`] hands them out: the
/// bodies [`BgpDaemon::candidates`] would turn into routes (Adj-RIB-In on
/// established sessions, plus the origination), borrowed in place.
#[derive(Clone, Copy)]
pub struct CandidateView<'a> {
    peers: &'a FlatMap<PeerId, PeerState>,
    slot: &'a PrefixState,
}

impl CandidateView<'_> {
    /// Whether some candidate's body satisfies `pred`. A learned body's
    /// session is looked up only once `pred` holds for it.
    pub fn any(&self, mut pred: impl FnMut(&PathAttributes) -> bool) -> bool {
        self.slot
            .rib_in()
            .iter()
            .any(|(peer, attrs)| pred(attrs) && established(self.peers, *peer))
            || self.slot.origination.as_deref().is_some_and(pred)
    }
}

/// Telemetry binding of one speaker, attached by the host via
/// [`BgpDaemon::set_telemetry`]: absent (and free) by default, and boxed so
/// an unbound daemon carries one pointer of overhead.
#[derive(Debug, Clone)]
struct DaemonTelemetry {
    telemetry: Telemetry,
    /// Emitter label on journal events, e.g. `"d12"`.
    scope: String,
    decisions: Counter,
    best_path_changes: Counter,
    export_evals: Counter,
}

/// A BGP speaker.
#[derive(Debug, Clone)]
pub struct BgpDaemon {
    cfg: DaemonConfig,
    peers: FlatMap<PeerId, PeerState>,
    /// Adj-RIB-In, originations, Loc-RIB and Adj-RIB-Out, one slot per
    /// prefix.
    rib: PrefixTable,
    /// Prefixes marked since the last [`BgpDaemon::decide`], repeats
    /// allowed, and what moved them; `dirty` keeps its capacity between
    /// decides.
    dirty: Vec<Prefix>,
    moved: Moved,
    telemetry: Option<Box<DaemonTelemetry>>,
}

/// What moved the prefixes marked since the last [`BgpDaemon::decide`], in
/// the order marks [`join`](Moved::join) up: the facts that pick its
/// decision and its export.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
enum Moved {
    #[default]
    Nothing,
    /// Only `ingest` on this session: the incumbent fast path, export on
    /// change.
    Session(PeerId),
    /// Routes of more than one source: the full pass, export on change.
    Routes,
    /// Export policy or hook state too: the full pass, export everything.
    Everything,
}

impl Moved {
    fn join(self, other: Moved) -> Moved {
        match (self, other) {
            (Moved::Nothing, m) | (m, Moved::Nothing) => m,
            (Moved::Session(a), Moved::Session(b)) if a == b => self,
            (Moved::Everything, _) | (_, Moved::Everything) => Moved::Everything,
            _ => Moved::Routes,
        }
    }
}

impl BgpDaemon {
    /// Create a speaker with no peers and nothing originated.
    pub fn new(cfg: DaemonConfig) -> Self {
        BgpDaemon {
            cfg,
            peers: FlatMap::new(),
            rib: PrefixTable::default(),
            dirty: Vec::new(),
            moved: Moved::Nothing,
            telemetry: None,
        }
    }

    /// Own ASN.
    pub fn asn(&self) -> Asn {
        self.cfg.asn
    }

    /// Attach telemetry: decision / best-path-change / export-evaluation
    /// counters plus [`EventKind::BgpDecision`] journal events labeled
    /// `scope`.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry, scope: impl Into<String>) {
        let m = telemetry.metrics();
        self.telemetry = Some(Box::new(DaemonTelemetry {
            telemetry: telemetry.clone(),
            scope: scope.into(),
            decisions: m.counter("bgp.decisions"),
            best_path_changes: m.counter("bgp.best_path_changes"),
            export_evals: m.counter("bgp.export_evals"),
        }));
    }

    /// Mutable access to the speaker config (used by ablations). Installed
    /// decisions and exports are not revisited: a change must be followed
    /// by [`reevaluate_all`](Self::reevaluate_all), as
    /// [`set_export_policy`](Self::set_export_policy) asks for exports.
    pub fn config_mut(&mut self) -> &mut DaemonConfig {
        &mut self.cfg
    }

    /// Register a session (initially down).
    pub fn add_peer(&mut self, cfg: PeerConfig) {
        self.peers.insert(
            cfg.peer,
            PeerState {
                cfg,
                established: false,
            },
        );
    }

    /// Remove a session entirely, flushing its routes and marking the
    /// prefixes they covered.
    pub fn remove_peer(&mut self, peer: PeerId) {
        let established = self.peers.remove(&peer).is_some_and(|s| s.established);
        self.flush_peer(peer, established);
    }

    /// Replace the export policy of a session (used e.g. to drain a device
    /// by making its advertisements less preferred). Callers must
    /// [`mark`](Self::mark) every prefix the policy can touch and then
    /// [`decide`](Self::decide): a `mark` is what makes `decide` export
    /// unconditionally, and until then Adj-RIB-Out keeps what the old policy
    /// produced (every other mark exports a prefix only when its advertised
    /// route moves).
    pub fn set_export_policy(&mut self, peer: PeerId, policy: impl Into<Arc<Policy>>) -> bool {
        match self.peers.get_mut(&peer) {
            Some(state) => {
                state.cfg.export = policy.into();
                true
            }
            None => false,
        }
    }

    /// The import policy configured on a session.
    pub fn import_policy(&self, peer: PeerId) -> Option<&Policy> {
        self.peers.get(&peer).map(|s| s.cfg.import.as_ref())
    }

    /// Prefixes currently originated by this speaker.
    pub fn originated_prefixes(&self) -> Vec<Prefix> {
        let originated = self
            .rib
            .iter()
            .filter(|(_, slot)| slot.origination.is_some());
        originated.map(|(prefix, _)| prefix).collect()
    }

    /// Attributes a prefix is originated with, if originated here.
    pub fn origination(&self, prefix: Prefix) -> Option<&PathAttributes> {
        self.rib.get(prefix)?.origination.as_deref()
    }

    /// Configured sessions.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        self.peers.keys().copied().collect()
    }

    /// Whether a session is established.
    pub fn is_established(&self, peer: PeerId) -> bool {
        established(&self.peers, peer)
    }

    // ---- mark, then decide ---------------------------------------------------

    /// Session reached Established: advertise the current table to it.
    pub fn peer_up(
        &mut self,
        peer: PeerId,
        policy: &dyn RibPolicy,
    ) -> Vec<(PeerId, UpdateMessage)> {
        match self.peers.get_mut(&peer) {
            Some(state) if !state.established => state.established = true,
            _ => return Vec::new(),
        }
        let (cfg, peers) = (&self.cfg, &self.peers);
        let session = peers.get(&peer).expect("looked up above");
        // Advertise every Loc-RIB advertised route to the new peer.
        let mut out = UpdateMessage::default();
        self.rib.edit_all(|prefix, slot| {
            let Some(mut export) = Export::of(cfg, peers, prefix, slot.loc.as_ref()) else {
                return;
            };
            if let Some(attrs) = export.toward(session, policy) {
                slot.export([(peer, Some(attrs))], |_, sent| {
                    out.announced.extend(sent.map(|attrs| (prefix, attrs)));
                });
            }
        });
        if out.is_empty() {
            Vec::new()
        } else {
            vec![(peer, out)]
        }
    }

    /// Session dropped: flush its routes and mark the prefixes they covered.
    pub fn peer_down(&mut self, peer: PeerId) {
        match self.peers.get_mut(&peer) {
            Some(state) if state.established => state.established = false,
            _ => return,
        }
        self.flush_peer(peer, true);
    }

    /// Drop the out-state toward `peer` and, if `rib_in`, its routes, marking
    /// the prefixes they covered. One pass over the table.
    fn flush_peer(&mut self, peer: PeerId, rib_in: bool) {
        let dirty = &mut self.dirty;
        self.rib.edit_all(|prefix, slot| {
            if slot.flush(peer, rib_in) {
                dirty.push(prefix);
            }
        });
        if rib_in {
            self.moved = self.moved.join(Moved::Routes);
        }
    }

    /// Originate (or re-originate with new attributes) a local route.
    pub fn originate(&mut self, prefix: Prefix, mut attrs: PathAttributes) {
        if attrs
            .link_bandwidth_gbps
            .map(|b| !b.is_finite())
            .unwrap_or(false)
        {
            attrs.link_bandwidth_gbps = None;
        }
        self.rib
            .with_slot(prefix, |slot| slot.origination = Some(Arc::new(attrs)));
        self.mark_moved([prefix], Moved::Routes);
    }

    /// Stop originating a local route.
    pub fn withdraw_origin(&mut self, prefix: Prefix) {
        if self
            .rib
            .with_slot(prefix, |slot| slot.origination.take().is_some())
        {
            self.mark_moved([prefix], Moved::Routes);
        }
    }

    /// Apply a received UPDATE to the Adj-RIB-In and mark the prefixes it
    /// changed. `policy` is the ingress Route Filter hook.
    pub fn ingest(&mut self, from: PeerId, update: UpdateMessage, policy: &dyn RibPolicy) {
        let Some(state) = self.peers.get(&from) else {
            return;
        };
        if !state.established {
            return;
        }
        let import = &state.cfg.import;
        // A delivered UPDATE is two ascending runs: each walks the table
        // with its own cursor.
        let mut cursor = 0;
        for prefix in update.withdrawn {
            if self
                .rib
                .with_slot_from(&mut cursor, prefix, |slot| slot.forget(from))
            {
                self.dirty.push(prefix);
            }
        }
        let mut cursor = 0;
        for (prefix, attrs) in update.announced {
            // RFC 4271 loop prevention: discard routes carrying our ASN.
            // The announcement still implicitly withdraws whatever this
            // session previously advertised for the prefix — skipping that
            // leaves stale "ghost" routes that can form stable cycles. So
            // does an import policy's reject or the ingress Route Filter's.
            let admitted = (!attrs.path_contains(self.cfg.asn))
                .then(|| import.apply_shared(&prefix, attrs))
                .flatten()
                .map(|mut attrs| {
                    // A non-finite link-bandwidth value would poison both
                    // weight derivation and the Adj-RIB-Out equality diff
                    // (NaN != NaN ⇒ perpetual re-announcement churn).
                    if attrs
                        .link_bandwidth_gbps
                        .map(|b| !b.is_finite())
                        .unwrap_or(false)
                    {
                        Arc::make_mut(&mut attrs).link_bandwidth_gbps = None;
                    }
                    Route::learned(prefix, attrs, from)
                })
                // Route Filter RPA, ingress direction (Figure 6).
                .filter(|route| policy.permit_ingress(from, prefix, route));
            // An identical re-announcement changes nothing; leaving it
            // unmarked keeps duplicate UPDATE floods (session resets,
            // refresh replies) off the decision path entirely.
            let changed = self
                .rib
                .with_slot_from(&mut cursor, prefix, |slot| match &admitted {
                    Some(route) => slot.learn(from, &route.attrs),
                    None => slot.forget(from),
                });
            if changed {
                self.dirty.push(prefix);
            }
        }
        self.moved = self.moved.join(Moved::Session(from));
    }

    /// Re-apply the ingress Route Filter hook to routes already admitted and
    /// mark the prefixes that lost one, forcing their export. Eviction is
    /// deliberate and permanent — holding filtered routes is exactly the
    /// resource exhaustion Route Filter RPAs exist to prevent (§4.3); as in
    /// real BGP, re-admission needs a route refresh or a session bounce.
    ///
    /// After an ingress-only filter change nothing else can have moved: a
    /// prefix that lost no route kept its whole candidate set. Callers
    /// [`mark`](Self::mark) what can move for other reasons (time-dependent
    /// RPA documents crossing their deadline).
    pub fn purge_ingress(&mut self, policy: &dyn RibPolicy) {
        let dirty = &mut self.dirty;
        self.rib.edit_all(|prefix, slot| {
            let purged = slot.retain_learned(prefix, |r| match r.learned_from {
                Some(peer) => policy.permit_ingress(peer, r.prefix, r),
                None => true,
            });
            if purged {
                dirty.push(prefix);
            }
        });
        self.moved = self.moved.join(Moved::Everything);
    }

    /// Mark `prefixes` for re-decision and forced export — what a caller
    /// runs after changing an input the decision cannot see (export policy,
    /// RPA state). It re-applies no ingress filter, so a change that
    /// tightens admission needs [`purge_ingress`](Self::purge_ingress) too;
    /// removing an ingress-only filter only relaxes it (evicted routes
    /// return via route refresh).
    pub fn mark(&mut self, prefixes: impl IntoIterator<Item = Prefix>) {
        self.mark_moved(prefixes, Moved::Everything);
    }

    /// Mark `prefixes` dirty for the next [`decide`](Self::decide), moved as
    /// `by` says.
    fn mark_moved(&mut self, prefixes: impl IntoIterator<Item = Prefix>, by: Moved) {
        self.dirty.extend(prefixes);
        self.moved = self.moved.join(by);
    }

    /// Re-decide every prefix marked since the last call, ascending and once
    /// each, program `plane` with each Loc-RIB entry the decisions
    /// (re)installed or removed, and export what the marks can have moved
    /// (see the module docs) into `out`: one UPDATE per session told
    /// anything, ascending by session, prefixes ascending inside each.
    pub fn decide(
        &mut self,
        policy: &dyn RibPolicy,
        plane: &mut dyn ForwardingPlane,
        out: &mut Outbox,
    ) {
        let moved = std::mem::take(&mut self.moved);
        let from = match moved {
            Moved::Session(from) => Some(from),
            _ => None,
        };
        // Under `wcmp_advertise` the export also relays the entry's
        // effective capacity, which moves with the selected set while the
        // advertised route stays put — so every decision exports.
        let always = moved == Moved::Everything || self.cfg.wcmp_advertise;
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        let mut step = Step {
            cfg: &self.cfg,
            peers: &self.peers,
            policy,
            tel: self.telemetry.as_deref(),
            plane,
            counts: [0; 3],
        };
        let mut cursor = 0;
        for &prefix in &dirty {
            self.rib.with_slot_from(&mut cursor, prefix, |slot| {
                let advertisement_moved = from
                    .and_then(|from| step.decide_against_incumbent(prefix, slot, from))
                    .unwrap_or_else(|| step.decide_prefix(prefix, slot));
                if always || advertisement_moved {
                    step.export_prefix(prefix, slot, out);
                }
            });
        }
        out.seal();
        if let Some(tel) = step.tel {
            let counters = [&tel.decisions, &tel.best_path_changes, &tel.export_evals];
            counters
                .into_iter()
                .zip(step.counts)
                .for_each(|(c, n)| c.add(n));
        }
        dirty.clear();
        self.dirty = dirty;
    }

    /// Process a received UPDATE: [`ingest`](Self::ingest), then
    /// [`decide`](Self::decide) with no forwarding plane, its UPDATEs
    /// returned ([`Outbox::updates`]).
    pub fn handle_update(
        &mut self,
        from: PeerId,
        update: UpdateMessage,
        policy: &dyn RibPolicy,
    ) -> Vec<(PeerId, UpdateMessage)> {
        self.ingest(from, update, policy);
        Outbox::updates(|out| self.decide(policy, &mut (), out))
    }

    /// Re-decide and export every known prefix ("BGP can independently
    /// discover and process new viable routes by locally re-applying the
    /// pre-installed RPAs", §4.1): [`purge_ingress`](Self::purge_ingress),
    /// [`mark`](Self::mark) of every known prefix, then `decide` with no
    /// forwarding plane, as [`handle_update`](Self::handle_update) returns it.
    pub fn reevaluate_all(&mut self, policy: &dyn RibPolicy) -> Vec<(PeerId, UpdateMessage)> {
        self.purge_ingress(policy);
        self.mark(self.known_prefixes());
        Outbox::updates(|out| self.decide(policy, &mut (), out))
    }

    /// Every prefix the speaker currently knows: held in Adj-RIB-In,
    /// locally originated, or installed in the Loc-RIB.
    pub fn known_prefixes(&self) -> Vec<Prefix> {
        self.known().map(|(prefix, _)| prefix).collect()
    }

    /// Every known prefix, ascending and once each, with a borrowed view of
    /// the candidates [`candidates`](Self::candidates) would build for it.
    /// One walk of the slots: nothing is allocated, cloned or looked up per
    /// prefix.
    pub fn known(&self) -> impl Iterator<Item = (Prefix, CandidateView<'_>)> {
        let peers = &self.peers;
        self.rib
            .iter()
            .filter(|(_, slot)| {
                !slot.rib_in().is_empty() || slot.origination.is_some() || slot.loc.is_some()
            })
            .map(move |(prefix, slot)| (prefix, CandidateView { peers, slot }))
    }

    // ---- inspection ----------------------------------------------------------

    /// Current Loc-RIB entry for a prefix.
    pub fn loc_rib_entry(&self, prefix: Prefix) -> Option<&LocRibEntry> {
        self.rib.get(prefix)?.loc.as_ref()
    }

    /// All Loc-RIB prefixes.
    pub fn loc_rib_prefixes(&self) -> Vec<Prefix> {
        self.loc_rib().map(|(prefix, _)| prefix).collect()
    }

    /// Loc-RIB size, without materializing the prefixes.
    pub fn loc_rib_len(&self) -> usize {
        self.rib.installed()
    }

    /// Routes currently held for `prefix` across sessions, materialized out
    /// of the compressed fan in ascending session-id order.
    pub fn rib_in_routes(&self, prefix: Prefix) -> Vec<Route> {
        self.rib
            .get(prefix)
            .map_or_else(Vec::new, |slot| slot.learned(prefix).collect())
    }

    /// Number of routes held for `prefix`, without materializing them.
    pub fn rib_in_count(&self, prefix: Prefix) -> usize {
        self.rib.get(prefix).map_or(0, |slot| slot.rib_in().len())
    }

    /// Occupancy/byte footprints of the adjacency RIBs `(in, out)` and the
    /// Loc-RIB paths' bytes, for the `mem.*_bytes` and `bgp.peer_refs`
    /// gauges: running totals, so reading them walks nothing.
    pub fn rib_footprints(&self) -> (RibFootprint, RibFootprint, usize) {
        self.rib.footprints()
    }

    /// What we last advertised to `peer` for `prefix`.
    pub fn advertised_to(&self, peer: PeerId, prefix: Prefix) -> Option<&PathAttributes> {
        held(self.rib.get(prefix)?.rib_out(), peer).map(Arc::as_ref)
    }

    /// Everything currently advertised to `peer`, as one UPDATE — the reply
    /// to a route-refresh request (RFC 2918's role): the neighbor lost or
    /// filtered state it now wants back.
    pub fn full_advertisement(&self, peer: PeerId) -> UpdateMessage {
        let mut out = UpdateMessage::default();
        for (prefix, slot) in self.rib.iter() {
            if let Some(attrs) = held(slot.rib_out(), peer) {
                out.announced.push((prefix, Arc::clone(attrs)));
            }
        }
        out
    }

    /// The installed Loc-RIB entries, ascending by prefix.
    fn loc_rib(&self) -> impl Iterator<Item = (Prefix, &LocRibEntry)> {
        self.rib
            .iter()
            .filter_map(|(prefix, slot)| Some((prefix, slot.loc.as_ref()?)))
    }

    /// The FIB this Loc-RIB projects to: one entry per Loc-RIB entry with
    /// forwarding next hops (a locally-originated-only entry has none), in
    /// prefix order. Hosts program theirs through the [`ForwardingPlane`]
    /// they pass to [`decide`](Self::decide); tests and the emulator's
    /// invariant check compare it against what they programmed.
    pub fn fib(&self) -> Vec<FibEntry> {
        self.loc_rib()
            .filter_map(|(prefix, entry)| {
                let mut nexthops: Vec<_> = entry.fib_nexthops().collect();
                nexthops.sort_unstable_by_key(|(p, _)| *p);
                (!nexthops.is_empty()).then(|| FibEntry {
                    prefix,
                    nexthops: NextHops(nexthops.into()),
                    warm: entry.fib_warm_only,
                })
            })
            .collect()
    }

    // ---- decision process ----------------------------------------------------

    /// Candidate routes for `prefix`: Adj-RIB-In routes on established
    /// sessions plus any local origination (cloned). What selection takes;
    /// [`known`](Self::known) borrows the same set without building it.
    pub fn candidates(&self, prefix: Prefix) -> Vec<Route> {
        self.rib
            .get(prefix)
            .map_or_else(Vec::new, |slot| candidates_of(&self.peers, prefix, slot))
    }
}

/// Whether `peer` is a configured, established session.
fn established(peers: &FlatMap<PeerId, PeerState>, peer: PeerId) -> bool {
    peers.get(&peer).is_some_and(|p| p.established)
}

/// `slot`'s candidates toward `prefix`: its in-fan's routes on established
/// sessions, ascending by session, then the origination. The in-fan and the
/// sessions are walked side by side, so no route costs a search.
fn candidates_of(
    peers: &FlatMap<PeerId, PeerState>,
    prefix: Prefix,
    slot: &PrefixState,
) -> Vec<Route> {
    let mut sessions = peers.iter().peekable();
    let mut out: Vec<Route> = slot
        .rib_in()
        .iter()
        .filter(|(peer, _)| {
            while sessions.next_if(|(p, _)| *p < peer).is_some() {}
            sessions
                .peek()
                .is_some_and(|(p, s)| *p == peer && s.established)
        })
        .map(|(peer, attrs)| Route::learned(prefix, Arc::clone(attrs), *peer))
        .collect();
    if let Some(attrs) = &slot.origination {
        out.push(Route::local(prefix, Arc::clone(attrs)));
    }
    out
}

/// One [`BgpDaemon::decide`]'s view of the speaker beside the slot it is
/// deciding: what every decision and export reads, borrowed apart from the
/// prefix table.
struct Step<'a> {
    cfg: &'a DaemonConfig,
    peers: &'a FlatMap<PeerId, PeerState>,
    policy: &'a dyn RibPolicy,
    tel: Option<&'a DaemonTelemetry>,
    /// Programmed with each Loc-RIB entry this decide (re)installs or
    /// removes.
    plane: &'a mut dyn ForwardingPlane,
    /// Decisions, best-path changes and export evaluations: summed here and
    /// added to their counters once per `decide`.
    counts: [u64; 3],
}

impl Step<'_> {
    /// The decision for an arrival that moved only session `from`'s route:
    /// compare that route with the installed entry and edit the entry in
    /// place, instead of re-selecting from every session's route. Returns
    /// what [`decide_prefix`](Self::decide_prefix) would — having installed
    /// the entry it would — or `None` where only the full pass can tell: a
    /// prefix the hook governs, no entry or a keep-warm one, or the last
    /// selected route lost (the runner-up set is somewhere in the
    /// Adj-RIB-In).
    ///
    /// Why the edit is exact: a native multipath entry holds every candidate
    /// of the best [`PathPreference`] `P`, ascending by session with the
    /// local route last. Every other session's route is where it was when
    /// the entry was installed, so nothing outside the entry beats or ties
    /// `P`; `from`'s route above `P` is therefore the whole new set, at `P`
    /// joins it, and below `P` (or gone) leaves it — and while anything is
    /// left, what is left is still every candidate of the best preference.
    fn decide_against_incumbent(
        &mut self,
        prefix: Prefix,
        slot: &mut PrefixState,
        from: PeerId,
    ) -> Option<bool> {
        if self.policy.governs(prefix) {
            return None;
        }
        let arrival = held(slot.rib_in(), from)
            .map(|a| Path::new(Route::learned(prefix, Arc::clone(a), from), 0));
        let entry = slot.loc.as_mut()?;
        if entry.fib_warm_only {
            return None;
        }
        // The advertised path is the native best: the local route (last) if
        // installed, else the lowest session (first). Only an edit at 0
        // displaces a learned one; the index follows from the paths.
        let native_best = |paths: &[Path]| match paths.last() {
            Some(last) if last.nexthop == Path::LOCAL => paths.len() - 1,
            _ => 0,
        };
        let paths = &mut entry.paths;
        let local = paths.last()?.nexthop == Path::LOCAL;
        let incumbent = PathPreference::of(&paths[0].attrs);
        debug_assert!(
            paths
                .iter()
                .all(|path| PathPreference::of(&path.attrs).multipath_equal(&incumbent))
                && paths.windows(2).all(|w| w[0].nexthop < w[1].nexthop)
                && entry.advertised as usize == native_best(paths),
            "{prefix}: installed entry is not a native multipath set — a hook \
             change was not followed by reevaluate_all"
        );
        let at = paths.partition_point(|path| path.nexthop < from.0);
        let held = paths.get(at).is_some_and(|path| path.nexthop == from.0);
        let advertisement_moved =
            match arrival.map(|a| (PathPreference::of(&a.attrs).compare(&incumbent), a)) {
                Some((Ordering::Greater, path)) => {
                    paths.clear();
                    paths.push(path);
                    true
                }
                Some((Ordering::Equal, path)) if held => {
                    let moved = at == native_best(paths) && paths[at].attrs != path.attrs;
                    paths[at] = path;
                    moved
                }
                Some((Ordering::Equal, path)) => {
                    paths.insert(at, path);
                    !local && at == 0
                }
                // Withdrawn, or worse than the incumbent.
                _ if !held => {
                    self.note_decision(prefix, true, true, false);
                    return Some(false);
                }
                _ if paths.len() == 1 => return None,
                _ => {
                    paths.remove(at);
                    !local && at == 0
                }
            };
        entry.advertised = native_best(paths) as u32;
        // The hook governs nothing here, so it prescribes no weights.
        wcmp::derive_weights_into(&mut entry.paths);
        self.plane.program(prefix, Some(entry));
        self.note_decision(prefix, true, true, advertisement_moved);
        Some(advertisement_moved)
    }

    /// The full decision: candidates → selection → Loc-RIB install →
    /// forwarding plane → telemetry. Returns whether the advertised route
    /// differs from the one installed before — the only input of the export
    /// this can move (see the module docs).
    fn decide_prefix(&mut self, prefix: Prefix, slot: &mut PrefixState) -> bool {
        let (cfg, policy) = (self.cfg, self.policy);
        let mut candidates = candidates_of(self.peers, prefix, slot);
        let choice = (!candidates.is_empty()).then(|| policy.select_paths(prefix, &candidates));
        // The index of the selection's best route, or of its least favorable.
        let rank = |s: &[Route], best: bool| {
            (0..s.len()).max_by(|&a, &b| match compare_routes(&s[a], &s[b]) {
                order if best => order,
                order => order.reverse(),
            })
        };
        let new_entry: Option<LocRibEntry> = match choice {
            None => None,
            // Path Selection RPA outcome.
            Some(PathChoice::Rpa(sel)) => {
                if sel.selected.is_empty() {
                    if sel.keep_fib_warm {
                        slot.loc
                            .clone()
                            .and_then(|prior| warm_entry(self.peers, prior))
                    } else {
                        None
                    }
                } else {
                    let mut indices = sel.selected;
                    keep_selected(&mut candidates, &mut indices);
                    let advertised = match sel.advertise {
                        AdvertiseChoice::Withdraw => None,
                        AdvertiseChoice::NativeBest => rank(&candidates, true),
                        AdvertiseChoice::LeastFavorable => {
                            rank(&candidates, !cfg.least_favorable_advertisement)
                        }
                    };
                    Some(install(prefix, candidates, advertised, policy))
                }
            }
            // Native selection, under the governing statement's guard.
            Some(PathChoice::Native(guard)) => {
                let mut indices = multipath_set(&candidates);
                keep_selected(&mut candidates, &mut indices);
                let selected = candidates;
                // BgpNativeMinNextHop guard (§4.3): count learned next-hops.
                let nexthop_count = selected.iter().filter(|r| r.learned_from.is_some()).count();
                let violated_keep_warm = match guard {
                    Some((min, keep_warm)) if nexthop_count > 0 && nexthop_count < min => {
                        Some(keep_warm)
                    }
                    _ => None,
                };
                if let Some(keep_warm) = violated_keep_warm {
                    if keep_warm {
                        // "Keep the forwarding entries of this route so
                        // in-flight packets are not dropped" (§4.3): preserve
                        // the previous FIB state — which still spreads over
                        // the full next-hop set, drained members included —
                        // and advertise nothing.
                        let prior = slot.loc.clone();
                        let prior =
                            prior.unwrap_or_else(|| install(prefix, selected, None, policy));
                        warm_entry(self.peers, prior)
                    } else {
                        None
                    }
                } else if selected.is_empty() {
                    None
                } else {
                    let advertised = rank(&selected, true);
                    Some(install(prefix, selected, advertised, policy))
                }
            }
        };

        // The advertised route, compared in place: next hop and body.
        fn advert(entry: Option<&LocRibEntry>) -> Option<(u64, &PathAttributes)> {
            let path = entry?.advertised()?;
            Some((path.nexthop, &*path.attrs))
        }
        let (prev_adv, new_adv) = (advert(slot.loc.as_ref()), advert(new_entry.as_ref()));
        let advertisement_moved = prev_adv != new_adv;
        self.note_decision(
            prefix,
            prev_adv.is_some(),
            new_adv.is_some(),
            advertisement_moved,
        );
        if std::mem::replace(&mut slot.loc, new_entry).is_some() || slot.loc.is_some() {
            self.plane.program(prefix, slot.loc.as_ref());
        }
        advertisement_moved
    }

    /// Count one decision and, when it moved the advertisement, one
    /// best-path change plus its journal event.
    fn note_decision(&mut self, prefix: Prefix, had_path: bool, has_path: bool, moved: bool) {
        let Some(tel) = self.tel else {
            return;
        };
        self.counts[0] += 1;
        if moved {
            self.counts[1] += 1;
            if tel.telemetry.journal_enabled() {
                tel.telemetry.record(
                    tel.telemetry
                        .event(EventKind::BgpDecision, Severity::Debug)
                        .field("device", tel.scope.as_str())
                        .field("prefix", prefix.to_string())
                        .field("had_path", had_path)
                        .field("has_path", has_path),
                );
            }
        }
    }

    /// The export half: bring the slot's out-fan, toward every established
    /// session, to what its installed Loc-RIB entry asks for, and tell `out`
    /// the difference, session by session; the decide's
    /// [`seal`](Outbox::seal) turns it into UPDATEs. A prefix is exported at
    /// most once per decide. The post-export attribute body is built at most once
    /// ([`Export`]) — it does not depend on the peer; only split-horizon, the
    /// egress filter and the per-session export policy do, and those run per
    /// peer below. Each pass costs one evaluation per established session
    /// (`bgp.export_evals`), which is why [`BgpDaemon::decide`] skips it for
    /// a decision that left the advertisement where it was.
    fn export_prefix(&mut self, prefix: Prefix, slot: &mut PrefixState, out: &mut Outbox) {
        // Reads the *installed* entry: call after the decision installed it.
        let mut advertised = Export::of(self.cfg, self.peers, prefix, slot.loc.as_ref());
        let policy = self.policy;
        let evals = &mut self.counts[2];
        // Under a pass-through export policy each want is the body `Arc`
        // itself, so every session's out-fan entry and UPDATE share one body.
        let wants = self
            .peers
            .iter()
            .filter(|(_, s)| s.established)
            .map(|(&peer, session)| {
                *evals += 1;
                let want = advertised
                    .as_mut()
                    .and_then(|export| export.toward(session, policy));
                (peer, want)
            });
        slot.export(wants, |peer, sent| out.tell(peer, prefix, sent));
    }
}

/// The keep-warm form of `prior` (`KeepFibWarmIfMnhViolated`, §4.3): its
/// forwarding state, withdrawn from peers. Next hops whose session has
/// since gone down are pruned — forwarding onto a dead session is a
/// black-hole, not warmth — and `None` is returned when nothing is left.
fn warm_entry(peers: &FlatMap<PeerId, PeerState>, prior: LocRibEntry) -> Option<LocRibEntry> {
    let mut paths = prior.paths;
    paths.retain(|path| path.learned_from().is_none_or(|p| established(peers, p)));
    (!paths.is_empty()).then(|| LocRibEntry::new(paths, None, true))
}

/// The entry installing `selected` as paths in one allocation, advertising
/// `selected[advertised]` and weighed by the hook's Route Attribute answer,
/// or else by WCMP over the link-bandwidth communities.
fn install(
    prefix: Prefix,
    selected: Vec<Route>,
    advertised: Option<usize>,
    policy: &dyn RibPolicy,
) -> LocRibEntry {
    let hooked = policy.assign_weights(prefix, &selected);
    debug_assert!(hooked.as_ref().is_none_or(|w| w.len() == selected.len()));
    let mut paths = Vec::with_capacity(selected.len());
    paths.extend(selected.into_iter().map(|route| Path::new(route, 0)));
    match hooked.filter(|w| w.len() == paths.len()) {
        Some(w) => paths
            .iter_mut()
            .zip(w)
            .for_each(|(path, w)| path.weight = w),
        None => wcmp::derive_weights_into(&mut paths),
    }
    LocRibEntry::new(paths, advertised, false)
}

/// Effective capacity (Gbps) behind a Loc-RIB entry: the sum over selected
/// learned routes of min(link capacity, advertised bandwidth). Used when
/// `wcmp_advertise` relays capacity downstream (§3.4's distributed WCMP
/// cascade). `None` when only locally-originated routes are selected — an
/// originator's capacity is not link-bound, so no bandwidth community is
/// attached and receivers fall back to their own link capacities.
fn effective_capacity(peers: &FlatMap<PeerId, PeerState>, entry: &LocRibEntry) -> Option<f64> {
    let mut caps = entry
        .paths
        .iter()
        .filter_map(|path| {
            let link = peers.get(&path.learned_from()?)?.cfg.link_capacity_gbps;
            Some(match path.attrs.link_bandwidth_gbps {
                Some(bw) => bw.min(link),
                None => link,
            })
        })
        .peekable();
    caps.peek()?;
    Some(caps.sum())
}

/// One export of a prefix: its advertised route and the body that goes out
/// with it — the route's attributes with the own ASN prepended and, under
/// `wcmp_advertise`, the relayed capacity. The body does not depend on the
/// session, so it is one deep clone shared across the whole fan-out as one
/// `Arc`, built by the first session that takes it; an export every session
/// turns down (a ToR's uplinks refuse what came from above) builds none.
/// The adjacency RIBs share bodies through this `Arc`; none of them interns
/// bodies by content.
struct Export<'a> {
    cfg: &'a DaemonConfig,
    route: Route,
    /// The capacity the body carries, when `wcmp_advertise` relays it.
    bandwidth: Option<Option<f64>>,
    body: Option<Arc<PathAttributes>>,
}

impl<'a> Export<'a> {
    /// The export of `entry`'s advertised route toward `prefix`, if it has
    /// one.
    fn of(
        cfg: &'a DaemonConfig,
        peers: &FlatMap<PeerId, PeerState>,
        prefix: Prefix,
        entry: Option<&LocRibEntry>,
    ) -> Option<Self> {
        let entry = entry?;
        Some(Export {
            cfg,
            route: entry.advertised()?.route(prefix),
            bandwidth: cfg.wcmp_advertise.then(|| effective_capacity(peers, entry)),
            body: None,
        })
    }

    /// What `session` should be told — after split-horizon, the egress
    /// Route Filter hook and the session's export policy — or `None` to
    /// withdraw/suppress. All three are asked before the body is built; the
    /// policy first through [`Policy::certainly_rejects`]. Pass-through
    /// export policies return the shared body `Arc` untouched.
    fn toward(
        &mut self,
        session: &PeerState,
        policy: &dyn RibPolicy,
    ) -> Option<Arc<PathAttributes>> {
        let (route, peer, export) = (&self.route, session.cfg.peer, &session.cfg.export);
        // Split-horizon: never advertise a route back over the session it
        // was learned from (§5.3.1).
        if route.learned_from == Some(peer) {
            return None;
        }
        // Route Filter RPA, egress direction (Figure 6).
        if !policy.permit_egress(peer, route.prefix, route) {
            return None;
        }
        if export.certainly_rejects(&route.prefix, &route.attrs, self.cfg.asn) {
            return None;
        }
        let body = self.body.get_or_insert_with(|| {
            let mut attrs = (*route.attrs).clone();
            attrs.prepend(self.cfg.asn, 1);
            if let Some(bandwidth) = self.bandwidth {
                attrs.link_bandwidth_gbps = bandwidth;
            }
            Arc::new(attrs)
        });
        export.apply_shared(&route.prefix, Arc::clone(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NativePolicy;
    use std::collections::BTreeSet;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// One decide with no forwarding plane, its UPDATEs returned.
    fn decided(d: &mut BgpDaemon, policy: &dyn RibPolicy) -> Vec<(PeerId, UpdateMessage)> {
        Outbox::updates(|out| d.decide(policy, &mut (), out))
    }

    fn daemon(asn: u32) -> BgpDaemon {
        BgpDaemon::new(DaemonConfig::fabric(Asn(asn)))
    }

    fn connect(d: &mut BgpDaemon, peer: u64, remote_asn: u32) -> Vec<(PeerId, UpdateMessage)> {
        d.add_peer(PeerConfig::open(PeerId(peer), Asn(remote_asn), 100.0));
        d.peer_up(PeerId(peer), &NativePolicy)
    }

    fn announce(peer: u64, prefix: &str, path: &[u32]) -> UpdateMessage {
        let mut attrs = PathAttributes::default();
        for asn in path.iter().rev() {
            attrs.prepend(Asn(*asn), 1);
        }
        let _ = peer;
        UpdateMessage::announce(p(prefix), attrs)
    }

    #[test]
    fn origination_advertises_to_established_peers() {
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        connect(&mut d, 20, 3);
        d.originate(p("10.0.0.0/8"), PathAttributes::default());
        let out = decided(&mut d, &NativePolicy);
        assert_eq!(out.len(), 2);
        for (_, upd) in &out {
            assert_eq!(upd.announced.len(), 1);
            // Exported with our ASN prepended.
            assert_eq!(upd.announced[0].1.as_path, vec![Asn(1)]);
        }
    }

    #[test]
    fn one_export_pass_announces_one_body_to_every_session() {
        let mut d = daemon(1);
        for peer in 1..=8 {
            connect(&mut d, peer * 10, 100 + peer as u32);
        }
        d.originate(p("10.0.0.0/8"), PathAttributes::default());
        let out = decided(&mut d, &NativePolicy);
        assert_eq!(out.len(), 8);
        let first = &out[0].1.announced[0].1;
        for (peer, upd) in &out {
            let body = &upd.announced[0].1;
            assert!(
                Arc::ptr_eq(body, first),
                "pass-through export policies share the base body"
            );
            let held = held(d.rib.get(p("10.0.0.0/8")).unwrap().rib_out(), *peer);
            let held = held.unwrap();
            assert!(Arc::ptr_eq(held, first), "the table holds the sent body");
        }
    }

    #[test]
    fn peer_up_receives_existing_table() {
        let mut d = daemon(1);
        d.originate(p("10.0.0.0/8"), PathAttributes::default());
        decided(&mut d, &NativePolicy);
        let out = connect(&mut d, 10, 2);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PeerId(10));
        assert_eq!(out[0].1.announced.len(), 1);
    }

    #[test]
    fn learned_route_installs_and_propagates() {
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        connect(&mut d, 20, 3);
        d.ingest(
            PeerId(10),
            announce(10, "0.0.0.0/0", &[2, 5]),
            &NativePolicy,
        );
        let out = decided(&mut d, &NativePolicy);
        // Propagated to peer 20 only (split horizon suppresses peer 10).
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PeerId(20));
        assert_eq!(
            out[0].1.announced[0].1.as_path,
            vec![Asn(1), Asn(2), Asn(5)]
        );
        let entry = d.loc_rib_entry(p("0.0.0.0/0")).unwrap();
        assert_eq!(entry.paths().len(), 1);
        assert_eq!(d.fib().len(), 1);
    }

    #[test]
    fn loop_prevention_discards_own_asn() {
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        d.ingest(
            PeerId(10),
            announce(10, "0.0.0.0/0", &[2, 1, 5]),
            &NativePolicy,
        );
        let out = decided(&mut d, &NativePolicy);
        assert!(out.is_empty());
        assert!(d.loc_rib_entry(p("0.0.0.0/0")).is_none());
    }

    #[test]
    fn multipath_groups_equal_paths_in_fib() {
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        connect(&mut d, 20, 3);
        d.ingest(
            PeerId(10),
            announce(10, "0.0.0.0/0", &[2, 9]),
            &NativePolicy,
        );
        decided(&mut d, &NativePolicy);
        d.ingest(
            PeerId(20),
            announce(20, "0.0.0.0/0", &[3, 9]),
            &NativePolicy,
        );
        decided(&mut d, &NativePolicy);
        let fib = d.fib();
        assert_eq!(fib.len(), 1);
        assert_eq!(fib[0].nexthops.len(), 2);
        assert_eq!(fib[0].nexthops, vec![(PeerId(10), 1), (PeerId(20), 1)]);
    }

    #[test]
    fn shorter_path_displaces_ecmp_group_first_router_problem() {
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        connect(&mut d, 20, 3);
        connect(&mut d, 30, 4);
        d.ingest(
            PeerId(10),
            announce(10, "0.0.0.0/0", &[2, 8, 9]),
            &NativePolicy,
        );
        decided(&mut d, &NativePolicy);
        d.ingest(
            PeerId(20),
            announce(20, "0.0.0.0/0", &[3, 8, 9]),
            &NativePolicy,
        );
        decided(&mut d, &NativePolicy);
        assert_eq!(d.fib()[0].nexthops.len(), 2);
        // The "FAv2" path: one hop shorter. Native BGP funnels onto it.
        d.ingest(
            PeerId(30),
            announce(30, "0.0.0.0/0", &[4, 9]),
            &NativePolicy,
        );
        decided(&mut d, &NativePolicy);
        let fib = d.fib();
        assert_eq!(fib[0].nexthops, vec![(PeerId(30), 1)]);
    }

    #[test]
    fn withdraw_removes_and_propagates() {
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        connect(&mut d, 20, 3);
        d.ingest(
            PeerId(10),
            announce(10, "0.0.0.0/0", &[2, 9]),
            &NativePolicy,
        );
        decided(&mut d, &NativePolicy);
        d.ingest(
            PeerId(10),
            UpdateMessage::withdraw(p("0.0.0.0/0")),
            &NativePolicy,
        );
        let out = decided(&mut d, &NativePolicy);
        assert!(d.loc_rib_entry(p("0.0.0.0/0")).is_none());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PeerId(20));
        assert_eq!(out[0].1.withdrawn, vec![p("0.0.0.0/0")]);
    }

    #[test]
    fn peer_down_flushes_and_reconverges() {
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        connect(&mut d, 20, 3);
        connect(&mut d, 30, 4);
        d.ingest(
            PeerId(10),
            announce(10, "0.0.0.0/0", &[2, 9]),
            &NativePolicy,
        );
        decided(&mut d, &NativePolicy);
        d.ingest(
            PeerId(20),
            announce(20, "0.0.0.0/0", &[3, 9]),
            &NativePolicy,
        );
        decided(&mut d, &NativePolicy);
        assert_eq!(d.fib()[0].nexthops.len(), 2);
        d.peer_down(PeerId(10));
        let out = decided(&mut d, &NativePolicy);
        // Last router standing: all traffic now on peer 20.
        assert_eq!(d.fib()[0].nexthops, vec![(PeerId(20), 1)]);
        // Peer 30 gets a fresh announcement only if the advertised attrs
        // changed; peer 10 is down and must receive nothing.
        assert!(out.iter().all(|(p, _)| *p != PeerId(10)));
    }

    #[test]
    fn best_path_changes_trigger_readvertisement() {
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        connect(&mut d, 20, 3);
        connect(&mut d, 30, 4);
        d.ingest(
            PeerId(10),
            announce(10, "0.0.0.0/0", &[2, 8, 9]),
            &NativePolicy,
        );
        decided(&mut d, &NativePolicy);
        // Shorter path arrives; best changes; peers see new attrs.
        d.ingest(
            PeerId(20),
            announce(20, "0.0.0.0/0", &[3, 9]),
            &NativePolicy,
        );
        let out = decided(&mut d, &NativePolicy);
        let to30 = out.iter().find(|(p, _)| *p == PeerId(30)).unwrap();
        assert_eq!(to30.1.announced[0].1.as_path, vec![Asn(1), Asn(3), Asn(9)]);
    }

    #[test]
    fn import_policy_reject_acts_as_withdraw() {
        let mut d = daemon(1);
        d.add_peer(PeerConfig {
            peer: PeerId(10),
            remote_asn: Asn(2),
            import: Arc::new(Policy::reject_all()),
            export: Policy::shared_accept_all(),
            link_capacity_gbps: 100.0,
        });
        d.peer_up(PeerId(10), &NativePolicy);
        d.ingest(
            PeerId(10),
            announce(10, "0.0.0.0/0", &[2, 9]),
            &NativePolicy,
        );
        let out = decided(&mut d, &NativePolicy);
        assert!(out.is_empty());
        assert!(d.loc_rib_entry(p("0.0.0.0/0")).is_none());
    }

    #[test]
    fn export_policy_reject_suppresses_advertisement() {
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        d.add_peer(PeerConfig {
            peer: PeerId(20),
            remote_asn: Asn(3),
            import: Policy::shared_accept_all(),
            export: Arc::new(Policy::reject_all()),
            link_capacity_gbps: 100.0,
        });
        d.peer_up(PeerId(20), &NativePolicy);
        d.ingest(
            PeerId(10),
            announce(10, "0.0.0.0/0", &[2, 9]),
            &NativePolicy,
        );
        let out = decided(&mut d, &NativePolicy);
        assert!(
            out.is_empty(),
            "export reject-all suppresses all advertisements"
        );
    }

    #[test]
    fn wcmp_weights_follow_link_bandwidth() {
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        connect(&mut d, 20, 3);
        let mut a1 = PathAttributes::default();
        a1.prepend(Asn(2), 1);
        a1.link_bandwidth_gbps = Some(100.0);
        let mut a2 = PathAttributes::default();
        a2.prepend(Asn(3), 1);
        a2.link_bandwidth_gbps = Some(300.0);
        d.ingest(
            PeerId(10),
            UpdateMessage::announce(p("0.0.0.0/0"), a1),
            &NativePolicy,
        );
        decided(&mut d, &NativePolicy);
        d.ingest(
            PeerId(20),
            UpdateMessage::announce(p("0.0.0.0/0"), a2),
            &NativePolicy,
        );
        decided(&mut d, &NativePolicy);
        let fib = d.fib();
        assert_eq!(fib[0].nexthops, vec![(PeerId(10), 1), (PeerId(20), 3)]);
    }

    #[test]
    fn wcmp_advertise_attaches_effective_capacity() {
        let mut d = daemon(1);
        d.config_mut().wcmp_advertise = true;
        connect(&mut d, 10, 2);
        connect(&mut d, 20, 3);
        connect(&mut d, 30, 4);
        d.ingest(
            PeerId(10),
            announce(10, "0.0.0.0/0", &[2, 9]),
            &NativePolicy,
        );
        decided(&mut d, &NativePolicy);
        d.ingest(
            PeerId(20),
            announce(20, "0.0.0.0/0", &[3, 9]),
            &NativePolicy,
        );
        let out = decided(&mut d, &NativePolicy);
        let to30 = out.iter().find(|(pp, _)| *pp == PeerId(30)).unwrap();
        // Two selected 100G paths => 200G effective capacity advertised.
        assert_eq!(to30.1.announced[0].1.link_bandwidth_gbps, Some(200.0));
    }

    #[test]
    fn duplicate_announcement_is_silent() {
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        connect(&mut d, 20, 3);
        d.ingest(
            PeerId(10),
            announce(10, "0.0.0.0/0", &[2, 9]),
            &NativePolicy,
        );
        decided(&mut d, &NativePolicy);
        d.ingest(
            PeerId(10),
            announce(10, "0.0.0.0/0", &[2, 9]),
            &NativePolicy,
        );
        let out = decided(&mut d, &NativePolicy);
        assert!(out.is_empty(), "identical re-announcement must not churn");
    }

    #[test]
    fn remove_peer_withdraws_learned_routes() {
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        connect(&mut d, 20, 3);
        d.ingest(
            PeerId(10),
            announce(10, "0.0.0.0/0", &[2, 9]),
            &NativePolicy,
        );
        decided(&mut d, &NativePolicy);
        d.remove_peer(PeerId(10));
        let out = decided(&mut d, &NativePolicy);
        assert!(d.loc_rib_entry(p("0.0.0.0/0")).is_none());
        let to20 = out.iter().find(|(pp, _)| *pp == PeerId(20)).unwrap();
        assert_eq!(to20.1.withdrawn, vec![p("0.0.0.0/0")]);
        assert!(d.peer_ids().iter().all(|pp| *pp != PeerId(10)));
    }

    #[test]
    fn update_from_unknown_or_down_peer_ignored() {
        let mut d = daemon(1);
        d.ingest(PeerId(99), announce(99, "0.0.0.0/0", &[2]), &NativePolicy);
        assert!(decided(&mut d, &NativePolicy).is_empty());
        d.add_peer(PeerConfig::open(PeerId(10), Asn(2), 100.0));
        // Not yet up.
        d.ingest(PeerId(10), announce(10, "0.0.0.0/0", &[2]), &NativePolicy);
        assert!(decided(&mut d, &NativePolicy).is_empty());
    }

    #[test]
    fn withdraw_origin_propagates() {
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        d.originate(p("10.0.0.0/8"), PathAttributes::default());
        decided(&mut d, &NativePolicy);
        d.withdraw_origin(p("10.0.0.0/8"));
        let out = decided(&mut d, &NativePolicy);
        assert_eq!(out[0].1.withdrawn, vec![p("10.0.0.0/8")]);
        assert!(d.loc_rib_entry(p("10.0.0.0/8")).is_none());
    }

    #[test]
    fn native_guard_keep_warm_preserves_previous_entry_and_recovers() {
        struct Guard;
        impl crate::hooks::RibPolicy for Guard {
            fn select_paths(&self, _prefix: Prefix, _candidates: &[Route]) -> PathChoice {
                PathChoice::Native(Some((2, true)))
            }
        }
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        connect(&mut d, 20, 3);
        connect(&mut d, 30, 4);
        d.ingest(PeerId(10), announce(10, "0.0.0.0/0", &[2, 9]), &Guard);
        decided(&mut d, &Guard);
        d.ingest(PeerId(20), announce(20, "0.0.0.0/0", &[3, 9]), &Guard);
        decided(&mut d, &Guard);
        assert_eq!(d.fib()[0].nexthops.len(), 2);
        // One next-hop withdraws: guard (min 2) trips → withdraw from peers
        // but the FIB keeps the PREVIOUS two-path entry warm.
        d.ingest(PeerId(10), UpdateMessage::withdraw(p("0.0.0.0/0")), &Guard);
        let out = decided(&mut d, &Guard);
        let to30 = out.iter().find(|(pp, _)| *pp == PeerId(30)).unwrap();
        assert_eq!(to30.1.withdrawn, vec![p("0.0.0.0/0")]);
        let fib = d.fib();
        assert!(fib[0].warm);
        assert_eq!(fib[0].nexthops.len(), 2, "previous entry preserved");
        // The next-hop returns: the guard un-trips and the route is
        // re-advertised with a live (non-warm) entry.
        d.ingest(PeerId(10), announce(10, "0.0.0.0/0", &[2, 9]), &Guard);
        let out = decided(&mut d, &Guard);
        assert!(out
            .iter()
            .any(|(pp, u)| *pp == PeerId(30) && !u.announced.is_empty()));
        let fib = d.fib();
        assert!(!fib[0].warm);
        assert_eq!(fib[0].nexthops.len(), 2);
    }

    #[test]
    fn keep_warm_prunes_next_hops_of_dead_sessions() {
        struct Guard;
        impl crate::hooks::RibPolicy for Guard {
            fn select_paths(&self, _prefix: Prefix, _candidates: &[Route]) -> PathChoice {
                PathChoice::Native(Some((2, true)))
            }
        }
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        connect(&mut d, 20, 3);
        d.ingest(PeerId(10), announce(10, "0.0.0.0/0", &[2, 9]), &Guard);
        decided(&mut d, &Guard);
        d.ingest(PeerId(20), announce(20, "0.0.0.0/0", &[3, 9]), &Guard);
        decided(&mut d, &Guard);
        assert_eq!(d.fib()[0].nexthops.len(), 2);
        // A session dies (not a graceful withdraw): the guard trips, and the
        // warm entry must not keep pointing at the dead session.
        d.peer_down(PeerId(10));
        decided(&mut d, &Guard);
        let fib = d.fib();
        assert!(fib[0].warm);
        assert_eq!(
            fib[0].nexthops,
            vec![(PeerId(20), 1)],
            "dead session pruned"
        );
        // Removing the remaining session removes the entry entirely.
        d.peer_down(PeerId(20));
        decided(&mut d, &Guard);
        assert!(d.fib().is_empty());
    }

    #[test]
    fn hook_keep_warm_prunes_next_hops_of_dead_sessions() {
        // A Path Selection hook that withdraws below two candidates and asks
        // for the FIB to stay warm — the other way into keep-warm.
        struct Floor;
        impl crate::hooks::RibPolicy for Floor {
            fn select_paths(&self, _prefix: Prefix, candidates: &[Route]) -> PathChoice {
                PathChoice::Rpa(if candidates.len() < 2 {
                    crate::hooks::Selection {
                        selected: Vec::new(),
                        advertise: crate::hooks::AdvertiseChoice::Withdraw,
                        keep_fib_warm: true,
                    }
                } else {
                    crate::hooks::Selection {
                        selected: (0..candidates.len()).collect(),
                        advertise: crate::hooks::AdvertiseChoice::LeastFavorable,
                        keep_fib_warm: false,
                    }
                })
            }
        }
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        connect(&mut d, 20, 3);
        d.ingest(PeerId(10), announce(10, "0.0.0.0/0", &[2, 9]), &Floor);
        decided(&mut d, &Floor);
        d.ingest(PeerId(20), announce(20, "0.0.0.0/0", &[3, 9]), &Floor);
        decided(&mut d, &Floor);
        assert_eq!(d.fib()[0].nexthops.len(), 2);
        d.peer_down(PeerId(10));
        decided(&mut d, &Floor);
        let fib = d.fib();
        assert!(fib[0].warm);
        assert_eq!(
            fib[0].nexthops,
            vec![(PeerId(20), 1)],
            "dead session pruned"
        );
        d.peer_down(PeerId(20));
        decided(&mut d, &Floor);
        assert!(d.fib().is_empty());
    }

    #[test]
    fn non_finite_link_bandwidth_is_sanitized() {
        let mut d = daemon(1);
        connect(&mut d, 10, 2);
        connect(&mut d, 20, 3);
        let mut attrs = PathAttributes::default();
        attrs.prepend(Asn(2), 1);
        attrs.link_bandwidth_gbps = Some(f64::NAN);
        d.ingest(
            PeerId(10),
            UpdateMessage::announce(p("0.0.0.0/0"), attrs.clone()),
            &NativePolicy,
        );
        decided(&mut d, &NativePolicy);
        let routes = d.rib_in_routes(p("0.0.0.0/0"));
        let stored = &routes[0];
        assert_eq!(
            stored.attrs.link_bandwidth_gbps, None,
            "NaN stripped at ingestion"
        );
        // Identical re-announcement stays silent (no NaN != NaN churn).
        d.ingest(
            PeerId(10),
            UpdateMessage::announce(p("0.0.0.0/0"), attrs),
            &NativePolicy,
        );
        let out = decided(&mut d, &NativePolicy);
        assert!(out.is_empty());
    }

    #[test]
    fn the_export_walk_steps_over_out_fan_entries_of_sessions_no_longer_established() {
        use crate::attrs::Community;
        let prefix = p("10.0.0.0/8");
        let tagged = |n| PathAttributes::originated([Community::from_pair(65000, n)]);
        let speaker = |sessions: &[u64]| {
            let mut d = daemon(1);
            for &peer in sessions {
                connect(&mut d, peer, 100 + peer as u32);
            }
            d.originate(prefix, tagged(1));
            decided(&mut d, &NativePolicy);
            d
        };
        let mut d = speaker(&[10, 20, 30, 40, 50]);
        // Session 20 goes down and session 40 is removed without a flush,
        // so the out-fan keeps their entries on both sides of session 30.
        d.peers.get_mut(&PeerId(20)).unwrap().established = false;
        d.peers.remove(&PeerId(40));
        let out_fan = |d: &BgpDaemon| -> Vec<(PeerId, Arc<PathAttributes>)> {
            d.rib
                .get(prefix)
                .map_or_else(Vec::new, |s| s.rib_out().to_vec())
        };
        let stale: Vec<_> = out_fan(&d)
            .into_iter()
            .filter(|(peer, _)| [20, 40].contains(&peer.0))
            .collect();
        assert_eq!(stale.len(), 2);
        // A fresh speaker that only ever had the established sessions.
        let mut fresh = speaker(&[10, 30, 50]);
        for change in [Some(tagged(2)), None] {
            for d in [&mut d, &mut fresh] {
                match &change {
                    Some(attrs) => d.originate(prefix, attrs.clone()),
                    None => d.withdraw_origin(prefix),
                }
            }
            let sent = decided(&mut d, &NativePolicy);
            assert_eq!(sent.len(), 3, "one UPDATE per established session");
            assert_eq!(sent, decided(&mut fresh, &NativePolicy));
            let left = out_fan(&d)
                .into_iter()
                .filter(|(peer, _)| [20, 40].contains(&peer.0));
            assert!(
                left.zip(&stale)
                    .all(|(a, b)| a.0 == b.0 && Arc::ptr_eq(&a.1, &b.1)),
                "entries of sessions the walk skips stay as they are"
            );
        }
        assert_eq!(
            out_fan(&d),
            stale,
            "the withdrawal left only the stale entries"
        );
    }

    #[test]
    fn the_known_walk_visits_every_table_and_borrows_the_candidate_set() {
        use crate::attrs::Community;
        let [c1, c2, c3] = [1, 2, 3].map(|n| Community::from_pair(65000, n));
        let tagged = |path: &[u32], c: Community| {
            let mut attrs = PathAttributes::originated([c]);
            for asn in path.iter().rev() {
                attrs.prepend(Asn(*asn), 1);
            }
            attrs
        };
        let mut d = daemon(1);
        for (peer, asn) in [(10, 2), (20, 3), (30, 4)] {
            connect(&mut d, peer, asn);
        }
        let rib_in_only = p("10.1.0.0/24");
        let originated_only = p("10.2.0.0/24");
        let overlapping = p("10.3.0.0/24");
        let loc_rib_only = p("10.4.0.0/24");
        let flushed = p("10.5.0.0/24");
        for (peer, prefix, attrs) in [
            (10, rib_in_only, tagged(&[2, 9], c1)),
            (20, rib_in_only, tagged(&[3, 9], c2)),
            (20, overlapping, tagged(&[3, 9], c1)),
            (30, flushed, tagged(&[4, 9], c3)),
        ] {
            d.ingest(
                PeerId(peer),
                UpdateMessage::announce(prefix, attrs),
                &NativePolicy,
            );
            decided(&mut d, &NativePolicy);
        }
        d.originate(originated_only, tagged(&[], c3));
        decided(&mut d, &NativePolicy);
        d.originate(overlapping, tagged(&[], c2));
        decided(&mut d, &NativePolicy);
        // A session taken down drops what it carried.
        d.peer_down(PeerId(30));
        decided(&mut d, &NativePolicy);
        // A session marked down with its routes still held: the state
        // `candidates()` filters on.
        d.peers.get_mut(&PeerId(20)).unwrap().established = false;
        // A keep-warm entry no route backs any more.
        let warm = Route::learned(loc_rib_only, tagged(&[2, 9], c1), PeerId(10));
        d.rib.with_slot(loc_rib_only, |slot| {
            slot.loc = Some(LocRibEntry::new(vec![Path::new(warm, 1)], None, true))
        });

        let mut expected = BTreeSet::new();
        for (prefix, slot) in d.rib.iter() {
            if !slot.rib_in().is_empty() || slot.origination.is_some() || slot.loc.is_some() {
                expected.insert(prefix);
            }
        }
        let expected: Vec<Prefix> = expected.into_iter().collect();
        assert_eq!(
            expected,
            vec![rib_in_only, originated_only, overlapping, loc_rib_only]
        );
        assert_eq!(d.known_prefixes(), expected);
        let walked: Vec<Prefix> = d.known().map(|(prefix, _)| prefix).collect();
        assert_eq!(walked, expected, "ascending, once each");

        let probes = [c1, c2, c3, Community::from_pair(65000, 4)];
        for (prefix, view) in d.known() {
            let candidates = d.candidates(prefix);
            for c in probes {
                assert_eq!(
                    view.any(|attrs| attrs.has_community(c)),
                    candidates.iter().any(|r| r.attrs.has_community(c)),
                    "{prefix} probed for {c:?}"
                );
            }
        }
        // The views answer from what the sessions say, not from what the
        // tables hold: session 20's bodies are held but are not candidates.
        let (_, view) = d.known().find(|(p, _)| *p == rib_in_only).unwrap();
        assert!(view.any(|a| a.has_community(c1)) && !view.any(|a| a.has_community(c2)));
        let (_, view) = d.known().find(|(p, _)| *p == overlapping).unwrap();
        assert!(!view.any(|a| a.has_community(c1)) && view.any(|a| a.has_community(c2)));
    }

    #[test]
    fn the_advertised_index_follows_the_incumbent_edits() {
        use crate::attrs::Community;
        use crate::decision::best_route;
        let prefix = p("0.0.0.0/0");
        // Every body is two hops long: one preference, told apart by a tag.
        let body = |tag: u16| {
            let mut attrs = PathAttributes::originated([Community::from_pair(65000, tag)]);
            attrs.prepend(Asn(9), 1);
            attrs.prepend(Asn(8), 1);
            attrs
        };
        let mut d = daemon(1);
        for peer in [0, 1, 2, 4, 6, 9] {
            connect(&mut d, peer, 100 + peer as u32);
        }
        // After each step the entry advertises the best of what it holds,
        // and holds the whole multipath set.
        let check = |d: &BgpDaemon, step: &str| {
            let entry = d.loc_rib_entry(prefix).expect(step);
            let routes: Vec<Route> = entry
                .paths()
                .iter()
                .map(|path| path.route(prefix))
                .collect();
            let advertised = entry.advertised().map(|path| path.route(prefix));
            assert_eq!(advertised.as_ref(), best_route(&routes), "{step}");
            let candidates = d.candidates(prefix);
            let set: Vec<&Route> = multipath_set(&candidates)
                .iter()
                .map(|&i| &candidates[i])
                .collect();
            assert_eq!(routes.iter().collect::<Vec<_>>(), set, "{step}");
        };
        let step = |d: &mut BgpDaemon, peer: u64, tag: Option<u16>| {
            let update = match tag {
                Some(tag) => UpdateMessage::announce(prefix, body(tag)),
                None => UpdateMessage::withdraw(prefix),
            };
            d.ingest(PeerId(peer), update, &NativePolicy);
            decided(d, &NativePolicy);
            check(d, &format!("session {peer}, {tag:?}"));
        };
        // The local route holds the advertisement, last: every learned
        // path lands below it.
        d.originate(prefix, body(100));
        decided(&mut d, &NativePolicy);
        for (peer, tag) in [(2, Some(1)), (6, Some(1)), (4, Some(1)), (1, Some(1))] {
            step(&mut d, peer, tag);
        }
        for (peer, tag) in [(4, Some(2)), (2, None), (6, None), (1, Some(3))] {
            step(&mut d, peer, tag);
        }
        // The lowest session holds it, first: arrivals land at and above it.
        d.withdraw_origin(prefix);
        decided(&mut d, &NativePolicy);
        check(&d, "origination withdrawn");
        for (peer, tag) in [(0, Some(1)), (0, Some(2)), (9, Some(1)), (2, Some(1))] {
            step(&mut d, peer, tag);
        }
        for (peer, tag) in [(0, None), (9, None), (1, None), (2, Some(5))] {
            step(&mut d, peer, tag);
        }
        // And back below a local route.
        d.originate(prefix, body(100));
        decided(&mut d, &NativePolicy);
        for (peer, tag) in [(0, Some(1)), (4, None), (9, Some(1)), (0, None)] {
            step(&mut d, peer, tag);
        }
    }
}
