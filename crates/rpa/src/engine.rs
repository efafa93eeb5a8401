//! The RPA evaluation engine: compiles installed documents and implements the
//! BGP [`RibPolicy`] hooks.
//!
//! Mirrors the production behaviour the paper measures:
//!
//! * evaluation happens against all routes in the RIB when an RPA is
//!   deployed, and again per-route as updates arrive (§6.2 "RPA evaluation");
//! * matched signature evaluations are **cached** so re-evaluation of the
//!   same route is much faster (Table 2's w/ vs w/o cache rows);
//! * several RPAs may be installed. Among Path Selection documents, and
//!   among Route Attribute documents, the first applicable statement of the
//!   first document *in name order* governs a prefix; Route Filter
//!   statements all apply (AND). So every answer is a function of the
//!   installed set and the candidates, never of the order the documents
//!   arrived in: a same-name install replaces the old document;
//! * a Route Attribute statement's deadline is applied by [`RpaEngine::expire`],
//!   which the host calls when the deadline passes: the engine keeps no clock;
//! * the engine keeps no table of sessions either: the Route Filter hooks are
//!   handed each session's remote AS by the daemon, which configures it.

use crate::document::{RpaDocument, RpaError};
use crate::path_selection::{MinNextHop, PathSelectionRpa};
use crate::route_attribute::RouteAttributeRpa;
use crate::route_filter::RouteFilterRpa;
use crate::signature::{CompiledSignature, Destination};
use centralium_bgp::attrs::{AsPath, CommunitySet};
use centralium_bgp::{Community, PathChoice, PeerId, Prefix, RibPolicy, Route, Selection};
use centralium_telemetry::{Counter, EventKind, Histogram, Severity, Telemetry};
use centralium_topology::Asn;
use parking_lot::Mutex;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Counters exposed for the Table 2 experiment and controller health checks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Signature evaluations answered from the cache.
    pub cache_hits: u64,
    /// Signature evaluations computed and inserted into the cache.
    pub cache_misses: u64,
    /// Signature evaluations computed with the cache disabled.
    pub uncached_evals: u64,
}

#[derive(Debug)]
struct CompiledPathSet {
    signature: CompiledSignature,
    min_next_hop: usize,
}

#[derive(Debug)]
struct CompiledPsStatement {
    destination: Destination,
    path_sets: Vec<CompiledPathSet>,
    native_min_next_hop: Option<(usize, bool)>,
}

#[derive(Debug)]
struct CompiledRaStatement {
    destination: Destination,
    weights: Vec<(CompiledSignature, u32)>,
    expiration_time: Option<u64>,
}

#[derive(Debug)]
enum CompiledDoc {
    PathSelection(Vec<CompiledPsStatement>),
    RouteAttribute(Vec<CompiledRaStatement>),
    RouteFilter(RouteFilterRpa),
}

#[derive(Debug)]
struct Installed {
    /// The document as installed; its name is this entry's key.
    source: RpaDocument,
    /// What the hooks evaluate. An expired Route Attribute statement leaves
    /// here; `source` is never edited.
    compiled: CompiledDoc,
    /// Half-open range of signature ids allocated to this document's
    /// compiled signatures. Ids are never reused, so on remove/replace the
    /// memo entries to invalidate are exactly the keys in this range.
    sig_range: (u32, u32),
}

/// The instruments every engine bound to one [`Telemetry`] shares: one
/// allocation per handle ([`Telemetry::shared`]).
#[derive(Debug)]
struct EngineInstruments {
    telemetry: Telemetry,
    installs: Counter,
    removals: Counter,
    fallbacks: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    eval_us: Histogram,
}

/// Telemetry binding of one engine, attached by the host via
/// [`RpaEngine::set_telemetry`]: absent (and free) by default; bound, the
/// shared instruments and the device id its journal events are labeled
/// with (`"d12"`).
#[derive(Debug)]
struct EngineTelemetry {
    instruments: Arc<EngineInstruments>,
    device: u32,
}

impl EngineTelemetry {
    /// Record a successful document change on counters and the journal. An
    /// expiry counts on neither counter: no document arrived or left.
    fn note_doc_change(this: Option<&Self>, action: &'static str, name: &str) {
        let Some(bound) = this else {
            return;
        };
        let tel = &bound.instruments;
        match action {
            "remove" => tel.removals.inc(),
            "expire" => {}
            _ => tel.installs.inc(),
        }
        if tel.telemetry.journal_enabled() {
            tel.telemetry.record(
                tel.telemetry
                    .event(EventKind::RpaInstall, Severity::Info)
                    .field("device", format!("d{}", bound.device))
                    .field("action", action)
                    .field("document", name),
            );
        }
    }
}

/// Bucket bounds (µs) for RPA evaluation latency.
const EVAL_US_BOUNDS: &[f64] = &[0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 500.0, 1000.0];

/// What only an engine that has held a document needs: the evaluation
/// cache, its counters and the signature-id allocator, made at the first
/// install (or cache toggle) and kept from then on.
#[derive(Debug, Default)]
struct Memo {
    cache_disabled: bool,
    /// Memoized signature verdicts keyed `(sig_id, AS-path, community set)`,
    /// by content — the two sequences cover everything a path signature can
    /// observe (see [`CompiledSignature::matches`]), so the key is exact: no
    /// fingerprint collisions, and routes differing only in decision-process
    /// attributes (local-pref, MED, learning session) share one entry. A key
    /// shares its sequences with the route it came from.
    cache: Mutex<HashMap<(u32, AsPath, CommunitySet), bool>>,
    stats: Mutex<EngineStats>,
    next_sig_id: u32,
}

/// The engine. One instance lives on each RPA-augmented switch; until a
/// document arrives it holds nothing on the heap.
#[derive(Debug, Default)]
pub struct RpaEngine {
    /// Installed documents keyed by name: iteration order is precedence.
    docs: BTreeMap<String, Installed>,
    memo: Option<Box<Memo>>,
    telemetry: Option<EngineTelemetry>,
}

const _: () = assert!(std::mem::size_of::<RpaEngine>() <= 48);

impl RpaEngine {
    /// Empty engine with the cache enabled.
    pub fn new() -> Self {
        RpaEngine::default()
    }

    /// Attach telemetry: install/fallback counters, an evaluation-latency
    /// histogram, and [`EventKind::RpaInstall`] /
    /// [`EventKind::RpaEvalFallback`] journal events labeled `d<device>`.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry, device: u32) {
        let instruments = telemetry.shared(|t| {
            let m = t.metrics();
            EngineInstruments {
                telemetry: t.clone(),
                installs: m.counter("rpa.installs"),
                removals: m.counter("rpa.removals"),
                fallbacks: m.counter("rpa.eval_fallbacks"),
                cache_hits: m.counter("rpa.cache_hits"),
                cache_misses: m.counter("rpa.cache_misses"),
                eval_us: m.histogram("rpa.eval_us", EVAL_US_BOUNDS),
            }
        });
        self.telemetry = Some(EngineTelemetry {
            instruments,
            device,
        });
    }

    /// Toggle the evaluation cache (Table 2 ablation). The mode's foreign
    /// counters are zeroed on each switch — with the cache off, `stats()`
    /// must not keep reporting hit/miss counts from the enabled era (and
    /// vice versa), or the Table 2 rows contaminate each other.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        let memo = self.memo.get_or_insert_with(Box::default);
        memo.cache_disabled = !enabled;
        memo.cache.get_mut().clear();
        let stats = memo.stats.get_mut();
        if enabled {
            stats.uncached_evals = 0;
        } else {
            stats.cache_hits = 0;
            stats.cache_misses = 0;
        }
    }

    /// Counters snapshot.
    pub fn stats(&self) -> EngineStats {
        self.memo
            .as_ref()
            .map_or_else(EngineStats::default, |memo| *memo.stats.lock())
    }

    /// Names of installed documents, in name order — the order that gives
    /// precedence (§7.2: "show all active RPAs on a switch").
    pub fn installed(&self) -> Vec<&str> {
        self.docs.keys().map(String::as_str).collect()
    }

    /// The installed source documents, in name order.
    pub fn documents(&self) -> impl Iterator<Item = &RpaDocument> {
        self.docs.values().map(|d| &d.source)
    }

    /// The installed source document by name.
    pub fn document(&self, name: &str) -> Option<&RpaDocument> {
        self.docs.get(name).map(|d| &d.source)
    }

    /// Install a document, replacing any installed document of the same
    /// name: the desired state wins. Fails, leaving the installed documents
    /// as they were, on a bad regex or an unresolved fractional
    /// min-next-hop (the controller must compile fractions to absolutes
    /// first).
    pub fn install(&mut self, doc: RpaDocument) -> Result<(), RpaError> {
        let memo = self.memo.get_or_insert_with(Box::default);
        let sig_start = memo.next_sig_id;
        let compiled = match &doc {
            RpaDocument::PathSelection(ps) => CompiledDoc::PathSelection(memo.compile_ps(ps)?),
            RpaDocument::RouteAttribute(ra) => CompiledDoc::RouteAttribute(memo.compile_ra(ra)?),
            RpaDocument::RouteFilter(rf) => CompiledDoc::RouteFilter(rf.clone()),
        };
        let installed = Installed {
            source: doc,
            compiled,
            sig_range: (sig_start, memo.next_sig_id),
        };
        let telemetry = self.telemetry.as_ref();
        match self.docs.entry(installed.source.name().to_string()) {
            Entry::Occupied(mut slot) => {
                EngineTelemetry::note_doc_change(telemetry, "replace", slot.key());
                let old = slot.insert(installed);
                memo.retire_signatures(old.sig_range);
            }
            // A fresh document needs no memo invalidation: its signature
            // ids were never seen, so no cached verdict can be stale.
            Entry::Vacant(slot) => {
                EngineTelemetry::note_doc_change(telemetry, "install", slot.key());
                slot.insert(installed);
            }
        }
        Ok(())
    }

    /// Remove a document by name.
    pub fn remove(&mut self, name: &str) -> Result<RpaDocument, RpaError> {
        let removed = self
            .docs
            .remove(name)
            .ok_or_else(|| RpaError::UnknownName(name.to_string()))?;
        EngineTelemetry::note_doc_change(self.telemetry.as_ref(), "remove", name);
        let memo = self
            .memo
            .as_mut()
            .expect("an installed document made the memo");
        memo.retire_signatures(removed.sig_range);
        Ok(removed.source)
    }

    /// Drop every compiled Route Attribute statement whose deadline is at or
    /// before `t` (absolute sim µs) and return the destinations they
    /// governed: only prefixes one of them applies to can change outcome.
    /// Idempotent — a second call at the same `t` drops nothing. The source
    /// documents stay as installed, so [`documents`](Self::documents) still
    /// reports what the controller deployed.
    pub fn expire(&mut self, t: u64) -> Vec<Destination> {
        let Self {
            docs, telemetry, ..
        } = self;
        let mut expired = Vec::new();
        for (name, doc) in docs {
            let CompiledDoc::RouteAttribute(statements) = &mut doc.compiled else {
                continue;
            };
            let before = expired.len();
            statements.retain(|st| {
                let live = st.expiration_time.is_none_or(|deadline| t < deadline);
                if !live {
                    expired.push(st.destination.clone());
                }
                live
            });
            if expired.len() > before {
                EngineTelemetry::note_doc_change(telemetry.as_ref(), "expire", name);
            }
        }
        expired
    }

    /// Which document/statement governs `prefix` given candidate routes —
    /// the §7.2 debugging aid ("highlight the active RPA given a particular
    /// route"). It is the walk [`RibPolicy::select_paths`] runs.
    pub fn governing_statement(
        &self,
        prefix: Prefix,
        candidates: &[Route],
    ) -> Option<(String, usize)> {
        self.governing(prefix, candidates)
            .map(|(name, i, _)| (name.to_string(), i))
    }

    /// The governing Path Selection statement for `prefix`: the first
    /// applicable statement of the first document, in name order, that has
    /// one — with its document's name and its index in that document.
    fn governing(
        &self,
        prefix: Prefix,
        candidates: &[Route],
    ) -> Option<(&str, usize, &CompiledPsStatement)> {
        let carries = |c| any_carries(candidates, c);
        self.docs.iter().find_map(|(name, doc)| {
            let CompiledDoc::PathSelection(statements) = &doc.compiled else {
                return None;
            };
            let (i, st) = statements
                .iter()
                .enumerate()
                .find(|(_, st)| st.destination.applies(prefix, carries))?;
            Some((name.as_str(), i, st))
        })
    }
}

impl Memo {
    /// Retire a dead document's compiled signatures: drop exactly its
    /// memoized verdicts (signature ids are never reused, so every other
    /// entry stays warm).
    fn retire_signatures(&mut self, range: (u32, u32)) {
        if range.1 > range.0 {
            self.cache
                .get_mut()
                .retain(|(sig_id, _, _), _| *sig_id < range.0 || *sig_id >= range.1);
        }
    }

    fn compile_ps(&mut self, ps: &PathSelectionRpa) -> Result<Vec<CompiledPsStatement>, RpaError> {
        let mut out = Vec::with_capacity(ps.statements.len());
        for st in &ps.statements {
            let mut path_sets = Vec::with_capacity(st.path_set_list.len());
            for set in &st.path_set_list {
                let sig_id = self.alloc_sig_id();
                let signature =
                    CompiledSignature::compile(set.signature.clone(), sig_id).map_err(|e| {
                        RpaError::BadRegex {
                            document: ps.name.clone(),
                            error: e.to_string(),
                        }
                    })?;
                path_sets.push(CompiledPathSet {
                    signature,
                    min_next_hop: set.min_next_hop.max(1),
                });
            }
            let native_min_next_hop = match st.bgp_native_min_next_hop {
                Some(MinNextHop::Absolute(n)) => Some((n, st.keep_fib_warm_if_mnh_violated)),
                Some(MinNextHop::Fraction(_)) => {
                    return Err(RpaError::UnresolvedFraction {
                        document: ps.name.clone(),
                    })
                }
                None => None,
            };
            out.push(CompiledPsStatement {
                destination: st.destination.clone(),
                path_sets,
                native_min_next_hop,
            });
        }
        Ok(out)
    }

    fn compile_ra(&mut self, ra: &RouteAttributeRpa) -> Result<Vec<CompiledRaStatement>, RpaError> {
        let mut out = Vec::with_capacity(ra.statements.len());
        for st in &ra.statements {
            let mut weights = Vec::with_capacity(st.next_hop_weight_list.len());
            for w in &st.next_hop_weight_list {
                let sig_id = self.alloc_sig_id();
                let sig = CompiledSignature::compile(w.signature.clone(), sig_id).map_err(|e| {
                    RpaError::BadRegex {
                        document: ra.name.clone(),
                        error: e.to_string(),
                    }
                })?;
                // Weight 0 is a legitimate prescription ("no traffic on this
                // path set"); clamping it would silently rewrite operator
                // intent. Routes matching no entry still default to 1.
                weights.push((sig, w.weight));
            }
            out.push(CompiledRaStatement {
                destination: st.destination.clone(),
                weights,
                expiration_time: st.expiration_time,
            });
        }
        Ok(out)
    }

    fn alloc_sig_id(&mut self) -> u32 {
        let id = self.next_sig_id;
        self.next_sig_id += 1;
        id
    }
}

impl RpaEngine {
    /// Signature evaluation through the cache. This is the Table 2 hot path.
    fn sig_matches(&self, sig: &CompiledSignature, route: &Route) -> bool {
        let memo = self
            .memo
            .as_deref()
            .expect("a compiled signature was installed through the memo");
        if memo.cache_disabled {
            memo.stats.lock().uncached_evals += 1;
            return sig.matches(route);
        }
        let key = (
            sig.sig_id,
            route.attrs.as_path.clone(),
            route.attrs.communities.clone(),
        );
        let tel = self.telemetry.as_ref().map(|tel| &tel.instruments);
        if let Some(&hit) = memo.cache.lock().get(&key) {
            memo.stats.lock().cache_hits += 1;
            if let Some(tel) = tel {
                tel.cache_hits.inc();
            }
            return hit;
        }
        let result = sig.matches(route);
        memo.cache.lock().insert(key, result);
        memo.stats.lock().cache_misses += 1;
        if let Some(tel) = tel {
            tel.cache_misses.inc();
        }
        result
    }

    /// The Path Selection walk (§4.3): the governing statement decides,
    /// and within it the first path set meeting its floor wins. `None` when
    /// no statement governs `prefix`; `Some(PathChoice::Native(_))` when one
    /// does but no path set met its floor (the fallback the paper's
    /// operators alert on).
    fn evaluate_path_selection(&self, prefix: Prefix, candidates: &[Route]) -> Option<PathChoice> {
        let (_, _, st) = self.governing(prefix, candidates)?;
        // Priority walk: first path set with enough matching active routes
        // wins (§4.3). Only learned routes count toward the floor — a
        // matching locally-originated route contributes no forwarding
        // next-hop, so it must not satisfy MinNextHop.
        for set in &st.path_sets {
            let selected: Vec<usize> = candidates
                .iter()
                .enumerate()
                .filter(|(_, r)| self.sig_matches(&set.signature, r))
                .map(|(i, _)| i)
                .collect();
            let nexthops = selected
                .iter()
                .filter(|&&i| candidates[i].learned_from.is_some())
                .count();
            if nexthops >= set.min_next_hop {
                return Some(PathChoice::Rpa(Selection {
                    selected,
                    advertise: centralium_bgp::AdvertiseChoice::LeastFavorable,
                    keep_fib_warm: false,
                }));
            }
        }
        // No path set matched: fall back to native selection under the
        // statement's native guard, if any.
        Some(PathChoice::Native(st.native_min_next_hop))
    }
}

/// Whether any of `routes` carries `c` — what [`Destination::applies`] asks
/// of a materialized candidate set.
fn any_carries(routes: &[Route], c: Community) -> bool {
    routes.iter().any(|r| r.attrs.has_community(c))
}

impl RibPolicy for RpaEngine {
    fn select_paths(&self, prefix: Prefix, candidates: &[Route]) -> PathChoice {
        // No documents ⇒ nothing to evaluate: skip the walk and any timing
        // entirely. This keeps the un-instrumented, un-configured hot path
        // free.
        if self.docs.is_empty() {
            return PathChoice::Native(None);
        }
        let timed = self.telemetry.as_ref().map(|tel| (tel, Instant::now()));
        let mut sp = timed.map(|(tel, _)| tel.instruments.telemetry.span("rpa", "evaluate"));
        if let Some(sp) = &mut sp {
            sp.arg("candidates", candidates.len() as u64);
        }
        let outcome = self.evaluate_path_selection(prefix, candidates);
        drop(sp);
        if let Some((bound, started)) = timed {
            let tel = &bound.instruments;
            tel.eval_us
                .observe(started.elapsed().as_secs_f64() * 1_000_000.0);
            if matches!(outcome, Some(PathChoice::Native(_))) {
                tel.fallbacks.inc();
                if tel.telemetry.journal_enabled() {
                    tel.telemetry.record(
                        tel.telemetry
                            .event(EventKind::RpaEvalFallback, Severity::Info)
                            .field("device", format!("d{}", bound.device))
                            .field("prefix", prefix.to_string())
                            .field("candidates", candidates.len()),
                    );
                }
            }
        }
        outcome.unwrap_or(PathChoice::Native(None))
    }

    /// With no document installed every hook above answers native, whatever
    /// the prefix.
    fn governs(&self, _prefix: Prefix) -> bool {
        !self.docs.is_empty()
    }

    fn assign_weights(&self, prefix: Prefix, selected: &[Route]) -> Option<Vec<u32>> {
        let carries = |c| any_carries(selected, c);
        for doc in self.docs.values() {
            let CompiledDoc::RouteAttribute(statements) = &doc.compiled else {
                continue;
            };
            for st in statements {
                if !st.destination.applies(prefix, carries) {
                    continue;
                }
                let weights = selected
                    .iter()
                    .map(|r| {
                        st.weights
                            .iter()
                            .find(|(sig, _)| self.sig_matches(sig, r))
                            .map(|(_, w)| *w)
                            .unwrap_or(1)
                    })
                    .collect();
                return Some(weights);
            }
        }
        None
    }

    fn permit_ingress(&self, peer: PeerId, asn: Asn, prefix: Prefix, _: &Route) -> bool {
        self.permit_direction(peer, asn, prefix, true)
    }

    fn permit_egress(&self, peer: PeerId, asn: Asn, prefix: Prefix, _: &Route) -> bool {
        self.permit_direction(peer, asn, prefix, false)
    }
}

impl RpaEngine {
    fn permit_direction(&self, peer: PeerId, asn: Asn, prefix: Prefix, ingress: bool) -> bool {
        for doc in self.docs.values() {
            let CompiledDoc::RouteFilter(rf) = &doc.compiled else {
                continue;
            };
            for st in &rf.statements {
                if !st.peer_signature.covers(peer, asn) {
                    continue;
                }
                let verdict = if ingress {
                    st.permits_ingress(&prefix)
                } else {
                    st.permits_egress(&prefix)
                };
                // Every applicable, direction-constraining statement must
                // permit the prefix (AND semantics).
                if verdict == Some(false) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path_selection::{PathSelectionStatement, PathSet};
    use crate::route_attribute::{NextHopWeight, RouteAttributeStatement};
    use crate::route_filter::{PeerSignature, PrefixFilter, RouteFilterStatement};
    use crate::signature::PathSignature;
    use centralium_bgp::attrs::well_known;
    use centralium_bgp::PathAttributes;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn route(peer: u64, path: &[u32], communities: &[centralium_bgp::Community]) -> Route {
        let mut attrs = PathAttributes::default();
        for asn in path.iter().rev() {
            attrs.prepend(Asn(*asn), 1);
        }
        for c in communities {
            attrs.add_community(*c);
        }
        Route::learned(Prefix::DEFAULT, attrs, PeerId(peer))
    }

    /// The RPA selection for the default route, or `None` under native
    /// selection.
    fn select(e: &RpaEngine, candidates: &[Route]) -> Option<Selection> {
        match e.select_paths(Prefix::DEFAULT, candidates) {
            PathChoice::Rpa(sel) => Some(sel),
            PathChoice::Native(_) => None,
        }
    }

    fn equalize_doc() -> RpaDocument {
        RpaDocument::PathSelection(PathSelectionRpa::single(
            "equalize",
            PathSelectionStatement::select(
                Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
                vec![PathSet::new(
                    "via-backbone",
                    PathSignature::originated_by(Asn(60000)),
                )],
            ),
        ))
    }

    #[test]
    fn install_remove_lifecycle() {
        let mut e = RpaEngine::new();
        assert!(e.installed().is_empty());
        e.install(equalize_doc()).unwrap();
        assert_eq!(e.installed(), vec!["equalize"]);
        // A same-name install replaces: the desired state wins.
        e.install(equalize_doc()).unwrap();
        assert_eq!(e.installed(), vec!["equalize"]);
        assert!(e.document("equalize").is_some());
        e.remove("equalize").unwrap();
        assert!(e.installed().is_empty());
        assert_eq!(
            e.remove("equalize").unwrap_err(),
            RpaError::UnknownName("equalize".into())
        );
    }

    #[test]
    fn select_paths_equalizes_varying_lengths() {
        // §4.4.1: old 3-hop paths and the new 2-hop path are selected
        // together, defeating the first-router collapse.
        let mut e = RpaEngine::new();
        e.install(equalize_doc()).unwrap();
        let c = well_known::BACKBONE_DEFAULT_ROUTE;
        let candidates = vec![
            route(1, &[101, 50, 60000], &[c]),
            route(2, &[102, 50, 60000], &[c]),
            route(3, &[200, 60000], &[c]), // new, shorter
        ];
        let sel = select(&e, &candidates).unwrap();
        assert_eq!(sel.selected, vec![0, 1, 2]);
        assert_eq!(
            sel.advertise,
            centralium_bgp::AdvertiseChoice::LeastFavorable
        );
    }

    #[test]
    fn statement_only_governs_matching_destinations() {
        let mut e = RpaEngine::new();
        e.install(equalize_doc()).unwrap();
        // Candidates lack the community: native fallback.
        let candidates = vec![route(1, &[101, 60000], &[])];
        assert!(select(&e, &candidates).is_none());
    }

    #[test]
    fn path_set_min_next_hop_gates_matching() {
        let mut e = RpaEngine::new();
        let doc = RpaDocument::PathSelection(PathSelectionRpa::single(
            "guarded",
            PathSelectionStatement::select(
                Destination::Any,
                vec![
                    PathSet::new("primary", PathSignature::originated_by(Asn(9)))
                        .with_min_next_hop(2),
                    PathSet::new("fallback", PathSignature::originated_by(Asn(8))),
                ],
            ),
        ));
        e.install(doc).unwrap();
        // Only one primary route: primary set unmatched, fallback wins.
        let candidates = vec![route(1, &[1, 9], &[]), route(2, &[2, 8], &[])];
        let sel = select(&e, &candidates).unwrap();
        assert_eq!(sel.selected, vec![1]);
        // Two primary routes: primary set matches.
        let candidates = vec![
            route(1, &[1, 9], &[]),
            route(2, &[2, 9], &[]),
            route(3, &[3, 8], &[]),
        ];
        let sel = select(&e, &candidates).unwrap();
        assert_eq!(sel.selected, vec![0, 1]);
    }

    #[test]
    fn local_routes_do_not_satisfy_path_set_floors() {
        let mut e = RpaEngine::new();
        e.install(RpaDocument::PathSelection(PathSelectionRpa::single(
            "floor",
            PathSelectionStatement::select(
                Destination::Any,
                vec![
                    PathSet::new("nine", PathSignature::originated_by(Asn(9))).with_min_next_hop(2)
                ],
            ),
        )))
        .unwrap();
        // One learned + one local route match: only one forwarding next-hop,
        // floor of 2 unmet → native fallback.
        let mut local_attrs = centralium_bgp::PathAttributes::default();
        local_attrs.prepend(Asn(9), 1);
        let candidates = vec![
            route(1, &[1, 9], &[]),
            Route::local(Prefix::DEFAULT, local_attrs),
        ];
        assert!(select(&e, &candidates).is_none());
        // Two learned routes: floor met.
        let candidates = vec![route(1, &[1, 9], &[]), route(2, &[2, 9], &[])];
        assert!(select(&e, &candidates).is_some());
    }

    #[test]
    fn native_guard_travels_with_the_fallback() {
        let mut e = RpaEngine::new();
        e.install(RpaDocument::PathSelection(PathSelectionRpa::single(
            "decommission-guard",
            PathSelectionStatement::native_guard(Destination::Any, MinNextHop::Absolute(3), true),
        )))
        .unwrap();
        // Empty path-set list: native selection, under the statement's guard.
        let candidates = vec![route(1, &[1, 9], &[])];
        assert_eq!(
            e.select_paths(Prefix::DEFAULT, &candidates),
            PathChoice::Native(Some((3, true)))
        );
    }

    #[test]
    fn fraction_must_be_resolved_before_install() {
        let mut e = RpaEngine::new();
        let err = e
            .install(RpaDocument::PathSelection(PathSelectionRpa::single(
                "bad",
                PathSelectionStatement::native_guard(
                    Destination::Any,
                    MinNextHop::Fraction(0.75),
                    false,
                ),
            )))
            .unwrap_err();
        assert!(matches!(err, RpaError::UnresolvedFraction { .. }));
    }

    #[test]
    fn bad_regex_rejected_at_install() {
        let mut e = RpaEngine::new();
        let err = e
            .install(RpaDocument::PathSelection(PathSelectionRpa::single(
                "bad",
                PathSelectionStatement::select(
                    Destination::Any,
                    vec![PathSet::new("x", PathSignature::as_path("("))],
                ),
            )))
            .unwrap_err();
        assert!(matches!(err, RpaError::BadRegex { .. }));
        assert!(e.installed().is_empty());
    }

    fn as_path_doc(pattern: &str) -> RpaDocument {
        RpaDocument::PathSelection(PathSelectionRpa::single(
            "by-path",
            PathSelectionStatement::select(
                Destination::Any,
                vec![PathSet::new("x", PathSignature::as_path(pattern))],
            ),
        ))
    }

    /// A nullable group under `*` used to overflow the regex matcher's
    /// stack on its first evaluation, aborting whatever process held the
    /// document; it is an ordinary pattern.
    #[test]
    fn a_nullable_starred_group_evaluates() {
        let mut e = RpaEngine::new();
        e.install(as_path_doc("(6?)*5")).unwrap();
        let candidates = vec![route(1, &[60001, 30002], &[]), route(2, &[60001, 35], &[])];
        assert_eq!(select(&e, &candidates).unwrap().selected, vec![1]);
    }

    /// Patterns the real `regex` crate rejects fail install: a counted
    /// repeat past the compiled-size cap, and a reversed repetition range
    /// (which used to compile and never match).
    #[test]
    fn oversized_and_reversed_repeats_rejected_at_install() {
        for pattern in ["6{4294967295}", "6{2,1}"] {
            let mut e = RpaEngine::new();
            let err = e.install(as_path_doc(pattern)).unwrap_err();
            assert!(
                matches!(err, RpaError::BadRegex { .. }),
                "{pattern}: {err:?}"
            );
            assert!(e.installed().is_empty());
        }
    }

    #[test]
    fn assign_weights_prescribes_and_expires() {
        let telemetry = Telemetry::with_journal(16);
        let mut e = RpaEngine::new();
        e.set_telemetry(&telemetry, 0);
        let doc = RpaDocument::RouteAttribute(RouteAttributeRpa::single(
            "te",
            RouteAttributeStatement::new(
                Destination::Any,
                vec![
                    NextHopWeight {
                        signature: PathSignature::originated_by(Asn(9)),
                        weight: 3,
                    },
                    NextHopWeight {
                        signature: PathSignature::originated_by(Asn(8)),
                        weight: 1,
                    },
                ],
            )
            .expires_at(100),
        ));
        e.install(doc.clone()).unwrap();
        let selected = vec![
            route(1, &[1, 9], &[]),
            route(2, &[2, 8], &[]),
            route(3, &[3, 7], &[]),
        ];
        assert_eq!(
            e.assign_weights(Prefix::DEFAULT, &selected),
            Some(vec![3, 1, 1])
        );
        // Before the deadline nothing expires.
        assert!(e.expire(99).is_empty());
        assert_eq!(
            e.assign_weights(Prefix::DEFAULT, &selected),
            Some(vec![3, 1, 1])
        );
        // At the deadline the statement leaves, reporting its destination;
        // the weights fall back to native and a second call drops nothing.
        assert_eq!(e.expire(100), vec![Destination::Any]);
        assert_eq!(e.assign_weights(Prefix::DEFAULT, &selected), None);
        assert!(e.expire(100).is_empty());
        // The source document stays as installed.
        assert_eq!(e.document("te"), Some(&doc));
        let snap = telemetry.metrics().snapshot();
        assert_eq!(
            (snap.counter("rpa.installs"), snap.counter("rpa.removals")),
            (1, 0),
            "an expiry is neither an install nor a removal"
        );
        let actions: Vec<String> = telemetry
            .journal()
            .unwrap()
            .snapshot()
            .iter()
            .filter_map(|ev| ev.get("action")?.as_str().map(str::to_string))
            .collect();
        assert_eq!(actions, vec!["install", "expire"]);
    }

    #[test]
    fn route_filter_directions_and_peer_scope() {
        let mut e = RpaEngine::new();
        e.install(RpaDocument::RouteFilter(RouteFilterRpa {
            name: "boundary".into(),
            statements: vec![RouteFilterStatement {
                peer_signature: PeerSignature::AsnRange(Asn(60000), Asn(69999)),
                ingress_filter: Some(vec![PrefixFilter::exact(Prefix::DEFAULT)]),
                egress_filter: Some(vec![PrefixFilter::within(
                    "10.0.0.0/8".parse().unwrap(),
                    24,
                )]),
            }],
        }))
        .unwrap();
        let r = route(1, &[60000], &[]);
        let (backbone, fabric) = ((PeerId(1), Asn(60000)), (PeerId(2), Asn(30000)));
        let ingress = |(peer, asn), prefix: &str| e.permit_ingress(peer, asn, p(prefix), &r);
        let egress = |(peer, asn), prefix: &str| e.permit_egress(peer, asn, p(prefix), &r);
        // Backbone session: only the default route in; only 10/8 out.
        assert!(ingress(backbone, "0.0.0.0/0"));
        assert!(!ingress(backbone, "10.0.0.0/8"));
        assert!(egress(backbone, "10.1.0.0/16"));
        assert!(!egress(backbone, "0.0.0.0/0"));
        // Fabric session: unconstrained.
        assert!(ingress(fabric, "10.0.0.0/8"));
        assert!(egress(fabric, "0.0.0.0/0"));
        // The verdict follows the ASN the call carries, not the session id:
        // session 1 recabled to a fabric AS is unconstrained.
        assert!(ingress((PeerId(1), Asn(30000)), "10.0.0.0/8"));
        assert!(egress((PeerId(1), Asn(30000)), "0.0.0.0/0"));
    }

    #[test]
    fn cache_hits_on_reevaluation() {
        let mut e = RpaEngine::new();
        e.install(equalize_doc()).unwrap();
        let c = well_known::BACKBONE_DEFAULT_ROUTE;
        let candidates = vec![route(1, &[101, 60000], &[c]), route(2, &[102, 60000], &[c])];
        e.select_paths(Prefix::DEFAULT, &candidates);
        let first = e.stats();
        assert_eq!(first.cache_hits, 0);
        assert!(first.cache_misses >= 2);
        e.select_paths(Prefix::DEFAULT, &candidates);
        let second = e.stats();
        assert_eq!(second.cache_misses, first.cache_misses, "no new misses");
        assert!(second.cache_hits >= 2);
    }

    #[test]
    fn cache_disabled_counts_uncached() {
        let mut e = RpaEngine::new();
        e.set_cache_enabled(false);
        e.install(equalize_doc()).unwrap();
        let c = well_known::BACKBONE_DEFAULT_ROUTE;
        let candidates = vec![route(1, &[101, 60000], &[c])];
        e.select_paths(Prefix::DEFAULT, &candidates);
        e.select_paths(Prefix::DEFAULT, &candidates);
        let stats = e.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 0);
        assert!(stats.uncached_evals >= 2);
    }

    #[test]
    fn disabling_cache_zeroes_hit_miss_counters() {
        let mut e = RpaEngine::new();
        e.install(equalize_doc()).unwrap();
        let c = well_known::BACKBONE_DEFAULT_ROUTE;
        let candidates = vec![route(1, &[101, 60000], &[c])];
        e.select_paths(Prefix::DEFAULT, &candidates);
        e.select_paths(Prefix::DEFAULT, &candidates);
        let warm = e.stats();
        assert!(warm.cache_hits > 0 && warm.cache_misses > 0);
        // Disable: the stale hit/miss counts must not leak into the
        // uncached era's report.
        e.set_cache_enabled(false);
        let off = e.stats();
        assert_eq!((off.cache_hits, off.cache_misses), (0, 0));
        e.select_paths(Prefix::DEFAULT, &candidates);
        let after = e.stats();
        assert_eq!((after.cache_hits, after.cache_misses), (0, 0));
        assert!(after.uncached_evals > 0);
        // Re-enable: the uncached count is the other era's residue.
        e.set_cache_enabled(true);
        assert_eq!(e.stats().uncached_evals, 0);
    }

    #[test]
    fn cache_keys_on_sequences_not_learning_session() {
        // Path signatures observe only the AS-path and community set, so
        // routes differing in learning session / local-pref must share one
        // cache entry each per signature.
        let mut e = RpaEngine::new();
        e.install(equalize_doc()).unwrap();
        let c = well_known::BACKBONE_DEFAULT_ROUTE;
        e.select_paths(Prefix::DEFAULT, &[route(1, &[101, 60000], &[c])]);
        let warm = e.stats();
        let mut twin = route(2, &[101, 60000], &[c]);
        std::sync::Arc::make_mut(&mut twin.attrs).local_pref += 50;
        e.select_paths(Prefix::DEFAULT, &[twin]);
        let after = e.stats();
        assert_eq!(after.cache_misses, warm.cache_misses, "no new misses");
        assert!(after.cache_hits > warm.cache_hits);
    }

    #[test]
    fn cache_key_is_sequence_content_not_storage() {
        let c = well_known::BACKBONE_DEFAULT_ROUTE;
        // Every route builds its own sequences: equal content, never
        // shared storage.
        let built = |peer: u64, path: Vec<Asn>| {
            let attrs = PathAttributes {
                as_path: AsPath::from(path),
                communities: CommunitySet::from(vec![c]),
                ..PathAttributes::default()
            };
            Route::learned(Prefix::DEFAULT, attrs, PeerId(peer))
        };
        let mut e = RpaEngine::new();
        e.install(equalize_doc()).unwrap();
        let counts = |e: &RpaEngine| (e.stats().cache_hits, e.stats().cache_misses);

        e.select_paths(Prefix::DEFAULT, &[built(1, vec![Asn(101), Asn(60000)])]);
        assert_eq!(counts(&e), (0, 1), "first evaluation misses");
        e.select_paths(Prefix::DEFAULT, &[built(2, vec![Asn(101), Asn(60000)])]);
        assert_eq!(counts(&e), (1, 1), "an equal path built apart hits");
        e.select_paths(Prefix::DEFAULT, &[built(3, vec![Asn(102), Asn(60000)])]);
        assert_eq!(counts(&e), (1, 2), "one ASN apart misses");

        // A second document's verdicts join the cache, and removing it drops
        // exactly those.
        e.install(RpaDocument::RouteAttribute(RouteAttributeRpa::single(
            "te",
            RouteAttributeStatement::new(
                Destination::Any,
                vec![NextHopWeight {
                    signature: PathSignature::originated_by(Asn(60000)),
                    weight: 2,
                }],
            ),
        )))
        .unwrap();
        e.assign_weights(Prefix::DEFAULT, &[built(4, vec![Asn(101), Asn(60000)])]);
        let cache_len = |e: &RpaEngine| e.memo.as_ref().unwrap().cache.lock().len();
        assert_eq!(cache_len(&e), 3);
        let kept = e.docs["equalize"].sig_range;
        e.remove("te").unwrap();
        assert_eq!(cache_len(&e), 2);
        let cache = e.memo.as_ref().unwrap().cache.lock();
        assert!(cache
            .keys()
            .all(|(sig, _, _)| (kept.0..kept.1).contains(sig)));
        drop(cache);
        e.select_paths(Prefix::DEFAULT, &[built(5, vec![Asn(102), Asn(60000)])]);
        assert_eq!(counts(&e), (2, 3), "the surviving document stays warm");
    }

    #[test]
    fn cache_counters_flow_to_registry() {
        let telemetry = Telemetry::new();
        let mut e = RpaEngine::new();
        e.set_telemetry(&telemetry, 0);
        e.install(equalize_doc()).unwrap();
        let c = well_known::BACKBONE_DEFAULT_ROUTE;
        let candidates = vec![route(1, &[101, 60000], &[c])];
        e.select_paths(Prefix::DEFAULT, &candidates);
        e.select_paths(Prefix::DEFAULT, &candidates);
        let snap = telemetry.metrics().snapshot();
        let stats = e.stats();
        assert_eq!(snap.counter("rpa.cache_hits"), stats.cache_hits);
        assert_eq!(snap.counter("rpa.cache_misses"), stats.cache_misses);
        assert!(stats.cache_hits > 0 && stats.cache_misses > 0);
    }

    #[test]
    fn invalidation_is_per_document() {
        let mut e = RpaEngine::new();
        e.install(equalize_doc()).unwrap();
        let c = well_known::BACKBONE_DEFAULT_ROUTE;
        let candidates = vec![route(1, &[101, 60000], &[c])];
        e.select_paths(Prefix::DEFAULT, &candidates);
        // Installing an unrelated document must NOT cold-start the survivor:
        // its signature ids are untouched, so its verdicts stay memoized.
        e.install(RpaDocument::RouteFilter(RouteFilterRpa {
            name: "other".into(),
            statements: vec![],
        }))
        .unwrap();
        *e.memo.as_mut().unwrap().stats.get_mut() = EngineStats::default();
        e.select_paths(Prefix::DEFAULT, &candidates);
        let warm = e.stats();
        assert_eq!(warm.cache_misses, 0, "unrelated install kept the cache");
        assert!(warm.cache_hits > 0);
        // Removing and reinstalling the document allocates fresh signature
        // ids, so the first evaluation re-misses: the dead document's
        // verdicts really were dropped, not resurrected.
        e.remove("equalize").unwrap();
        e.install(equalize_doc()).unwrap();
        *e.memo.as_mut().unwrap().stats.get_mut() = EngineStats::default();
        e.select_paths(Prefix::DEFAULT, &candidates);
        assert!(
            e.stats().cache_misses > 0,
            "reinstalled document starts cold"
        );
    }

    #[test]
    fn governing_statement_debug_aid() {
        let mut e = RpaEngine::new();
        e.install(equalize_doc()).unwrap();
        let c = well_known::BACKBONE_DEFAULT_ROUTE;
        let tagged = vec![route(1, &[101, 60000], &[c])];
        let plain = vec![route(1, &[101, 60000], &[])];
        assert_eq!(
            e.governing_statement(Prefix::DEFAULT, &tagged),
            Some(("equalize".to_string(), 0))
        );
        assert_eq!(e.governing_statement(Prefix::DEFAULT, &plain), None);
    }

    #[test]
    fn name_order_decides_across_documents() {
        let via = |name: &str, origin: u32| {
            RpaDocument::PathSelection(PathSelectionRpa::single(
                name,
                PathSelectionStatement::select(
                    Destination::Any,
                    vec![PathSet::new(
                        "via",
                        PathSignature::originated_by(Asn(origin)),
                    )],
                ),
            ))
        };
        let candidates = vec![route(1, &[1, 9], &[]), route(2, &[2, 8], &[])];
        // `b` arrives first, yet `a` governs; so does it after `b` is
        // replaced.
        let mut e = RpaEngine::new();
        e.install(via("b", 9)).unwrap();
        e.install(via("a", 8)).unwrap();
        assert_eq!(e.installed(), vec!["a", "b"]);
        assert_eq!(select(&e, &candidates).unwrap().selected, vec![1]);
        assert_eq!(
            e.governing_statement(Prefix::DEFAULT, &candidates),
            Some(("a".to_string(), 0))
        );
        e.install(via("b", 9)).unwrap();
        assert_eq!(select(&e, &candidates).unwrap().selected, vec![1]);
        // The same set installed in the other order answers the same.
        let mut other = RpaEngine::new();
        other.install(via("a", 8)).unwrap();
        other.install(via("b", 9)).unwrap();
        assert_eq!(
            other.select_paths(Prefix::DEFAULT, &candidates),
            e.select_paths(Prefix::DEFAULT, &candidates)
        );
    }
}
