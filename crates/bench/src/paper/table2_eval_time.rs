//! Regenerates **Table 2**: RPA evaluation time per route (ms), with and
//! without the evaluation cache, at p50/p95/p99.
//!
//! Workload: a Path Selection RPA with an AS-path-regex signature evaluated
//! against 10,000 routes with distinct attribute sets. The "w/o cache" row
//! disables memoization; the "w/ cache" row measures the steady state after
//! one warming pass.

use super::Artefact;
use crate::stats::{mean, percentile};
use centralium_bgp::attrs::well_known;
use centralium_bgp::{PathAttributes, PathChoice, PeerId, Prefix, RibPolicy, Route};
use centralium_rpa::{
    Destination, PathSelectionRpa, PathSelectionStatement, PathSet, PathSignature, RpaDocument,
    RpaEngine,
};
use centralium_topology::Asn;
use std::time::Instant;

fn workload(routes: usize) -> Vec<(Prefix, Vec<Route>)> {
    (0..routes)
        .map(|i| {
            let prefix = Prefix::new(0x0A00_0000 + ((i as u32) << 8), 24);
            // Four candidate paths with varying lengths and attributes.
            let candidates = (0..4u32)
                .map(|j| {
                    let mut attrs = PathAttributes::default();
                    attrs.prepend(Asn(60_000 + (i as u32 % 16)), 1); // origin
                    for h in 0..(1 + (i as u32 + j) % 4) {
                        attrs.prepend(Asn(30_000 + h * 7 + j), 1);
                    }
                    attrs.add_community(well_known::BACKBONE_DEFAULT_ROUTE);
                    attrs.med = (i as u32) % 3;
                    Route::learned(prefix, attrs, PeerId(j as u64))
                })
                .collect();
            (prefix, candidates)
        })
        .collect()
}

fn engine(cache: bool) -> RpaEngine {
    let mut e = RpaEngine::new();
    e.set_cache_enabled(cache);
    e.install(RpaDocument::PathSelection(PathSelectionRpa::single(
        "equalize",
        PathSelectionStatement::select(
            Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
            vec![PathSet::new(
                "via-backbone",
                PathSignature::as_path("(^| )6\\d{4}$"),
            )],
        ),
    )))
    .expect("installs");
    e
}

fn measure(e: &RpaEngine, routes: &[(Prefix, Vec<Route>)]) -> Vec<f64> {
    let mut samples = Vec::with_capacity(routes.len());
    for (prefix, candidates) in routes {
        let t = Instant::now();
        let sel = e.select_paths(*prefix, candidates);
        let dt = t.elapsed();
        assert!(
            matches!(sel, PathChoice::Rpa(_)),
            "workload routes must match the statement"
        );
        samples.push(dt.as_secs_f64() * 1_000.0); // ms
    }
    samples
}

fn row(label: &str, samples: &[f64]) -> String {
    let fmt = |v: f64| {
        if v < 0.001 {
            "<0.001".to_string()
        } else {
            format!("{v:.3}")
        }
    };
    format!(
        "  {label:<10} p50 {:>8}  p95 {:>8}  p99 {:>8}   (ms)",
        fmt(percentile(samples, 50.0)),
        fmt(percentile(samples, 95.0)),
        fmt(percentile(samples, 99.0)),
    )
}

/// The cache column at signature granularity: one single-candidate
/// `select_paths` call per route, on an engine without the memo (every call
/// runs the regex) and on a warm one (every call is one
/// `(sig_id, as_path, communities)` lookup). The calls are the same, so the
/// ratio is the memo lookup against the regex walk it replaces.
fn signature_rows(out: &mut Artefact, routes: &[(Prefix, Vec<Route>)]) {
    let singles: Vec<(Prefix, Vec<Route>)> = routes
        .iter()
        .map(|(p, c)| (*p, vec![c[0].clone()]))
        .collect();
    let uncached = measure(&engine(false), &singles);
    out.host(row("uncached", &uncached));

    let warm = engine(true);
    let _ = measure(&warm, &singles); // warming pass fills the memo
    let memoized = measure(&warm, &singles);
    out.host(row("cached", &memoized));

    let speedup = mean(&uncached) / mean(&memoized).max(1e-9);
    out.host(format!("  mean signature-eval speedup w/ cache: {speedup:.1}x"));
}

/// 10,000 routes; `tiny` evaluates 1,000.
pub(crate) fn artefact(tiny: bool) -> Artefact {
    let routes = workload(if tiny { 1_000 } else { 10_000 });
    let mut out = Artefact::default();
    out.det(format!(
        "Table 2: RPA evaluation time per route over {} routes x 4 candidates\n",
        routes.len()
    ));

    let cold = engine(false);
    let no_cache = measure(&cold, &routes);
    out.host(row("w/o cache", &no_cache));

    let warm = engine(true);
    let _ = measure(&warm, &routes); // warming pass fills the cache
    let cached = measure(&warm, &routes);
    out.host(row("w/ cache", &cached));

    out.host("\nSignature evaluation per candidate (the cache column's unit of work):");
    signature_rows(&mut out, &routes);

    let stats = warm.stats();
    out.det(format!(
        "cache hits {} misses {} (hit rate {:.1}%)",
        stats.cache_hits,
        stats.cache_misses,
        100.0 * stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64
    ));
    let speedup = mean(&no_cache) / mean(&cached).max(1e-9);
    out.host(format!("mean speedup w/ cache: {speedup:.1}x"));
    out.det("\nPaper reference: w/o cache p50 <1, p95 2, p99 4 ms; w/ cache all <1 ms.");
    out.det("Shape to check: cached evaluation is strictly faster at every percentile.");
    out
}
