//! Per-layer metrics every workload reads the same way: the program's own
//! metrics registry, the bench's `step()` histogram and its allocator.

use crate::alloc::AllocReading;
use crate::fabric::Metrics;
use crate::trace::{durations, median, LogHist, Span};
use centralium_telemetry::{HistogramSnapshot, MetricsSnapshot};

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Upper bound of the bucket holding the `q`-quantile of a fixed-bucket
/// registry histogram (the last finite bound for the overflow bucket).
fn bucket_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    let total: u64 = h.counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((total - 1) as f64 * q).round() as u64;
    let mut seen = 0;
    for (i, &n) in h.counts.iter().enumerate() {
        seen += n;
        if seen > rank {
            return h.bounds[i.min(h.bounds.len() - 1)];
        }
    }
    *h.bounds.last().expect("histogram has bounds")
}

/// `simnet.*`, `bgp.*` and `rpa.*` from the registry: `diff` is the registry
/// over the timed section (counters, histograms), `end` the registry at its
/// end (gauges, which are levels).
pub fn from_registry(
    diff: &MetricsSnapshot,
    end: &MetricsSnapshot,
    events: u64,
    out: &mut Metrics,
) {
    let c = |name: &str| diff.counter(name) as f64;
    let g = |name: &str| end.gauge(name) as f64;
    let routes = c("simnet.announcements") + c("simnet.withdrawals");

    out.insert("simnet.events", events as f64);
    out.insert("simnet.routes_delivered", routes);
    out.insert("simnet.batches_delivered", c("simnet.batches_delivered"));
    out.insert("simnet.updates_coalesced", c("simnet.updates_coalesced"));
    out.insert("simnet.max_batch_size", g("simnet.max_batch_size"));
    out.insert("simnet.session_events", c("simnet.session_events"));
    out.insert("simnet.queue_hwm", g("mem.event_queue_hwm"));
    out.insert("simnet.routes_per_event", ratio(routes, events as f64));
    out.insert("simnet.phase_pre_us", c("simnet.phase.pre_us"));
    out.insert("simnet.phase_work_us", c("simnet.phase.work_us"));
    out.insert("simnet.phase_merge_us", c("simnet.phase.merge_us"));
    out.insert(
        "simnet.work_ns_per_route",
        ratio(c("simnet.phase.work_us") * 1e3, routes),
    );
    out.insert("simnet.rpa_scoped_reevals", c("simnet.rpa_scoped_reevals"));
    out.insert("simnet.rpa_full_reevals", c("simnet.rpa_full_reevals"));

    out.insert("bgp.decisions", c("bgp.decisions"));
    out.insert("bgp.best_path_changes", c("bgp.best_path_changes"));
    out.insert("bgp.decisions_per_route", ratio(c("bgp.decisions"), routes));
    out.insert("bgp.adj_rib_in_bytes", g("mem.adj_rib_in_bytes"));
    out.insert("bgp.adj_rib_out_bytes", g("mem.adj_rib_out_bytes"));
    out.insert("bgp.canonical_routes", g("bgp.canonical_routes"));
    out.insert("bgp.peer_refs", g("bgp.peer_refs"));
    out.insert("bgp.interner_as_paths", g("mem.interner.as_paths"));
    out.insert(
        "bgp.interner_community_sets",
        g("mem.interner.community_sets"),
    );

    let (hits, misses) = (c("rpa.cache_hits"), c("rpa.cache_misses"));
    out.insert("rpa.cache_hits", hits);
    out.insert("rpa.cache_misses", misses);
    out.insert("rpa.cache_hit_ratio", ratio(hits, hits + misses));
    out.insert("rpa.eval_fallbacks", c("rpa.eval_fallbacks"));
    out.insert("rpa.installs", c("rpa.installs"));
    out.insert("rpa.removals", c("rpa.removals"));
    let eval = diff.histogram("rpa.eval_us");
    out.insert(
        "rpa.eval_us_p50",
        eval.map_or(0.0, |h| bucket_quantile(h, 0.5)),
    );
    out.insert(
        "rpa.eval_us_p99",
        eval.map_or(0.0, |h| bucket_quantile(h, 0.99)),
    );
}

/// `simnet.step_ns_*` from the stepped convergence loop.
pub fn from_steps(steps: &LogHist, out: &mut Metrics) {
    out.insert("simnet.step_ns_p50", steps.quantile(0.5) as f64);
    out.insert("simnet.step_ns_p99", steps.quantile(0.99) as f64);
    out.insert("simnet.step_ns_p999", steps.quantile(0.999) as f64);
    out.insert("simnet.step_ns_max", steps.max() as f64);
}

/// Set-up costs from the spans `fabric::build_fabric` records: the median
/// over the run's set-ups.
pub fn from_setup_spans(spans: &[Span], out: &mut Metrics) {
    for (metric, name) in [
        ("topology.build_ms", "TierSpec::build"),
        ("simnet.new_ms", "SimNet::new"),
        ("simnet.establish_ms", "establish_all"),
    ] {
        out.insert(metric, median(&durations(spans, name, |_| true)) / 1e6);
    }
}

/// `mem.*` from the bench allocator: `at_quiescence` is the reading after the
/// timed section, `timed` the cumulative bytes and calls inside it.
pub fn from_alloc(
    at_quiescence: AllocReading,
    timed: AllocReading,
    devices: usize,
    routes: u64,
    out: &mut Metrics,
) {
    let live = at_quiescence.live.max(0) as f64;
    out.insert("mem.live_mb", live / (1024.0 * 1024.0));
    out.insert(
        "mem.live_kb_per_device",
        ratio(live / 1024.0, devices as f64),
    );
    out.insert(
        "mem.alloc_bytes_per_route",
        ratio(timed.cumulative as f64, routes as f64),
    );
    out.insert(
        "mem.allocs_per_route",
        ratio(timed.allocs as f64, routes as f64),
    );
}

/// `mem.live_*` on the workloads that repeat operations on one fabric: live
/// bytes after the last operation, and their drift since the first.
pub fn from_live(first: i64, last: i64, devices: usize, out: &mut Metrics) {
    let live = last.max(0) as f64;
    out.insert("mem.live_drift_bytes", (last - first) as f64);
    out.insert("mem.live_mb", live / (1024.0 * 1024.0));
    out.insert("mem.live_kb_per_device", live / 1024.0 / devices as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_quantile_reads_upper_bounds() {
        let h = HistogramSnapshot {
            bounds: vec![1.0, 2.0, 5.0],
            counts: vec![10, 80, 9, 1],
            sum: 0.0,
        };
        assert_eq!(bucket_quantile(&h, 0.05), 1.0);
        assert_eq!(bucket_quantile(&h, 0.5), 2.0);
        assert_eq!(bucket_quantile(&h, 0.95), 5.0);
        // The overflow bucket reports the last finite bound.
        assert_eq!(bucket_quantile(&h, 1.0), 5.0);
        let empty = HistogramSnapshot {
            bounds: vec![1.0],
            counts: vec![0, 0],
            sum: 0.0,
        };
        assert_eq!(bucket_quantile(&empty, 0.5), 0.0);
    }
}
