//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms with cheap atomic updates.
//!
//! Instrumented code asks the registry for a handle **once** and caches it;
//! updates are then a single atomic RMW — the same cost class as the plain
//! `u64 += 1` counters this subsystem replaced. `snapshot()` captures every
//! instrument by name; `diff()` between two snapshots isolates one
//! experiment window.

use crate::histogram::{LogHistogram, LogHistogramSnapshot};
use parking_lot::Mutex;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic counter handle. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous-value gauge handle. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the value by `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCells {
    /// Upper bounds of the finite buckets, strictly increasing. An implicit
    /// +∞ bucket follows, so `counts.len() == bounds.len() + 1`.
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    /// Sum of observed values, stored as `f64` bits (CAS loop on update).
    sum_bits: AtomicU64,
}

/// Fixed-bucket histogram handle. Cloning shares the underlying cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        bounds.dedup();
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramCells {
            bounds,
            counts,
            sum_bits: AtomicU64::new(0),
        }))
    }

    /// Record one observation. A value lands in the first bucket whose
    /// upper bound is ≥ the value (inclusive upper bounds, Prometheus-style).
    pub fn observe(&self, value: f64) {
        if value.is_nan() {
            return;
        }
        let cells = &*self.0;
        let idx = cells
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(cells.bounds.len());
        cells.counts[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = cells.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match cells.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Point-in-time copy.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.clone(),
            counts: self
                .0
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Frozen histogram state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds; an implicit +∞ bucket follows.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean observed value, or `None` with no observations.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum / n as f64)
    }

    fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        if self.bounds != earlier.bounds {
            // Bucket layout changed between snapshots (re-registered with
            // different bounds): the later state is the only coherent view.
            return self.clone();
        }
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum: self.sum - earlier.sum,
        }
    }
}

/// The registry: name → instrument, one namespace per instrument type.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    log_histograms: Mutex<BTreeMap<String, LogHistogram>>,
}

impl MetricsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it on first use. Cache the
    /// returned handle on hot paths.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock();
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Counter::default();
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock();
        match map.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Gauge::default();
                map.insert(name.to_string(), g.clone());
                g
            }
        }
    }

    /// The histogram named `name`, registering it with `bounds` on first
    /// use. A later call with different bounds returns the original.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut map = self.histograms.lock();
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Histogram::new(bounds);
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// The log-bucket histogram named `name`, registering it on first use.
    /// Scale-free (no bounds to pick) and cheaper than [`histogram`]
    /// (no CAS loop) — the right instrument for hot-path integer
    /// distributions like per-event latencies and window job counts.
    ///
    /// [`histogram`]: MetricsRegistry::histogram
    pub fn log_histogram(&self, name: &str) -> LogHistogram {
        let mut map = self.log_histograms.lock();
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = LogHistogram::new();
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// Freeze every instrument by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            log_histograms: self
                .log_histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A frozen view of the whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Log-bucket histogram states by name.
    pub log_histograms: BTreeMap<String, LogHistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A histogram's state, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// A log-bucket histogram's state, when present.
    pub fn log_histogram(&self, name: &str) -> Option<&LogHistogramSnapshot> {
        self.log_histograms.get(name)
    }

    /// `self - earlier`, per instrument: counter and histogram deltas
    /// saturate at zero; gauge deltas are signed. Instruments absent from
    /// `earlier` diff against zero.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.gauge(k)))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| match earlier.histograms.get(k) {
                    Some(prev) => (k.clone(), v.diff(prev)),
                    None => (k.clone(), v.clone()),
                })
                .collect(),
            log_histograms: self
                .log_histograms
                .iter()
                .map(|(k, v)| match earlier.log_histograms.get(k) {
                    Some(prev) => (k.clone(), v.diff(prev)),
                    None => (k.clone(), v.clone()),
                })
                .collect(),
        }
    }
}

impl serde::Serialize for MetricsSnapshot {
    fn serialize(&self) -> Value {
        let mut obj = serde::Map::new();
        let counters: serde::Map = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::Int(*v as i128)))
            .collect();
        let gauges: serde::Map = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Value::Int(*v as i128)))
            .collect();
        let histograms: serde::Map = self
            .histograms
            .iter()
            .map(|(k, v)| {
                let mut h = serde::Map::new();
                h.insert(
                    "bounds".to_string(),
                    Value::Array(v.bounds.iter().map(|b| Value::Float(*b)).collect()),
                );
                h.insert(
                    "counts".to_string(),
                    Value::Array(v.counts.iter().map(|c| Value::Int(*c as i128)).collect()),
                );
                h.insert("sum".to_string(), Value::Float(v.sum));
                (k.clone(), Value::Object(h))
            })
            .collect();
        // Log-bucket histograms serialize sparsely — 65 mostly-zero buckets
        // would bloat every snapshot, so only non-empty buckets are written,
        // as [inclusive upper bound, count] pairs.
        let log_histograms: serde::Map = self
            .log_histograms
            .iter()
            .map(|(k, v)| {
                let mut h = serde::Map::new();
                h.insert(
                    "buckets".to_string(),
                    Value::Array(
                        v.nonzero_buckets()
                            .iter()
                            .map(|(upper, count)| {
                                Value::Array(vec![
                                    Value::Int(*upper as i128),
                                    Value::Int(*count as i128),
                                ])
                            })
                            .collect(),
                    ),
                );
                h.insert("count".to_string(), Value::Int(v.count() as i128));
                h.insert("sum".to_string(), Value::Int(v.sum as i128));
                (k.clone(), Value::Object(h))
            })
            .collect();
        obj.insert("counters".to_string(), Value::Object(counters));
        obj.insert("gauges".to_string(), Value::Object(gauges));
        obj.insert("histograms".to_string(), Value::Object(histograms));
        obj.insert("log_histograms".to_string(), Value::Object(log_histograms));
        Value::Object(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x").get(), 3);
        assert_eq!(r.snapshot().counter("x"), 3);
        assert_eq!(r.snapshot().counter("absent"), 0);
    }

    #[test]
    fn gauge_set_and_add() {
        let r = MetricsRegistry::new();
        let g = r.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(r.snapshot().gauge("depth"), 7);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat", &[1.0, 5.0, 10.0]);
        // Exactly-on-bound lands in that bucket (inclusive upper bounds);
        // above the last bound lands in the +∞ bucket.
        for v in [0.5, 1.0, 1.00001, 5.0, 10.0, 10.5, 999.0] {
            h.observe(v);
        }
        h.observe(f64::NAN); // ignored
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![2, 2, 1, 2]);
        assert_eq!(snap.count(), 7);
        assert!((snap.sum - 1027.00001).abs() < 1e-6);
        assert!((snap.mean().unwrap() - 1027.00001 / 7.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduped() {
        let r = MetricsRegistry::new();
        let h = r.histogram("h", &[10.0, 1.0, 10.0, f64::INFINITY]);
        assert_eq!(h.snapshot().bounds, vec![1.0, 10.0]);
    }

    #[test]
    fn snapshot_diff_isolates_a_window() {
        let r = MetricsRegistry::new();
        let c = r.counter("ops");
        let g = r.gauge("size");
        let h = r.histogram("ms", &[1.0, 10.0]);
        c.add(5);
        g.set(100);
        h.observe(0.5);
        let before = r.snapshot();
        c.add(3);
        g.set(90);
        h.observe(2.0);
        h.observe(2.0);
        let delta = r.snapshot().diff(&before);
        assert_eq!(delta.counter("ops"), 3);
        assert_eq!(delta.gauge("size"), -10);
        let hd = delta.histogram("ms").unwrap();
        assert_eq!(hd.counts, vec![0, 2, 0]);
        assert!((hd.sum - 4.0).abs() < 1e-9);
    }

    #[test]
    fn diff_handles_instruments_missing_from_earlier() {
        let r = MetricsRegistry::new();
        let before = r.snapshot();
        r.counter("new").add(2);
        r.histogram("h", &[1.0]).observe(0.5);
        let delta = r.snapshot().diff(&before);
        assert_eq!(delta.counter("new"), 2);
        assert_eq!(delta.histogram("h").unwrap().count(), 1);
    }
}
