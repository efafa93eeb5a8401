//! Lock-free log-bucket histograms for hot-path distributions.
//!
//! The registry's [`Histogram`](crate::Histogram) takes caller-chosen
//! bucket bounds and a CAS loop for its float sum — right for coarse,
//! low-rate observations like per-prefix convergence latency. The profiler
//! needs something cheaper and scale-free for per-event latencies, window
//! job counts and batch sizes: [`LogHistogram`] buckets by **bit length**
//! (bucket *i* holds values in `[2^(i-1), 2^i)`), so one `leading_zeros`
//! plus two relaxed atomic adds records an observation — no bounds to pick,
//! no CAS loop, no lock, and a fixed 65-slot footprint covers the full
//! `u64` range.
//!
//! Snapshots support [`merge`](LogHistogramSnapshot::merge) (for combining
//! per-worker or per-episode distributions) and quantile estimation
//! ([`percentile`](LogHistogramSnapshot::percentile), resolved to a bucket
//! upper bound — an upper estimate with at most 2× resolution, which is
//! what a "why is this slow" diagnosis needs).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bucket count: one per possible bit length of a `u64` (0..=64).
pub const LOG_BUCKETS: usize = 65;

/// Bucket index of a value: its bit length (0 for 0, 64 for values with the
/// top bit set). Bucket `i >= 1` holds values in `[2^(i-1), 2^i)`.
#[inline]
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`, saturating at the top).
fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[derive(Debug)]
struct LogCells {
    counts: [AtomicU64; LOG_BUCKETS],
    sum: AtomicU64,
}

/// Lock-free log-bucket histogram handle. Cloning shares the cells.
#[derive(Debug, Clone)]
pub struct LogHistogram(Arc<LogCells>);

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram(Arc::new(LogCells {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }))
    }
}

impl LogHistogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation: two relaxed atomic adds.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.0.counts[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> LogHistogramSnapshot {
        LogHistogramSnapshot {
            counts: std::array::from_fn(|i| self.0.counts[i].load(Ordering::Relaxed)),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// Frozen [`LogHistogram`] state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogramSnapshot {
    /// Per-bucket observation counts, indexed by value bit length.
    pub counts: [u64; LOG_BUCKETS],
    /// Sum of observed values (wrapping on overflow, like the live cells).
    pub sum: u64,
}

impl Default for LogHistogramSnapshot {
    fn default() -> Self {
        LogHistogramSnapshot {
            counts: [0; LOG_BUCKETS],
            sum: 0,
        }
    }
}

impl LogHistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean observed value, or `None` with no observations.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum as f64 / n as f64)
    }

    /// The `q`-quantile (`0.0..=1.0`), resolved to the inclusive upper
    /// bound of the bucket containing it — an upper estimate within 2×.
    /// `None` when empty or `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        let total = self.count();
        if total == 0 {
            return None;
        }
        // Rank of the target observation, 1-based; q=0 resolves to the
        // first observation's bucket, q=1 to the last's.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(i));
            }
        }
        unreachable!("rank <= total implies a bucket is found");
    }

    /// Element-wise accumulation of another snapshot (combining workers or
    /// episodes). Equivalent to having observed both value streams.
    pub fn merge(&mut self, other: &LogHistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// `self - earlier`, per bucket, saturating at zero (counts are
    /// monotonic on a live histogram, so saturation only absorbs a
    /// re-registered instrument).
    pub fn diff(&self, earlier: &LogHistogramSnapshot) -> LogHistogramSnapshot {
        LogHistogramSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].saturating_sub(earlier.counts[i])),
            sum: self.sum.wrapping_sub(earlier.sum),
        }
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs, for
    /// rendering a distribution table.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(255), 8);
        assert_eq!(bucket_of(256), 9);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(8), 255);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn observe_count_sum_mean() {
        let h = LogHistogram::new();
        for v in [0, 1, 2, 3, 1000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5);
        assert_eq!(snap.sum, 1006);
        assert!((snap.mean().unwrap() - 201.2).abs() < 1e-9);
        assert_eq!(snap.counts[0], 1); // 0
        assert_eq!(snap.counts[1], 1); // 1
        assert_eq!(snap.counts[2], 2); // 2, 3
        assert_eq!(snap.counts[10], 1); // 1000 in [512, 1024)
    }

    #[test]
    fn percentiles_resolve_to_bucket_upper_bounds() {
        let h = LogHistogram::new();
        for _ in 0..99 {
            h.observe(10); // bucket 4, upper 15
        }
        h.observe(1_000_000); // bucket 20, upper 2^20-1
        let snap = h.snapshot();
        assert_eq!(snap.percentile(0.5), Some(15));
        assert_eq!(snap.percentile(0.99), Some(15));
        assert_eq!(snap.percentile(1.0), Some((1 << 20) - 1));
        assert_eq!(snap.percentile(0.0), Some(15));
        assert_eq!(snap.percentile(1.5), None);
        assert_eq!(LogHistogramSnapshot::default().percentile(0.5), None);
    }

    #[test]
    fn merge_equals_union_of_observations() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let both = LogHistogram::new();
        for v in [1u64, 7, 300] {
            a.observe(v);
            both.observe(v);
        }
        for v in [0u64, 300, 40_000] {
            b.observe(v);
            both.observe(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn diff_isolates_a_window() {
        let h = LogHistogram::new();
        h.observe(5);
        let before = h.snapshot();
        h.observe(100);
        h.observe(100);
        let delta = h.snapshot().diff(&before);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum, 200);
        assert_eq!(delta.counts[7], 2); // 100 in [64, 128)
    }

    #[test]
    fn nonzero_buckets_for_rendering() {
        let h = LogHistogram::new();
        h.observe(0);
        h.observe(9);
        h.observe(9);
        assert_eq!(h.snapshot().nonzero_buckets(), vec![(0, 1), (15, 2)]);
    }
}
