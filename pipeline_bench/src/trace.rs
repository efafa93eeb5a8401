//! The bench's own tracing: spans around calls into a layer's public
//! functions, a log-bucket histogram for the millions of `step()` calls, and
//! the sample statistics both report modes share.
//!
//! Spans live in memory and are written out (Chrome trace JSON) when the run
//! ends. Nothing here touches the program's own span tracer, journal or
//! provenance log — those stay off in every run.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Crate the call goes into.
    pub layer: &'static str,
    /// Function called.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
pub type SpanId = Option<u32>;

/// In-memory span recorder. Off = every call is one branch. Methods take
/// `&self` (the state sits in a `RefCell`) so that a transport decorator and
/// the code driving it can record into the same tracer; the bench is
/// single-threaded on its own side.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// A recorder that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: RefCell::default(),
        }
    }

    /// Start the next operation and return its identifier.
    pub fn next_op(&self) -> u32 {
        let mut st = self.state.borrow_mut();
        st.op += 1;
        st.op
    }

    /// Open a span under the innermost open one.
    pub fn enter(&self, layer: &'static str, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut st = self.state.borrow_mut();
        let id = st.spans.len() as u32;
        let span = Span {
            layer,
            name,
            start_ns: now,
            end_ns: now,
            parent: st.open.last().copied(),
            op: st.op,
        };
        st.spans.push(span);
        st.open.push(id);
        Some(id)
    }

    /// Close a span opened by [`Tracer::enter`]. Spans close innermost first.
    pub fn exit(&self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut st = self.state.borrow_mut();
        let popped = st.open.pop();
        assert_eq!(popped, Some(id), "spans close innermost first");
        st.spans[id as usize].end_ns = now;
    }

    /// Record `f` as a leaf span.
    pub fn time<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(layer, name);
        let r = f();
        self.exit(id);
        r
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }
}

/// Durations (ns) of the spans named `name` whose operation passes `keep`.
pub fn durations(spans: &[Span], name: &str, keep: impl Fn(u32) -> bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s.op))
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// A span's duration minus the part its direct children cover.
pub fn self_ns(spans: &[Span], id: u32) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::dur_ns)
        .sum();
    spans[id as usize].dur_ns().saturating_sub(children)
}

/// A span list as Chrome trace JSON (`chrome://tracing`, Perfetto).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"op\":{}}}}}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op
        ));
    }
    out.push_str("]}");
    out
}

/// Sub-buckets per power of two: 16 gives every bucket a width of at most
/// 1/16 of its lower bound, so a reported percentile is within ~6 %.
const SUB: u32 = 16;

/// Log-bucket histogram of `u64` samples. Recording is an index computation
/// and one add; the maximum and the sum are exact.
#[derive(Debug, Clone)]
pub struct LogHist {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            buckets: vec![0; (64 * SUB) as usize],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHist {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB.trailing_zeros();
        let sub = (v >> shift) as u32 - SUB;
        ((shift + 1) * SUB + sub) as usize
    }

    /// Smallest value that lands in bucket `idx`.
    fn lower_bound(idx: usize) -> u64 {
        let idx = idx as u32;
        if idx < SUB {
            return idx as u64;
        }
        let shift = idx / SUB - 1;
        let sub = idx % SUB;
        ((SUB + sub) as u64) << shift
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of the samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Lower bound of the bucket holding the `q`-quantile (0.0–1.0) sample,
    /// by nearest rank; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut seen = 0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return Self::lower_bound(idx);
            }
        }
        self.max
    }
}

/// Median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            layer: "t",
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100, children 10..30 and 40..90, grandchild 50..60.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 40, 90),
            span(Some(2), 50, 60),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 20 - 50);
        assert_eq!(self_ns(&spans, 1), 20);
        assert_eq!(self_ns(&spans, 2), 50 - 10);
        assert_eq!(self_ns(&spans, 3), 10);
        // Self times of a tree add up to the root's duration.
        let total: u64 = (0..4).map(|i| self_ns(&spans, i)).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn enter_exit_nest_and_disabled_records_nothing() {
        let t = Tracer::new(true);
        t.next_op();
        let a = t.enter("x", "outer");
        let b = t.enter("y", "inner");
        t.exit(b);
        t.exit(a);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, 1);
        assert!(spans[0].dur_ns() >= spans[1].dur_ns());
        assert!(chrome_json(&spans).contains("\"name\":\"inner\""));

        let off = Tracer::new(false);
        let id = off.enter("x", "outer");
        off.exit(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn log_hist_percentiles_and_exact_extremes() {
        let mut h = LogHist::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        // Bucket lower bounds: within 1/16 below the exact percentile.
        for (q, exact) in [(0.5, 500.0), (0.99, 990.0), (0.999, 999.0)] {
            let got = h.quantile(q) as f64;
            assert!(
                got <= exact + 1.0 && got >= exact * (1.0 - 1.0 / 16.0) - 1.0,
                "q{q}: {got} vs {exact}"
            );
        }
        // Small values are exact.
        let mut small = LogHist::default();
        for v in [0, 3, 3, 7, 15] {
            small.record(v);
        }
        assert_eq!(small.quantile(0.5), 3);
        assert_eq!(small.quantile(1.0), 15);
        assert_eq!(LogHist::default().quantile(0.5), 0);
    }

    #[test]
    fn log_hist_index_and_bound_agree() {
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1023,
            1024,
            1 << 40,
            u64::MAX,
        ] {
            let idx = LogHist::index(v);
            let lo = LogHist::lower_bound(idx);
            assert!(lo <= v, "{v}: bound {lo}");
            assert_eq!(LogHist::index(lo), idx, "{v}: bound maps back");
        }
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
