//! Structured telemetry for the Centralium reproduction.
//!
//! Three instruments behind one cheap-to-clone [`Telemetry`] handle:
//!
//! - an **event journal** ([`Journal`]) — the handle's sim-time event
//!   stream: timestamped, severity-tagged records with typed fields drawn
//!   from a fixed taxonomy ([`EventKind`]), retained in a bounded ring with
//!   drop-counting and exportable as JSON lines ([`write_jsonl`]);
//! - a **metrics registry** ([`MetricsRegistry`]) — named counters, gauges,
//!   fixed-bucket histograms and scale-free lock-free [`LogHistogram`]s
//!   (event latencies, window job counts, batch sizes) with atomic updates,
//!   plus [`MetricsRegistry::snapshot`]/[`MetricsSnapshot::diff`] for
//!   isolating an experiment window;
//! - a **span stream** ([`span`]) — hierarchical wall-clock spans with
//!   Chrome Trace Event export ([`span::export_chrome_trace`]). The
//!   deployment pipeline's stages (plan → preverify → wave N → health) are
//!   always-recorded [`Telemetry::phase`] spans carrying their simulated
//!   duration; every other span is runtime-gated by
//!   [`Telemetry::set_tracing`].
//!
//! Route provenance is a view of the journal: while the simulator traces a
//! prefix, each UPDATE arrival, Adj-RIB-In change, decision flip and FIB
//! delta for it is a journal event, and the kinds for which
//! [`EventKind::is_provenance`] holds — those five plus `RpaInstall` — are
//! the prefix's causal chain.
//!
//! # Cost model
//!
//! Metrics are always live: a cached [`Counter`] update is one relaxed
//! atomic add, the same cost class as the ad-hoc `u64` trace counters it
//! replaced. The journal is **opt-in**: [`Telemetry::new`] leaves it
//! disabled and every emission site guards on
//! [`Telemetry::journal_enabled`], so the disabled path costs one
//! `Option` check and builds no event. Span tracing is **runtime-gated**
//! per handle: instrumented sites pay one relaxed atomic load plus a branch
//! while it is off, and arming one handle leaves every other handle in the
//! process untraced. Recording into the journal never changes how the
//! simulator schedules events.

#![warn(unreachable_pub)]

mod event;
mod histogram;
mod journal;
mod metrics;
pub mod span;

pub use event::{Event, EventKind, FieldValue, Severity};
pub use histogram::{LogHistogram, LogHistogramSnapshot, LOG_BUCKETS};
pub use journal::{write_jsonl, Journal};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};

use parking_lot::Mutex;
use span::{Phase, Span, SpanRecord, SpanSink};
use std::any::Any;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// The shared telemetry handle. Cloning is cheap (five `Arc`s) and every
/// clone feeds the same journal, registry, and span stream, so one handle
/// created next to the simulator can be propagated to every device daemon
/// and the controller.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Simulated time in microseconds, advanced by the simulator's event
    /// loop so emitters stamp events without holding a `SimNet` borrow.
    clock: Arc<AtomicU64>,
    metrics: Arc<MetricsRegistry>,
    journal: Option<Arc<Journal>>,
    spans: Arc<SpanSink>,
    /// Instrument sets handed out by [`Telemetry::shared`], one per type,
    /// held weakly: a set lives as long as its last holder.
    shared: Arc<Mutex<Vec<Weak<dyn Any + Send + Sync>>>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Metrics and phase spans live, journal disabled (the zero-cost
    /// event sink), span tracing off.
    pub fn new() -> Self {
        Telemetry {
            clock: Arc::new(AtomicU64::new(0)),
            metrics: Arc::new(MetricsRegistry::new()),
            journal: None,
            spans: Arc::new(SpanSink::new()),
            shared: Arc::default(),
        }
    }

    /// Everything live, with an event journal retaining at most
    /// `capacity` records.
    pub fn with_journal(capacity: usize) -> Self {
        Telemetry {
            journal: Some(Arc::new(Journal::new(capacity))),
            ..Telemetry::new()
        }
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The instrument set of type `T` for this handle: built by `bind` at the
    /// first request, then the same allocation for every emitter that asks
    /// while one still holds it. A fabric's devices share one set of cached
    /// handles this way instead of each boxing its own.
    pub fn shared<T: Any + Send + Sync>(&self, bind: impl FnOnce(&Telemetry) -> T) -> Arc<T> {
        let mut sets = self.shared.lock();
        sets.retain(|set| set.strong_count() > 0);
        if let Some(set) = sets.iter().find_map(|set| set.upgrade()?.downcast().ok()) {
            return set;
        }
        let set = Arc::new(bind(self));
        let weak: Weak<dyn Any + Send + Sync> = Arc::downgrade(&set) as _;
        sets.push(weak);
        set
    }

    /// The journal, when enabled.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_deref()
    }

    /// Whether event emission reaches a journal. Hot paths check this
    /// before building an [`Event`].
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Arm or disarm span tracing on this handle and every clone of it.
    pub fn set_tracing(&self, on: bool) {
        self.spans.set_enabled(on);
    }

    /// Whether spans are being recorded. Hot paths may gate auxiliary
    /// measurements (e.g. per-event latency histograms) behind it.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.spans.enabled()
    }

    /// Open a span. The returned guard records on drop; while tracing is
    /// off the guard is inert and the call costs one atomic load.
    #[inline]
    pub fn span(&self, cat: &'static str, name: &'static str) -> Span {
        if !self.tracing() {
            return Span::inert();
        }
        Span::open(&self.spans, cat, Cow::Borrowed(name))
    }

    /// Open a deployment pipeline stage, recorded under
    /// `span::PHASE_CAT` whether or not tracing is on. `sim_now_us` is
    /// the simulated clock at stage entry; [`Phase::finish`] closes it.
    pub fn phase(&self, label: impl Into<Cow<'static, str>>, sim_now_us: u64) -> Phase {
        Phase {
            span: Span::open(&self.spans, span::PHASE_CAT, label.into()),
            sim_start: sim_now_us,
        }
    }

    /// Every span recorded so far, sorted by start time.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.records()
    }

    /// Spans discarded because the stream hit its capacity bound.
    pub fn dropped_spans(&self) -> u64 {
        self.spans.dropped()
    }

    /// Advance the simulated clock (called by the simulator's event loop).
    pub fn set_now(&self, sim_us: u64) {
        self.clock.store(sim_us, Ordering::Relaxed);
    }

    /// Current simulated time in microseconds.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Start building an event stamped with the current simulated time.
    /// The builder is returned so call sites attach fields, then pass it to
    /// [`Telemetry::record`]. Call only after checking
    /// [`Telemetry::journal_enabled`].
    pub fn event(&self, kind: EventKind, severity: Severity) -> Event {
        Event::new(kind, severity, self.now())
    }

    /// Record a fully built event, if the journal is enabled.
    pub fn record(&self, event: Event) {
        if let Some(j) = &self.journal {
            j.record(event);
        }
    }

    /// Run `f`, returning the events it recorded instead of journaling them
    /// (see `Journal::capture`); with the journal disabled, just run `f`.
    pub fn capture<R>(&self, f: impl FnOnce() -> R) -> (R, Vec<Event>) {
        match &self.journal {
            Some(j) => j.capture(f),
            None => (f(), Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_handle_has_no_journal() {
        let t = Telemetry::new();
        assert!(!t.journal_enabled());
        t.record(t.event(EventKind::HealthCheck, Severity::Info)); // silently dropped
        assert!(t.journal().is_none());
    }

    #[test]
    fn clones_share_all_sinks() {
        let t = Telemetry::with_journal(16);
        let c = t.clone();
        c.set_now(99);
        c.metrics().counter("x").inc();
        c.record(
            c.event(EventKind::SessionTransition, Severity::Info)
                .field("d", 1u64),
        );
        assert_eq!(t.now(), 99);
        assert_eq!(t.metrics().snapshot().counter("x"), 1);
        let events = t.journal().unwrap().snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].time_us, 99);
        assert_eq!(events[0].kind, EventKind::SessionTransition);
    }

    #[test]
    fn shared_sets_are_one_allocation_per_type_while_held() {
        let t = Telemetry::new();
        let a = t.shared(|t| t.metrics().counter("x"));
        let b = t
            .clone()
            .shared(|_| -> Counter { unreachable!("already bound") });
        assert!(Arc::ptr_eq(&a, &b));
        let other = t.shared(|_| 7u32);
        assert_eq!(*other, 7);
        drop((a, b));
        let fresh = t.shared(|_| Counter::default());
        fresh.inc();
        assert_eq!(
            t.metrics().snapshot().counter("x"),
            0,
            "rebound once dropped"
        );
    }

    #[test]
    fn events_are_stamped_with_sim_time() {
        let t = Telemetry::with_journal(4);
        t.set_now(1_000);
        t.record(t.event(EventKind::FaultInjected, Severity::Warn));
        t.set_now(2_000);
        t.record(t.event(EventKind::FaultInjected, Severity::Warn));
        let times: Vec<u64> = t
            .journal()
            .unwrap()
            .snapshot()
            .iter()
            .map(|e| e.time_us)
            .collect();
        assert_eq!(times, vec![1_000, 2_000]);
    }
}
