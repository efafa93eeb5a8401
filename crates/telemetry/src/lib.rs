//! Structured telemetry for the Centralium reproduction.
//!
//! Three instruments behind one cheap-to-clone [`Telemetry`] handle:
//!
//! - an **event journal** ([`Journal`]) — timestamped, severity-tagged
//!   records with typed fields drawn from a fixed taxonomy
//!   ([`EventKind`]), retained in a bounded ring with drop-counting and
//!   exportable as JSON lines;
//! - a **metrics registry** ([`MetricsRegistry`]) — named counters, gauges,
//!   and fixed-bucket histograms with atomic updates, plus
//!   [`MetricsRegistry::snapshot`]/[`MetricsSnapshot::diff`] for isolating
//!   an experiment window;
//! - a **phase timer** ([`PhaseTimer`]) — span-like wall/sim timing of the
//!   deployment pipeline (plan → preverify → wave N → health).
//!
//! The profiling layer adds three deeper instruments:
//!
//! - **span tracing** ([`span`]) — hierarchical wall-clock spans with
//!   thread-local buffering and Chrome Trace Event export
//!   ([`span::export_chrome_trace`]), runtime-gated so the disabled path is
//!   one atomic load;
//! - **log-bucket histograms** ([`LogHistogram`], via
//!   [`MetricsRegistry::log_histogram`]) — scale-free lock-free
//!   distributions for hot-path integers (event latencies, window job
//!   counts, batch sizes);
//! - **route provenance** ([`ProvenanceLog`]) — an opt-in per-prefix causal
//!   trace of UPDATE arrivals, RPA installs, RIB changes, decision flips
//!   and FIB deltas, exportable as JSON lines.
//!
//! # Cost model
//!
//! Metrics are always live: a cached [`Counter`] update is one relaxed
//! atomic add, the same cost class as the ad-hoc `u64` trace counters it
//! replaced. The journal is **opt-in**: [`Telemetry::new`] leaves it
//! disabled and every emission site guards on
//! [`Telemetry::journal_enabled`], so the disabled path costs one
//! `Option` check and builds no event. Span tracing is **runtime-gated**
//! ([`span::set_tracing`]): instrumented sites pay one relaxed atomic load
//! plus a branch while it is off. Provenance is opt-in per prefix. Neither
//! the journal nor provenance changes how the simulator schedules events.

mod event;
mod histogram;
mod journal;
mod metrics;
mod phase;
mod provenance;
pub mod span;

pub use event::{Event, EventKind, FieldValue, Severity};
pub use histogram::{LogHistogram, LogHistogramSnapshot, LOG_BUCKETS};
pub use journal::Journal;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use phase::{PhaseRecord, PhaseSpan, PhaseTimer};
pub use provenance::{ProvenanceKind, ProvenanceLog, ProvenanceRecord};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The shared telemetry handle. Cloning is cheap (four `Arc`s) and every
/// clone feeds the same journal, registry, and phase timer, so one handle
/// created next to the simulator can be propagated to every device daemon
/// and the controller.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Simulated time in microseconds, advanced by the simulator's event
    /// loop so emitters stamp events without holding a `SimNet` borrow.
    clock: Arc<AtomicU64>,
    metrics: Arc<MetricsRegistry>,
    journal: Option<Arc<Journal>>,
    phases: Arc<PhaseTimer>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Metrics and phase timing live, journal disabled (the zero-cost
    /// event sink).
    pub fn new() -> Self {
        Telemetry {
            clock: Arc::new(AtomicU64::new(0)),
            metrics: Arc::new(MetricsRegistry::new()),
            journal: None,
            phases: Arc::new(PhaseTimer::new()),
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

    /// The journal, when enabled.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_deref()
    }

    /// Whether event emission reaches a journal. Hot paths check this
    /// before building an [`Event`].
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// The deployment phase timer.
    pub fn phases(&self) -> &PhaseTimer {
        &self.phases
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
    /// (see [`Journal::capture`]); with the journal disabled, just run `f`.
    pub fn capture<R>(&self, f: impl FnOnce() -> R) -> (R, Vec<Event>) {
        match &self.journal {
            Some(j) => j.capture(f),
            None => (f(), Vec::new()),
        }
    }

    /// Build-and-record in one call for sites with no fields to attach.
    pub fn emit(&self, kind: EventKind, severity: Severity) {
        if self.journal.is_some() {
            self.record(self.event(kind, severity));
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
        t.emit(EventKind::HealthCheck, Severity::Info); // silently dropped
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
    fn events_are_stamped_with_sim_time() {
        let t = Telemetry::with_journal(4);
        t.set_now(1_000);
        t.emit(EventKind::FaultInjected, Severity::Warn);
        t.set_now(2_000);
        t.emit(EventKind::FaultInjected, Severity::Warn);
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
