//! Hierarchical span tracing with Chrome Trace Event export.
//!
//! Spans belong to a [`Telemetry`](crate::Telemetry) handle: every clone of
//! the handle feeds one sink, and two handles never see each other's spans,
//! so tracing one fabric leaves every other fabric in the process untraced.
//!
//! The stream carries two kinds of span:
//!
//! - **traced spans** ([`Telemetry::span`](crate::Telemetry::span)) are
//!   runtime-gated by [`Telemetry::set_tracing`](crate::Telemetry::set_tracing):
//!   while tracing is off the guard is inert and the call costs one relaxed
//!   atomic load, no allocation and no clock read;
//! - **pipeline phases** ([`Telemetry::phase`](crate::Telemetry::phase),
//!   category `PHASE_CAT`) always record. [`Phase::finish`] stamps the
//!   stage's simulated duration as the `sim_us` argument; a phase dropped
//!   without it (an error path) still lands in the trace but carries no
//!   `sim_us`, so [`SpanRecord::phase_sim_us`] and every phase table skip it.
//!
//! A closed span is appended to the sink under its lock; the sink assigns
//! each recording thread a small integer id in first-seen order. Timestamps
//! are relative to the handle's creation.
//!
//! [`export_chrome_trace`] renders records in Chrome Trace Event Format (an
//! object with a `traceEvents` array of complete `"X"` events), loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).

use parking_lot::Mutex;
use serde::Value;
use std::borrow::Cow;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

/// Category of the controller's pipeline phases.
pub(crate) const PHASE_CAT: &str = "core.phase";

/// Sink capacity: a runaway tracing session degrades to dropping spans
/// instead of eating the heap. 4M records ≈ a few hundred MB of JSON,
/// far beyond any report a human will open.
const SINK_CAP: usize = 4_000_000;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name. Hot-path guards pass `&'static str` (no allocation);
    /// pipeline phases carry computed labels such as `"wave 1 (Fsw)"`.
    pub name: Cow<'static, str>,
    /// Category, used by trace viewers to group/filter tracks.
    pub cat: &'static str,
    /// Start, in nanoseconds since the handle was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small integer id of the recording thread.
    pub tid: u64,
    /// Optional numeric arguments (shown in the viewer's detail pane).
    pub args: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// The simulated duration of a finished pipeline phase; `None` for any
    /// other span, an abandoned phase included.
    pub fn phase_sim_us(&self) -> Option<u64> {
        if self.cat != PHASE_CAT {
            return None;
        }
        self.args
            .iter()
            .find(|(k, _)| *k == "sim_us")
            .map(|&(_, v)| v)
    }
}

/// The span stream behind one [`Telemetry`](crate::Telemetry) handle.
#[derive(Debug)]
pub(crate) struct SpanSink {
    enabled: AtomicBool,
    epoch: Instant,
    dropped: AtomicU64,
    state: Mutex<SinkState>,
}

#[derive(Debug, Default)]
struct SinkState {
    records: Vec<SpanRecord>,
    /// Recording threads in first-seen order: a record's `tid` is its
    /// thread's position here plus one.
    threads: Vec<ThreadId>,
}

impl SpanSink {
    pub(crate) fn new() -> Self {
        SpanSink {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            dropped: AtomicU64::new(0),
            state: Mutex::new(SinkState::default()),
        }
    }

    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Every record so far, sorted by start time.
    pub(crate) fn records(&self) -> Vec<SpanRecord> {
        let mut records = self.state.lock().records.clone();
        records.sort_by_key(|r| (r.start_ns, r.tid));
        records
    }

    /// Append `record`, stamping its thread id; drop it at capacity.
    fn push(&self, mut record: SpanRecord) {
        let thread = std::thread::current().id();
        let mut state = self.state.lock();
        if state.records.len() >= SINK_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let index = match state.threads.iter().position(|&t| t == thread) {
            Some(i) => i,
            None => {
                state.threads.push(thread);
                state.threads.len() - 1
            }
        };
        record.tid = index as u64 + 1;
        state.records.push(record);
    }
}

struct OpenSpan {
    sink: Arc<SpanSink>,
    name: Cow<'static, str>,
    cat: &'static str,
    started: Instant,
    args: Vec<(&'static str, u64)>,
}

/// An in-flight span (RAII). Dropping it records the elapsed time.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    open: Option<OpenSpan>,
}

impl Span {
    /// A guard that records nothing.
    #[inline]
    pub(crate) fn inert() -> Self {
        Span { open: None }
    }

    /// A live guard recording into `sink` when dropped.
    pub(crate) fn open(sink: &Arc<SpanSink>, cat: &'static str, name: Cow<'static, str>) -> Self {
        Span {
            open: Some(OpenSpan {
                sink: Arc::clone(sink),
                name,
                cat,
                started: Instant::now(),
                args: Vec::new(),
            }),
        }
    }

    /// Attach a numeric argument, shown in the trace viewer. A no-op on an
    /// inert (tracing-disabled) guard.
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if let Some(open) = &mut self.open {
            open.args.push((key, value));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        let OpenSpan {
            sink,
            name,
            cat,
            started,
            args,
        } = open;
        sink.push(SpanRecord {
            name,
            cat,
            start_ns: started.duration_since(sink.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(started).as_nanos() as u64,
            tid: 0,
            args,
        });
    }
}

/// An open pipeline stage, recorded whether or not tracing is on. Close it
/// with [`Phase::finish`]; dropped unfinished, its span carries no `sim_us`
/// and phase tables leave it out.
#[must_use = "call finish() when the stage completes"]
pub struct Phase {
    pub(crate) span: Span,
    pub(crate) sim_start: u64,
}

impl Phase {
    /// Close the stage. `sim_now_us` is the simulated clock at stage exit.
    pub fn finish(mut self, sim_now_us: u64) {
        self.span
            .arg("sim_us", sim_now_us.saturating_sub(self.sim_start));
    }
}

/// Render records in Chrome Trace Event Format: a JSON object whose
/// `traceEvents` array holds one complete (`"ph": "X"`) event per span,
/// timestamps in fractional microseconds. The output loads directly in
/// `chrome://tracing` and Perfetto.
pub fn export_chrome_trace(records: &[SpanRecord], w: &mut impl Write) -> io::Result<()> {
    let events: Vec<Value> = records.iter().map(record_to_event).collect();
    let mut doc = serde::Map::new();
    doc.insert("traceEvents".to_string(), Value::Array(events));
    doc.insert("displayTimeUnit".to_string(), Value::Str("ms".to_string()));
    let text = serde_json::to_string(&Value::Object(doc))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    w.write_all(text.as_bytes())
}

fn record_to_event(r: &SpanRecord) -> Value {
    let mut ev = serde::Map::new();
    ev.insert("name".to_string(), Value::Str(r.name.to_string()));
    ev.insert("cat".to_string(), Value::Str(r.cat.to_string()));
    ev.insert("ph".to_string(), Value::Str("X".to_string()));
    ev.insert("ts".to_string(), Value::Float(r.start_ns as f64 / 1_000.0));
    ev.insert("dur".to_string(), Value::Float(r.dur_ns as f64 / 1_000.0));
    ev.insert("pid".to_string(), Value::Int(1));
    ev.insert("tid".to_string(), Value::Int(r.tid as i128));
    let mut args = serde::Map::new();
    for (k, v) in &r.args {
        args.insert((*k).to_string(), Value::Int(*v as i128));
    }
    ev.insert("args".to_string(), Value::Object(args));
    Value::Object(ev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn disabled_spans_record_nothing() {
        let t = Telemetry::new();
        {
            let mut s = t.span("test", "noop");
            s.arg("x", 1);
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_spans_record_name_args_and_nesting() {
        let t = Telemetry::new();
        t.set_tracing(true);
        {
            let mut outer = t.span("test", "outer");
            outer.arg("jobs", 3);
            let _inner = t.span("test", "inner");
        }
        t.set_tracing(false);
        drop(t.span("test", "after"));
        let records = t.spans();
        assert_eq!(records.len(), 2);
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        let inner = records.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(outer.args, vec![("jobs", 3)]);
        // The inner span nests inside the outer one on the same thread.
        assert_eq!(outer.tid, inner.tid);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn clones_share_one_stream_and_handles_do_not() {
        let t = Telemetry::new();
        let other = Telemetry::new();
        t.clone().set_tracing(true);
        assert!(t.tracing() && !other.tracing());
        drop(t.clone().span("test", "shared"));
        drop(other.span("test", "untraced"));
        assert_eq!(t.spans().len(), 1);
        assert!(other.spans().is_empty());
    }

    #[test]
    fn worker_thread_spans_reach_the_sink_with_their_own_tid() {
        let t = Telemetry::new();
        t.set_tracing(true);
        drop(t.span("test", "main_span"));
        std::thread::scope(|s| {
            s.spawn(|| drop(t.span("test", "worker_span")));
        });
        let records = t.spans();
        let tid = |name: &str| records.iter().find(|r| r.name == name).unwrap().tid;
        assert_eq!(tid("main_span"), 1);
        assert_eq!(tid("worker_span"), 2, "worker gets its own tid");
    }

    #[test]
    fn phases_record_in_execution_order_with_tracing_off() {
        let t = Telemetry::new();
        t.phase("plan", 0).finish(0);
        t.phase(format!("wave {}", 1), 100).finish(350);
        let phases: Vec<_> = t
            .spans()
            .into_iter()
            .map(|r| (r.phase_sim_us(), r.name.into_owned()))
            .collect();
        assert_eq!(
            phases,
            [
                (Some(0), "plan".to_string()),
                (Some(250), "wave 1".to_string())
            ]
        );
    }

    #[test]
    fn abandoned_phase_carries_no_sim_time() {
        let t = Telemetry::new();
        drop(t.phase("never finished", 0));
        let records = t.spans();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].cat, PHASE_CAT);
        assert_eq!(records[0].phase_sim_us(), None);
    }

    #[test]
    fn sim_clock_regression_saturates() {
        let t = Telemetry::new();
        t.phase("odd", 500).finish(100);
        assert_eq!(t.spans()[0].phase_sim_us(), Some(0));
    }

    #[test]
    fn chrome_export_shape() {
        let records = vec![SpanRecord {
            name: Cow::Borrowed("phase"),
            cat: "simnet",
            start_ns: 1_500,
            dur_ns: 2_000,
            tid: 7,
            args: vec![("events", 42)],
        }];
        let mut buf = Vec::new();
        export_chrome_trace(&records, &mut buf).unwrap();
        let v: Value = serde_json::from_str(std::str::from_utf8(&buf).unwrap()).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(ev.get("name").unwrap().as_str(), Some("phase"));
        assert_eq!(ev.get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(ev.get("dur").unwrap().as_f64(), Some(2.0));
        assert_eq!(
            ev.get("args").unwrap().get("events").unwrap().as_i64(),
            Some(42)
        );
    }
}
