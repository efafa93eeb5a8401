//! Hierarchical span tracing with Chrome Trace Event export.
//!
//! The tracer is **compiled in but runtime-gated**: every instrumentation
//! site calls [`span`], which checks one process-global atomic and returns
//! an inert guard when tracing is off — the disabled path is a branch plus
//! a relaxed atomic load, no allocation, no clock read. When tracing is on
//! (via [`set_tracing`]), each guard stamps a monotonic start time on
//! construction and appends a completed [`SpanRecord`] to a **thread-local
//! buffer** on drop; buffers flush to a process-global sink in batches, so
//! a thread records spans without taking a shared lock per span. A thread
//! other than the one that drains must call [`flush_thread`] before it ends:
//! whoever joins it may run before its thread-local destructor does.
//!
//! The sink is process-global rather than per-[`Telemetry`](crate::Telemetry)
//! handle because threading a handle through every call frame would cost
//! more than the measurement itself.
//!
//! [`export_chrome_trace`] renders the drained records in Chrome Trace
//! Event Format (an object with a `traceEvents` array of complete `"X"`
//! events), loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).

use parking_lot::Mutex;
use serde::Value;
use std::borrow::Cow;
use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Runtime gate. All spans in the process observe this flag.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Completed spans, flushed from thread-local buffers.
static SINK: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// Spans discarded because the sink was at capacity.
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Monotonic thread-id allocator (Chrome traces want small integer tids).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Sink capacity: a runaway tracing session degrades to dropping spans
/// instead of eating the heap. 4M records ≈ a few hundred MB of JSON,
/// far beyond any report a human will open.
const SINK_CAP: usize = 4_000_000;

/// Thread-local flush threshold.
const FLUSH_AT: usize = 512;

/// The process-wide monotonic epoch all span timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name. Hot-path guards pass `&'static str` (no allocation);
    /// low-rate call sites with computed labels (pipeline waves) pass an
    /// owned string via [`span_owned`].
    pub name: Cow<'static, str>,
    /// Category, used by trace viewers to group/filter tracks.
    pub cat: &'static str,
    /// Start, in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small integer id of the recording thread.
    pub tid: u64,
    /// Optional numeric arguments (shown in the viewer's detail pane).
    pub args: Vec<(&'static str, u64)>,
}

struct ThreadBuf {
    tid: u64,
    buf: Vec<SpanRecord>,
}

impl ThreadBuf {
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut sink = SINK.lock();
        let room = SINK_CAP.saturating_sub(sink.len());
        if room < self.buf.len() {
            DROPPED.fetch_add((self.buf.len() - room) as u64, Ordering::Relaxed);
            self.buf.truncate(room);
        }
        sink.append(&mut self.buf);
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        buf: Vec::new(),
    });
}

/// Turn span recording on or off. Enabling also pins the trace epoch so the
/// first span does not pay the `OnceLock` initialization inside a guard.
pub fn set_tracing(on: bool) {
    if on {
        epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently being recorded. Hot paths may use this to
/// gate auxiliary measurements (e.g. per-event latency histograms) behind
/// the same switch.
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Spans discarded because the sink hit its capacity bound.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Open a span. The returned guard records on drop; when tracing is
/// disabled the guard is inert and the call costs one atomic load.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !tracing_enabled() {
        return Span { open: None };
    }
    Span {
        open: Some(OpenSpan {
            name: Cow::Borrowed(name),
            cat,
            started: Instant::now(),
            args: Vec::new(),
        }),
    }
}

/// [`span`] for low-rate call sites whose label is computed at runtime
/// (e.g. `"wave 1 (fsw)"`). The name is only materialized when tracing is
/// enabled, so the disabled path still allocates nothing when callers pass
/// a borrowed form.
#[inline]
pub fn span_owned(cat: &'static str, name: impl Into<Cow<'static, str>>) -> Span {
    if !tracing_enabled() {
        return Span { open: None };
    }
    Span {
        open: Some(OpenSpan {
            name: name.into(),
            cat,
            started: Instant::now(),
            args: Vec::new(),
        }),
    }
}

struct OpenSpan {
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
        let start_ns = open.started.duration_since(epoch()).as_nanos() as u64;
        let dur_ns = end.duration_since(open.started).as_nanos() as u64;
        LOCAL.with(|cell| {
            let mut local = cell.borrow_mut();
            let tid = local.tid;
            local.buf.push(SpanRecord {
                name: open.name,
                cat: open.cat,
                start_ns,
                dur_ns,
                tid,
                args: open.args,
            });
            if local.buf.len() >= FLUSH_AT {
                local.flush();
            }
        });
    }
}

/// Hand the calling thread's buffered spans to the sink. Call it last in the
/// body of any spawned thread that records spans.
pub fn flush_thread() {
    LOCAL.with(|cell| cell.borrow_mut().flush());
}

/// Drain every record flushed so far (plus the calling thread's buffer),
/// oldest first. Another still-live thread that has recorded fewer than the
/// flush threshold keeps its tail until it calls [`flush_thread`] or records
/// more.
pub fn drain() -> Vec<SpanRecord> {
    flush_thread();
    let mut records = std::mem::take(&mut *SINK.lock());
    records.sort_by_key(|r| (r.start_ns, r.tid));
    records
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

    /// Span tests share process-global state; serialize them.
    fn lock() -> parking_lot::MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        TEST_LOCK.lock()
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = lock();
        set_tracing(false);
        drain();
        {
            let mut s = span("test", "noop");
            s.arg("x", 1);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn enabled_spans_record_name_args_and_nesting() {
        let _g = lock();
        set_tracing(true);
        drain();
        {
            let mut outer = span("test", "outer");
            outer.arg("jobs", 3);
            let _inner = span("test", "inner");
        }
        set_tracing(false);
        // Filter to this test's category: other tests in the binary (e.g.
        // phase-timer tests) may legitimately record spans while tracing is
        // on, and they do not serialize on the span-test lock.
        let records: Vec<_> = drain().into_iter().filter(|r| r.cat == "test").collect();
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
    fn worker_thread_spans_reach_the_sink_when_flushed() {
        let _g = lock();
        set_tracing(true);
        drain();
        let main_tid = LOCAL.with(|c| c.borrow().tid);
        std::thread::scope(|s| {
            s.spawn(|| {
                drop(span("test", "worker_span"));
                flush_thread();
            });
        });
        set_tracing(false);
        let records = drain();
        let worker = records.iter().find(|r| r.name == "worker_span").unwrap();
        assert_ne!(worker.tid, main_tid, "worker gets its own tid");
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
