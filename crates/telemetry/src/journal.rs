//! The bounded event journal: a ring buffer with drop-counting and a
//! JSON-lines exporter.
//!
//! Recording never blocks the simulation on I/O and never grows without
//! bound: when the ring is full the **oldest** record is evicted and the
//! drop counter incremented, so a long run keeps the most recent window —
//! the part an operator debugging a stuck migration actually wants.

use crate::event::Event;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bounded, thread-safe event sink.
#[derive(Debug)]
pub struct Journal {
    capacity: usize,
    inner: Mutex<Inner>,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    ring: VecDeque<Event>,
    /// While a [`Journal::capture`] is running, events land here instead of
    /// in the ring.
    captured: Option<Vec<Event>>,
}

impl Journal {
    /// A journal retaining at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Journal {
            capacity,
            inner: Mutex::new(Inner {
                ring: VecDeque::with_capacity(capacity.min(1024)),
                captured: None,
            }),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Append an event, evicting the oldest record if the ring is full.
    pub fn record(&self, event: Event) {
        let mut inner = self.inner.lock();
        if let Some(captured) = &mut inner.captured {
            captured.push(event);
            return;
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.ring.push_back(event);
    }

    /// Run `f` with recording diverted: every event recorded meanwhile —
    /// through any handle sharing this journal — is returned instead of
    /// entering the ring, for the caller to [`record`](Self::record) later in
    /// an order of its choosing. The simulator's run loop uses this to
    /// process a window's events grouped by device while still journaling
    /// them in event order. Captures do not nest.
    pub(crate) fn capture<R>(&self, f: impl FnOnce() -> R) -> (R, Vec<Event>) {
        let previous = self.inner.lock().captured.replace(Vec::new());
        debug_assert!(previous.is_none(), "journal captures do not nest");
        let result = f();
        let captured = self.inner.lock().captured.take().unwrap_or_default();
        (result, captured)
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().ring.is_empty()
    }

    /// Total events ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Write the retained events as JSON lines (one object per line,
    /// oldest first). Returns the number of lines written.
    pub fn export_jsonl(&self, w: &mut impl Write) -> io::Result<usize> {
        write_jsonl(&self.snapshot(), w)
    }
}

/// Write `events` as JSON lines, one object per event in slice order — the
/// journal's export format, for the journal itself or any filtered view of
/// it. Returns the number of lines written; no events write zero bytes.
pub fn write_jsonl(events: &[Event], w: &mut impl Write) -> io::Result<usize> {
    for ev in events {
        let line = serde_json::to_string(ev)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(w, "{line}")?;
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Severity};

    fn ev(t: u64) -> Event {
        Event::new(EventKind::SessionTransition, Severity::Info, t).field("n", t)
    }

    #[test]
    fn retains_in_order_below_capacity() {
        let j = Journal::new(8);
        for t in 0..5 {
            j.record(ev(t));
        }
        assert_eq!(j.len(), 5);
        assert_eq!(j.dropped(), 0);
        assert_eq!(j.recorded(), 5);
        let times: Vec<u64> = j.snapshot().iter().map(|e| e.time_us).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overflow_evicts_oldest_and_counts_drops() {
        let j = Journal::new(3);
        for t in 0..10 {
            j.record(ev(t));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 7);
        assert_eq!(j.recorded(), 10);
        let times: Vec<u64> = j.snapshot().iter().map(|e| e.time_us).collect();
        assert_eq!(times, vec![7, 8, 9], "most recent window survives");
    }

    #[test]
    fn capture_diverts_records_until_replayed() {
        let j = Journal::new(8);
        j.record(ev(1));
        let (value, held) = j.capture(|| {
            j.record(ev(3));
            j.record(ev(4));
            7
        });
        assert_eq!(value, 7);
        assert_eq!((j.len(), j.recorded()), (1, 1), "captured, not recorded");
        j.record(ev(2));
        for e in held {
            j.record(e);
        }
        let times: Vec<u64> = j.snapshot().iter().map(|e| e.time_us).collect();
        assert_eq!(times, vec![1, 2, 3, 4]);
        assert_eq!(j.recorded(), 4);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let j = Journal::new(0);
        j.record(ev(1));
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn jsonl_export_is_one_valid_object_per_line() {
        let j = Journal::new(4);
        j.record(ev(1));
        j.record(ev(2));
        let mut buf = Vec::new();
        let n = j.export_jsonl(&mut buf).unwrap();
        assert_eq!(n, 2);
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v: serde::Value = serde_json::from_str(line).unwrap();
            assert!(v.get("kind").is_some());
        }
    }

    #[test]
    fn a_filtered_view_exports_through_write_jsonl() {
        let j = Journal::new(8);
        j.record(ev(1));
        j.record(Event::new(EventKind::FibDelta, Severity::Debug, 2).field("detail", "none -> d1"));
        let view: Vec<Event> = j
            .snapshot()
            .into_iter()
            .filter(|e| e.kind.is_provenance())
            .collect();
        let mut buf = Vec::new();
        assert_eq!(write_jsonl(&view, &mut buf).unwrap(), 1);
        let line = String::from_utf8(buf).unwrap();
        assert!(line.contains("\"kind\":\"FibDelta\""), "{line}");
        let mut empty = Vec::new();
        assert_eq!(write_jsonl(&[], &mut empty).unwrap(), 0);
        assert!(empty.is_empty(), "an empty view writes zero bytes");
    }
}
