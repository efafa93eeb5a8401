//! Simulated time and the deterministic event queue.
//!
//! The queue is a binary heap keyed by `(time, seq)`: ties on time break by
//! insertion sequence, so a run pops in exactly the same total order on
//! every host and under every window size — runs are compared byte for byte.
//! An entry is the two keys and the event itself, so the queue costs what
//! its pending events carry (DESIGN §13).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulated time in microseconds since simulation start.
pub type SimTime = u64;

/// The bound on sim time: a run's deadline and an RPA's. `SimNet` schedules
/// every event at `now + offset`, unchecked; its largest offsets (an RPC's
/// latency plus chaos delay, a batch's `3L` plus jitter) are microseconds to
/// seconds. Half the clock's range leaves 2^63 µs (about 292,000 years)
/// above any clock this admits, so none of those sums can overflow. A
/// saturating add would not do: an event at `SimTime::MAX` opens a window
/// that admits nothing, and the run loop would spin.
pub const MAX_DEADLINE: SimTime = SimTime::MAX / 2;

/// A deterministic priority queue of timed events.
///
/// Ties on time are broken by insertion sequence, so runs are reproducible.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Pending<T>>,
    next_seq: u64,
    /// Largest pending-event count ever observed (memory accounting).
    high_water: usize,
}

/// One queued event and its key.
#[derive(Debug)]
struct Pending<T> {
    at: SimTime,
    seq: u64,
    event: T,
}

impl<T> Ord for Pending<T> {
    /// Reversed, so the max-heap's top is the earliest `(time, seq)`.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<T> Eq for Pending<T> {}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Empty queue.
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            high_water: 0,
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, event: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Pending { at, seq, event });
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Pop the earliest event, returning `(time, event)`.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|p| (p.at, p.event))
    }

    /// Time of the next event without removing it.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|p| p.at)
    }

    /// The next event without removing it, as `(time, &event)`, for tests
    /// that watch the schedule while they step it.
    #[cfg(test)]
    pub(crate) fn peek(&self) -> Option<(SimTime, &T)> {
        self.heap.peek().map(|p| (p.at, &p.event))
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Largest pending-event count the queue has ever held — the depth a
    /// capacity plan must provision for.
    pub(crate) fn high_water_mark(&self) -> usize {
        self.high_water
    }

    /// Hand back the capacity the pending events no longer need.
    pub(crate) fn shrink(&mut self) {
        self.heap.shrink_to_fit();
    }

    /// Bytes the scheduler currently holds, counted at *capacity*, not
    /// occupancy: what the process actually pays, which is what the memory
    /// gauges must report.
    pub(crate) fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.heap.capacity() * std::mem::size_of::<Pending<T>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    /// Interleaved schedules and pops, times colliding: every pop is the
    /// least `(time, seq)` still pending, whatever was scheduled before it.
    #[test]
    fn pops_follow_time_then_sequence() {
        let mut q = EventQueue::new();
        let mut pending: Vec<(SimTime, u64)> = Vec::new();
        for seq in 0..2_000u64 {
            let at = (seq * 7919) % 97;
            q.schedule(at, seq);
            pending.push((at, seq));
            if seq % 3 == 0 {
                let least = *pending.iter().min().unwrap();
                pending.retain(|&e| e != least);
                assert_eq!(q.pop(), Some(least));
            }
        }
        pending.sort_unstable();
        for expect in pending {
            assert_eq!(q.pop(), Some(expect));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn peek_and_len() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(7, ());
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_returns_payload_without_consuming() {
        let mut q = EventQueue::new();
        q.schedule(20, "b");
        q.schedule(10, "a");
        assert_eq!(q.peek(), Some((10, &"a")));
        assert_eq!(q.len(), 2, "peek must not consume");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.peek(), Some((20, &"b")));
        q.pop();
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn high_water_mark_tracks_peak_depth() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water_mark(), 0);
        q.schedule(1, "a");
        q.schedule(2, "b");
        q.pop();
        q.schedule(3, "c");
        // Peak was 2 pending events; the later pop/schedule never exceeded it.
        assert_eq!(q.high_water_mark(), 2);
    }

    /// The footprint is capacity: one entry per slot, growing with pending
    /// events and kept through a drain until `shrink` hands it back.
    #[test]
    fn footprint_counts_capacity_until_shrunk() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let empty = q.footprint_bytes();
        assert_eq!(empty, std::mem::size_of::<EventQueue<u64>>());
        for i in 0..1_000 {
            q.schedule(i, i);
        }
        let full = q.footprint_bytes();
        assert!(full >= empty + 1_000 * std::mem::size_of::<Pending<u64>>());
        while q.pop().is_some() {}
        assert_eq!(q.footprint_bytes(), full, "a drain keeps the capacity");
        q.shrink();
        assert_eq!(q.footprint_bytes(), empty);
        assert_eq!(q.high_water_mark(), 1_000);
    }
}
