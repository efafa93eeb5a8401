//! Simulated time and the deterministic event queue.
//!
//! The queue is a **calendar queue** (Brown, CACM 1988): pending events are
//! spread over an array of time buckets of fixed `width`, bucket *i* holding
//! every event whose year-slot `(time / width) % nbuckets` equals *i*. A pop
//! walks the calendar from the current bucket, taking the first bucket head
//! that falls inside that bucket's current-year window; an insert binary
//! searches one bucket. With the bucket count sized to the pending-event
//! population both operations are O(1) amortized, where the previous
//! `BinaryHeap` paid O(log n) per operation and one cache miss per level at
//! the multi-million-event depths a 10k-device fabric produces.
//!
//! Determinism is load-bearing: runs are compared byte for byte across
//! window widths, so the queue must pop in **exactly** `(time, seq)` order —
//! the same total order the heap produced. Three properties keep that true:
//!
//! * events with equal times share a bucket (same slot), where they are kept
//!   sorted by sequence number — and since sequence numbers are globally
//!   monotonic, a same-time insert always lands at the end of its equal-time
//!   run, making the mass-scheduling case an append, not a memmove;
//! * the calendar walk visits (bucket, year) cells in strictly increasing
//!   time-window order, so the first in-window head it finds is the global
//!   minimum; when a full lap finds nothing (a gap in the schedule), a direct
//!   scan of the bucket heads — each the minimum of its bucket — locates the
//!   true minimum and the walk jumps to its year;
//! * resizing (and the width it picks) is a pure function of the operation
//!   sequence, never of wall time or allocation addresses.

use std::cell::Cell;
use std::collections::VecDeque;

/// Simulated time in microseconds since simulation start.
pub type SimTime = u64;

/// Smallest calendar size; also the initial size.
const MIN_BUCKETS: usize = 16;
/// Largest calendar size (2^20 buckets ≈ 32 MiB of `VecDeque` headers).
const MAX_BUCKETS: usize = 1 << 20;
/// Bucket width before the first resize has sampled the real distribution:
/// one simulated link latency's worth of microseconds.
const INITIAL_WIDTH: SimTime = 64;

/// A deterministic priority queue of timed events.
///
/// Ties on time are broken by insertion sequence, so runs are reproducible
/// regardless of calendar internals.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// `buckets[(t / width) % nbuckets]`, each sorted by `(time, seq)`.
    buckets: Vec<VecDeque<(SimTime, u64, T)>>,
    /// Time span covered by one bucket-year cell.
    width: SimTime,
    /// Pending events across all buckets.
    len: usize,
    next_seq: u64,
    /// Largest pending-event count ever observed (memory accounting).
    high_water: usize,
    /// Calendar walk position: the bucket the next pop examines first…
    cur_bucket: Cell<usize>,
    /// …and the exclusive upper bound of that bucket's current-year window.
    /// `bucket_top - width` is the lower bound below which nothing is
    /// pending (inserts under it rewind the walk). `Cell` so that `peek`
    /// can memoize the walk it shares with `pop` behind a `&self` receiver.
    bucket_top: Cell<SimTime>,
    /// Grow the calendar when `len` exceeds this.
    grow_at: usize,
    /// Shrink the calendar when `len` falls below this.
    shrink_at: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Empty queue.
    pub(crate) fn new() -> Self {
        let mut buckets = Vec::new();
        buckets.resize_with(MIN_BUCKETS, VecDeque::new);
        EventQueue {
            buckets,
            width: INITIAL_WIDTH,
            len: 0,
            next_seq: 0,
            high_water: 0,
            cur_bucket: Cell::new(0),
            bucket_top: Cell::new(INITIAL_WIDTH),
            grow_at: MIN_BUCKETS * 2,
            shrink_at: 0,
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, event: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.len + 1 > self.grow_at {
            self.resize(self.len + 1);
        }
        let idx = self.bucket_of(at);
        let bucket = &mut self.buckets[idx];
        // Sequence numbers are globally monotonic, so within an equal-time
        // run the new entry sorts last: the common mass-scheduling case
        // (thousands of events at one instant) is a pure append.
        let pos = bucket.partition_point(|&(t, s, _)| (t, s) < (at, seq));
        bucket.insert(pos, (at, seq, event));
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        // An insert into the already-swept past rewinds the calendar walk so
        // the next pop starts from the new event's year.
        if at < self.bucket_top.get().saturating_sub(self.width) {
            self.rewind_to(at);
        }
    }

    /// Pop the earliest event, returning `(time, event)`.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, T)> {
        let idx = self.find_next()?;
        let (at, _, event) = self.buckets[idx].pop_front().expect("bucket head exists");
        self.len -= 1;
        if self.len < self.shrink_at {
            self.resize(self.len);
        }
        Some((at, event))
    }

    /// Time of the next event without removing it.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.find_next()
            .map(|idx| self.buckets[idx].front().expect("bucket head exists").0)
    }

    /// The next event without removing it, as `(time, &event)`, for tests
    /// that watch the schedule while they step it.
    #[cfg(test)]
    pub(crate) fn peek(&self) -> Option<(SimTime, &T)> {
        self.find_next().map(|idx| {
            let (at, _, event) = self.buckets[idx].front().expect("bucket head exists");
            (*at, event)
        })
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest pending-event count the queue has ever held — the depth a
    /// capacity plan must provision for.
    pub(crate) fn high_water_mark(&self) -> usize {
        self.high_water
    }

    /// Bytes the scheduler currently holds, counted at *capacity*, not
    /// occupancy: the bucket-header array plus every bucket's allocation.
    /// This is what the process actually pays, which is what the memory
    /// gauges must report.
    pub(crate) fn footprint_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(SimTime, u64, T)>();
        let headers = self.buckets.capacity() * std::mem::size_of::<VecDeque<(SimTime, u64, T)>>();
        let entries: usize = self.buckets.iter().map(|b| b.capacity() * entry).sum();
        std::mem::size_of::<Self>() + headers + entries
    }

    /// The bucket covering time `at` under the current geometry.
    fn bucket_of(&self, at: SimTime) -> usize {
        ((at / self.width) % self.buckets.len() as u64) as usize
    }

    /// Point the calendar walk at the year containing `at`.
    fn rewind_to(&self, at: SimTime) {
        let year = at / self.width;
        self.cur_bucket
            .set((year % self.buckets.len() as u64) as usize);
        self.bucket_top.set((year + 1).saturating_mul(self.width));
    }

    /// Advance the calendar walk to the bucket holding the global-minimum
    /// `(time, seq)` entry and return its index. The walk position persists
    /// in `Cell`s so a `peek` immediately followed by `pop` pays for the
    /// search once.
    fn find_next(&self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len();
        let mut cur = self.cur_bucket.get();
        let mut top = self.bucket_top.get();
        // One lap over the calendar in (bucket, year) order. Window lower
        // bounds are monotone along the lap and nothing is pending below the
        // starting window, so the first in-window head is the global min.
        for _ in 0..n {
            if let Some(&(t, _, _)) = self.buckets[cur].front() {
                if t < top {
                    self.cur_bucket.set(cur);
                    self.bucket_top.set(top);
                    return Some(cur);
                }
            }
            cur = (cur + 1) % n;
            top = top.saturating_add(self.width);
        }
        // A full lap found nothing: every pending event is at least a year
        // ahead. Each bucket head is its bucket's minimum, so one scan of
        // the heads finds the true minimum; jump the walk to its year.
        // Distinct buckets never hold equal times (same time ⇒ same slot),
        // so the strict (time, seq) comparison has a unique winner.
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            if let Some(&(t, s, _)) = bucket.front() {
                if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                    best = Some((t, s, idx));
                }
            }
        }
        let (t, _, idx) = best.expect("len > 0 implies a pending event");
        self.rewind_to(t);
        Some(idx)
    }

    /// Rebuild the calendar for a pending population of `target` events:
    /// bucket count tracks the population, width spreads the live time span
    /// so average occupancy stays ~2 per active bucket. Deterministic — a
    /// pure function of the queue contents at the moment of the resize.
    fn resize(&mut self, target: usize) {
        let nbuckets = target.clamp(MIN_BUCKETS, MAX_BUCKETS).next_power_of_two();
        let mut all: Vec<(SimTime, u64, T)> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            all.extend(bucket.drain(..));
        }
        // Entries are unique by seq; sorting by (time, seq) lets each bucket
        // receive its entries in final order (appends, no per-entry search).
        all.sort_unstable_by_key(|&(t, s, _)| (t, s));
        let span = match (all.first(), all.last()) {
            (Some(&(lo, ..)), Some(&(hi, ..))) => hi - lo,
            _ => 0,
        };
        self.width = ((2 * span) / nbuckets as u64).max(1);
        self.buckets = Vec::new();
        self.buckets.resize_with(nbuckets, VecDeque::new);
        self.grow_at = nbuckets * 2;
        self.shrink_at = if nbuckets == MIN_BUCKETS {
            0
        } else {
            nbuckets / 8
        };
        match all.first() {
            Some(&(lo, ..)) => self.rewind_to(lo),
            None => {
                self.cur_bucket.set(0);
                self.bucket_top.set(self.width);
            }
        }
        for (t, s, ev) in all {
            let idx = ((t / self.width) % nbuckets as u64) as usize;
            self.buckets[idx].push_back((t, s, ev));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// One second in [`SimTime`] units.
    const SECONDS: SimTime = 1_000_000;

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

    #[test]
    fn far_future_gap_jumps_years() {
        // Events separated by far more than a calendar year force the
        // direct-search jump path; order must survive it.
        let mut q = EventQueue::new();
        q.schedule(10 * SECONDS, "late");
        q.schedule(5, "early");
        q.schedule(30 * SECONDS, "latest");
        assert_eq!(q.pop(), Some((5, "early")));
        assert_eq!(q.pop(), Some((10 * SECONDS, "late")));
        assert_eq!(q.pop(), Some((30 * SECONDS, "latest")));
    }

    #[test]
    fn insert_into_the_past_rewinds() {
        let mut q = EventQueue::new();
        q.schedule(5 * SECONDS, "future");
        assert_eq!(q.peek_time(), Some(5 * SECONDS), "walk advanced to year");
        // Now schedule behind the walk position: must still pop first.
        q.schedule(3, "past");
        assert_eq!(q.pop(), Some((3, "past")));
        assert_eq!(q.pop(), Some((5 * SECONDS, "future")));
    }

    #[test]
    fn growth_and_shrink_preserve_order() {
        let mut q = EventQueue::new();
        // Push well past several grow thresholds with colliding times…
        for i in 0..5_000u64 {
            q.schedule((i * 7) % 500, i);
        }
        assert!(q.buckets.len() > MIN_BUCKETS, "calendar grew");
        // …then drain fully (crossing shrink thresholds) checking order.
        let mut last = (0, 0);
        for _ in 0..5_000 {
            let (t, seq) = q.pop().expect("still pending");
            assert!((t, seq) > last || last == (0, 0), "order violated");
            last = (t, seq);
        }
        assert!(q.is_empty());
        assert_eq!(q.buckets.len(), MIN_BUCKETS, "calendar shrank back");
    }

    #[test]
    fn mass_tie_is_an_append() {
        // 100k events at one instant: the equal-time run must build by
        // appends (this test is O(n) if so, O(n²) memmove if not).
        let mut q = EventQueue::new();
        for i in 0..100_000u64 {
            q.schedule(42, i);
        }
        for i in 0..100_000u64 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn footprint_counts_capacity() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let empty = q.footprint_bytes();
        assert!(empty >= std::mem::size_of::<EventQueue<u64>>());
        for i in 0..1_000 {
            q.schedule(i, i);
        }
        let full = q.footprint_bytes();
        assert!(full > empty, "footprint grows with pending events");
        // Draining leaves capacity until a shrink resize reclaims it; after
        // the full drain the calendar is back at minimum geometry.
        while q.pop().is_some() {}
        assert!(q.footprint_bytes() < full);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Differential check against the exact structure the calendar queue
        /// replaced: a `BinaryHeap<Reverse<(SimTime, u64)>>` oracle. Any
        /// divergence in pop order is a determinism break.
        #[test]
        fn matches_binary_heap_oracle(
            ops in proptest::collection::vec((0u64..5_000, 0u8..4), 1..400)
        ) {
            let mut q = EventQueue::new();
            let mut oracle: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            for (t, kind) in ops {
                if kind == 0 && !oracle.is_empty() {
                    let Reverse(expect) = oracle.pop().unwrap();
                    let got = q.pop().unwrap();
                    prop_assert_eq!((got.0, got.1), expect);
                } else {
                    // Bias times toward collisions and the occasional
                    // far-future outlier to exercise jump + rewind paths.
                    let at = if kind == 3 { t * 10_000 } else { t % 64 };
                    oracle.push(Reverse((at, seq)));
                    q.schedule(at, seq);
                    seq += 1;
                }
                prop_assert_eq!(q.len(), oracle.len());
                prop_assert_eq!(
                    q.peek_time(),
                    oracle.peek().map(|Reverse((at, _))| *at)
                );
            }
            while let Some(Reverse(expect)) = oracle.pop() {
                let got = q.pop().unwrap();
                prop_assert_eq!((got.0, got.1), expect);
            }
            prop_assert!(q.is_empty());
        }
    }
}
