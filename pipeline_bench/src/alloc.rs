//! The bench's own counting allocator: live bytes, cumulative bytes and
//! allocation count, read by the traced run for the `mem.*` metrics.
//!
//! Counting is gated by [`COUNTING`]: an untraced run pays one relaxed load
//! per allocation and nothing else, so the end-to-end numbers are measured
//! on (practically) the system allocator a default user gets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Signed: a block allocated before counting was switched on may be freed
/// while it is on.
static LIVE: AtomicI64 = AtomicI64::new(0);
static CUMULATIVE: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator plus gated counters.
pub struct CountingAlloc;

#[inline]
fn on_alloc(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_add(size as i64, Ordering::Relaxed);
        CUMULATIVE.fetch_add(size as u64, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

#[inline]
fn on_free(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` with the caller's arguments
// unchanged; the counters never influence a pointer or a layout.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) };
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// A reading of the three counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocReading {
    /// Bytes allocated and not yet freed since [`start_counting`].
    pub live: i64,
    /// Bytes allocated since [`start_counting`], freed or not.
    pub cumulative: u64,
    /// Allocation calls since [`start_counting`].
    pub allocs: u64,
}

/// Zero the counters and switch counting on.
pub fn start_counting() {
    LIVE.store(0, Ordering::Relaxed);
    CUMULATIVE.store(0, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
}

/// Switch counting off; the counters keep their last values.
pub fn stop_counting() {
    COUNTING.store(false, Ordering::Relaxed);
}

/// Read the counters.
pub fn reading() -> AllocReading {
    AllocReading {
        live: LIVE.load(Ordering::Relaxed),
        cumulative: CUMULATIVE.load(Ordering::Relaxed),
        allocs: ALLOCS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_switched_on() {
        // Other tests allocate concurrently, so assert directions, not
        // exact values.
        start_counting();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let during = reading();
        drop(v);
        stop_counting();
        assert!(during.cumulative >= 1 << 20);
        assert!(during.allocs >= 1);
        let frozen = reading();
        let w: Vec<u8> = Vec::with_capacity(1 << 20);
        assert_eq!(reading().cumulative, frozen.cumulative);
        drop(w);
    }
}
