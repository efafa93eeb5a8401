//! A counting global allocator for footprint measurement.
//!
//! VmRSS is the wrong numerator for a per-device byte budget at the 100k
//! tier: a convergence episode churns through millions of short-lived
//! UPDATE allocations interleaved with long-lived RIB state, and glibc
//! cannot hand the resulting holes back to the kernel — `mem_probe` shows
//! ~375 MB of RSS surviving a `malloc_trim` *after the whole network is
//! dropped*. That scar tissue says nothing about the data structures the
//! budget is supposed to gate.
//!
//! [`CountingAlloc`] wraps the system allocator and keeps a live-byte
//! counter: exactly the bytes currently allocated, immune to retention and
//! fragmentation, deterministic across allocator versions. Binaries that
//! want the measurement install it themselves:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: centralium_bench::alloc::CountingAlloc = CountingAlloc;
//! ```
//!
//! It is deliberately *not* installed by this library crate, so the
//! `paper` binary keeps an uninstrumented allocator; without the
//! attribute [`live_heap_bytes`] just reads zero. The two relaxed atomic
//! ops per alloc/free cost low single-digit percent on allocation-heavy
//! paths — the same tax for every row of a bench table, so relative
//! numbers (speedups, regression ratios) are unaffected.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);

/// System allocator plus a live-byte counter. See the module docs.
pub struct CountingAlloc;

// SAFETY: defers every allocation to `System` unchanged; the counter is
// bookkeeping only and never influences pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Count the delta only on success; a failed realloc leaves the
            // original allocation (and the counter) untouched.
            if new_size >= layout.size() {
                LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Bytes currently allocated through [`CountingAlloc`] — 0 when the binary
/// did not install it.
pub fn live_heap_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator, so the counter must
    // read zero and stay zero across allocations.
    #[test]
    fn uninstalled_counter_reads_zero() {
        let before = live_heap_bytes();
        let v: Vec<u8> = Vec::with_capacity(1 << 16);
        assert_eq!(live_heap_bytes(), before);
        drop(v);
        assert_eq!(before, 0);
    }
}
