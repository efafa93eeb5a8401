//! No attribute state outlives the fabric that minted it. Five fabrics are
//! built, converged, churned and dropped in one process; each originates
//! prefixes from racks no earlier fabric used, so each mints AS paths none
//! before it held. Once a fabric is dropped, live heap bytes must be back
//! where the first drop left them. A counting global allocator makes this
//! its own test binary.

use centralium_bench::scenarios::converged_fabric;
use centralium_bgp::attrs::well_known;
use centralium_bgp::Prefix;
use centralium_topology::FabricSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

static LIVE: AtomicI64 = AtomicI64::new(0);

/// The system allocator, counting the bytes it currently has handed out.
struct CountingAlloc;

// SAFETY: defers every call to `System` unchanged; the counter is
// bookkeeping only and never influences pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CYCLES: usize = 5;
const RACKS_PER_CYCLE: usize = 8;
const SLACK_BYTES: i64 = 64 * 1024;

/// Build the 212-device fabric, originate the default route and cycle
/// `cycle`'s eight rack prefixes, converge, bounce one aggregation device,
/// converge again, and drop everything.
fn cycle(cycle: usize) {
    let mut fab = converged_fabric(&FabricSpec::large(), 7 + cycle as u64);
    let racks: Vec<_> = fab
        .idx
        .rsw
        .iter()
        .enumerate()
        .flat_map(|(pod, racks)| racks.iter().enumerate().map(move |(r, &d)| (pod, r, d)))
        .skip(cycle * RACKS_PER_CYCLE)
        .take(RACKS_PER_CYCLE)
        .collect();
    assert_eq!(
        racks.len(),
        RACKS_PER_CYCLE,
        "the fabric has racks to spare"
    );
    for (pod, rack, rsw) in racks {
        let prefix = Prefix::new(0x0A00_0000 | (pod as u32) << 16 | (rack as u32) << 8, 24);
        fab.net.originate(rsw, prefix, [well_known::RACK_PREFIX]);
    }
    fab.net.run_until_quiescent().expect_converged();
    let fsw = fab.idx.fsw[cycle % fab.idx.fsw.len()][0];
    fab.net.device_down(fsw);
    fab.net.run_until_quiescent().expect_converged();
    fab.net.device_up(fsw);
    fab.net.run_until_quiescent().expect_converged();
}

#[test]
fn a_dropped_fabric_frees_every_sequence_it_minted() {
    let mut live = Vec::with_capacity(CYCLES);
    for c in 0..CYCLES {
        cycle(c);
        live.push(LIVE.load(Ordering::Relaxed));
    }
    eprintln!("live bytes after each drop: {live:?}");
    let first = live[0];
    for (c, &bytes) in live.iter().enumerate().skip(1) {
        assert!(
            (bytes - first).abs() <= SLACK_BYTES,
            "live bytes after each drop: {live:?}; cycle {} is {} B from cycle 1",
            c + 1,
            bytes - first
        );
    }
}
