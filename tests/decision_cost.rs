//! What one arrival costs a speaker that hears a prefix from hundreds of
//! sessions one UPDATE at a time — as counts, so the gate holds on any host.
//! A counting global allocator makes this its own test binary, and the
//! process-wide `attr_clone_bytes` counter makes it a single test.

use centralium_bgp::attrs::attr_clone_bytes;
use centralium_bgp::{
    Asn, BgpDaemon, DaemonConfig, NativePolicy, Outbox, PathAttributes, PeerConfig, PeerId, Prefix,
    UpdateMessage,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every block it hands out or regrows.
struct CountingAlloc;

// SAFETY: defers every call to `System` unchanged; the counter is
// bookkeeping only and never influences pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SESSIONS: u64 = 256;

fn daemon() -> BgpDaemon {
    let mut d = BgpDaemon::new(DaemonConfig::fabric(Asn(1)));
    for peer in 1..=SESSIONS {
        d.add_peer(PeerConfig::open(
            PeerId(peer),
            Asn(100 + peer as u32),
            100.0,
        ));
        d.peer_up(PeerId(peer), &NativePolicy);
    }
    d
}

/// Equal-cost paths, one per session.
fn update(peer: u64) -> UpdateMessage {
    let mut attrs = PathAttributes::default();
    attrs.prepend(Asn(9), 1);
    attrs.prepend(Asn(100 + peer as u32), 1);
    UpdateMessage::announce(Prefix::DEFAULT, attrs)
}

/// Deliver `update(peer)` and decide it with a plane that records what it
/// is programmed with, as a host programs its FIB; returns (allocations,
/// attribute bytes cloned, sessions told).
fn arrival(d: &mut BgpDaemon, peer: u64) -> (u64, u64, usize) {
    let msg = update(peer);
    let mut programmed: Vec<Prefix> = Vec::with_capacity(1);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let cloned = attr_clone_bytes();
    d.ingest(PeerId(peer), msg, &NativePolicy);
    let out = Outbox::updates(|out| d.decide(&NativePolicy, &mut programmed, out));
    let changes = programmed.len();
    let cost = (
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        attr_clone_bytes() - cloned,
        out.len(),
    );
    assert_eq!(changes, 1, "arrival {peer} changed one FIB entry");
    cost
}

#[test]
fn an_arrival_costs_what_it_changed_not_what_the_speaker_holds() {
    // One export's worth of attribute copying: the advertised route's
    // attributes copied once, and its AS-path rebuilt with the own ASN
    // in front.
    let heard = update(1).announced.remove(0).1;
    let before = attr_clone_bytes();
    let mut exported = (*heard).clone();
    exported.prepend(Asn(1), 1);
    let per_export = attr_clone_bytes() - before;
    assert!(per_export > 0);

    // Ascending sessions: the first arrival stays the best path, every later
    // one only joins its multipath set. Nothing is exported after the first,
    // so nothing is copied, and joining a set of 255 allocates what joining
    // a set of 7 does (the set itself regrows now and then: amortised).
    let mut d = daemon();
    let mut allocations = Vec::new();
    let mut cloned = 0;
    for peer in 1..=SESSIONS {
        let (a, c, told) = arrival(&mut d, peer);
        assert_eq!(told, if peer == 1 { SESSIONS as usize - 1 } else { 0 });
        allocations.push(a);
        cloned += c;
    }
    assert_eq!(d.fib()[0].nexthops.len(), SESSIONS as usize);
    assert_eq!(cloned, per_export, "one export in the whole fan-in");
    let (eighth, last) = (allocations[7], allocations[SESSIONS as usize - 1]);
    assert!(
        last <= eighth + 2,
        "arrival 256 made {last} allocations, arrival 8 made {eighth}"
    );

    // Descending sessions: every arrival is the new best path (lowest
    // session id wins the tie), so every arrival exports — and the bytes
    // copied are what those 256 exports need and nothing more.
    let mut d = daemon();
    let mut cloned = 0;
    for peer in (1..=SESSIONS).rev() {
        let (_, c, told) = arrival(&mut d, peer);
        // Everyone but the sender hears the new path; the sender, told the
        // old one until now, has it withdrawn (split-horizon).
        assert_eq!(told, SESSIONS as usize - usize::from(peer == SESSIONS));
        cloned += c;
    }
    assert_eq!(cloned, SESSIONS * per_export);
}
