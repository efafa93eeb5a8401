//! Coalesced UPDATE batching must be invisible in converged forwarding
//! state: with batching on, same-link UPDATEs ride one delivery and
//! same-prefix re-announcements still queued are squashed last-writer-wins —
//! but once the network quiesces, every device's FIB must be byte-identical
//! to the unbatched run, across chaos seeds.
//!
//! The episode deliberately includes a withdraw-then-reannounce race on the
//! backbone default route: the withdraw wave and the re-announce wave are in
//! flight together, so open batches see an announce squashing a queued
//! withdraw (and vice versa) mid-propagation — the exact reordering hazard
//! last-writer-wins merging has to get right.

use centralium_bgp::attrs::{well_known, PathAttributes};
use centralium_bgp::Prefix;
use centralium_simnet::{NetEvent, SimConfig, SimNet};
use centralium_topology::{build_fabric, FabricSpec};
use std::fmt::Write as _;

/// Forwarding state only — prefixes, next-hop sets, warm bits. Group-table
/// churn counters legitimately differ between batched and unbatched runs
/// (they see different transient states), so they are excluded here; the
/// bench's whole-`Fib` snapshot covers them for fixed batching config.
fn forwarding_snapshot(net: &SimNet) -> String {
    let mut out = String::new();
    for id in net.device_ids() {
        let dev = net.device(id).expect("listed device exists");
        for e in dev.fib.entries() {
            writeln!(out, "{id} {} {:?} warm={}", e.prefix, e.nexthops, e.warm)
                .expect("string write");
        }
    }
    out
}

struct Run {
    snapshot: String,
    events: u64,
}

fn episode(seed: u64, coalesce: bool) -> Run {
    let (topo, idx, _) = build_fabric(&FabricSpec::default());
    let mut net = SimNet::new(
        topo,
        SimConfig::builder()
            .seed(seed)
            .coalesce_updates(coalesce)
            .build(),
    );
    net.establish_all();
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    let mut events = net
        .run_until_quiescent()
        .expect_converged()
        .events_processed;

    // Withdraw-then-reannounce race: one backbone retracts the default route
    // and re-originates it 40 µs later, well inside the propagation time of
    // the withdraw wave, so both waves coexist in the event queue.
    let racer = idx.backbone[0];
    net.schedule_in(
        0,
        NetEvent::WithdrawOrigin {
            dev: racer,
            prefix: Prefix::DEFAULT,
        },
    );
    net.schedule_in(
        40,
        NetEvent::Originate {
            dev: racer,
            prefix: Prefix::DEFAULT,
            attrs: Box::new(PathAttributes::originated([
                well_known::BACKBONE_DEFAULT_ROUTE,
            ])),
        },
    );
    events += net
        .run_until_quiescent()
        .expect_converged()
        .events_processed;

    // A device bounce for good measure: session churn plus route withdrawal
    // and relearning through a different part of the fabric.
    net.device_down(idx.fadu[0][0]);
    events += net
        .run_until_quiescent()
        .expect_converged()
        .events_processed;
    net.device_up(idx.fadu[0][0]);
    events += net
        .run_until_quiescent()
        .expect_converged()
        .events_processed;

    Run {
        snapshot: forwarding_snapshot(&net),
        events,
    }
}

#[test]
fn batched_propagation_converges_to_identical_fibs() {
    for seed in [7, 21, 1337] {
        let unbatched = episode(seed, false);
        let batched = episode(seed, true);
        assert!(
            !batched.snapshot.is_empty(),
            "seed {seed}: empty forwarding snapshot"
        );
        assert_eq!(
            unbatched.snapshot, batched.snapshot,
            "seed {seed}: batched FIBs diverged from unbatched"
        );
        assert!(
            batched.events < unbatched.events,
            "seed {seed}: coalescing should cut events (batched {} vs unbatched {})",
            batched.events,
            unbatched.events,
        );
    }
}
