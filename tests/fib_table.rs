//! The FIB's flat table against a naive reference — a `BTreeMap` with a
//! linear-scan longest-prefix match — over install / replace / remove,
//! exact and longest-prefix lookup, and iteration order, on prefixes drawn
//! from a pool dense enough that `/0`, `/8`, `/16`, `/24` and `/32` nest.

use centralium_bgp::{
    FibEntry, LocRibEntry, NextHops, Path, PathAttributes, PeerId, Prefix, Route,
};
use centralium_simnet::fib::{Fib, FibScratch};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const LENS: [u8; 5] = [0, 8, 16, 24, 32];

/// `(10|11).(0|1).(0|1).(0|1)/len`: 16 addresses × 5 lengths, so most
/// draws cover, or are covered by, something already installed.
fn prefix((bits, len): (u8, u8)) -> Prefix {
    let octet = |shift: u8| (bits >> shift) & 1;
    Prefix::from_octets(
        [10 + octet(3), octet(2), octet(1), octet(0)],
        LENS[len as usize % LENS.len()],
    )
}

fn entry(prefix: Prefix, nexthop: u8) -> FibEntry {
    FibEntry {
        prefix,
        nexthops: NextHops(Arc::new([(PeerId(nexthop as u64), 1)])),
        warm: false,
    }
}

/// The Loc-RIB entry [`entry`] is the projection of.
fn selected(nexthop: u8) -> LocRibEntry {
    let route = Route::learned(
        Prefix::DEFAULT,
        PathAttributes::default(),
        PeerId(nexthop as u64),
    );
    LocRibEntry::new(vec![Path::new(route, 1)], None, false)
}

fn naive_lookup<'a>(
    reference: &'a BTreeMap<Prefix, FibEntry>,
    dest: &Prefix,
) -> Option<&'a FibEntry> {
    reference
        .values()
        .filter(|e| e.prefix.contains(dest))
        .max_by_key(|e| e.prefix.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_table_matches_the_naive_reference(
        ops in proptest::collection::vec((0u8..4, (0u8..16, 0u8..5), 0u8..4), 1..64),
        probes in proptest::collection::vec((0u8..16, 0u8..5), 1..24),
    ) {
        let mut fib = Fib::new(1024);
        let mut scratch = FibScratch::default();
        let mut reference: BTreeMap<Prefix, FibEntry> = BTreeMap::new();
        for (op, key, nexthop) in ops {
            let p = prefix(key);
            // Three installs (or replacements) to one removal.
            let change = (op > 0).then(|| selected(nexthop));
            match &change {
                Some(_) => reference.insert(p, entry(p, nexthop)),
                None => reference.remove(&p),
            };
            fib.apply([(p, change.as_ref())], &mut scratch);

            prop_assert_eq!(fib.len(), reference.len());
            prop_assert_eq!(fib.entry(p), reference.get(&p));
            let order: Vec<&FibEntry> = fib.entries().collect();
            let want: Vec<&FibEntry> = reference.values().collect();
            prop_assert_eq!(order, want);
            for &probe in &probes {
                let dest = prefix(probe);
                prop_assert_eq!(
                    fib.lookup(&dest),
                    naive_lookup(&reference, &dest),
                    "lookup({}) over {:?}",
                    dest,
                    reference.keys().map(Prefix::to_string).collect::<Vec<_>>()
                );
            }
        }
        // The same state applied to an empty table in one batch lands the
        // same table.
        let state: Vec<(Prefix, LocRibEntry)> = reference
            .values()
            .map(|e| (e.prefix, selected(e.nexthops[0].0 .0 as u8)))
            .collect();
        let mut batched = Fib::new(1024);
        batched.apply(state.iter().map(|(p, e)| (*p, Some(e))), &mut scratch);
        prop_assert_eq!(
            batched.entries().collect::<Vec<_>>(),
            fib.entries().collect::<Vec<_>>()
        );
    }
}
