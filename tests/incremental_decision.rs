//! Decide against the incumbent: an arrival that moved one session's route is
//! decided by comparing that route with the installed Loc-RIB entry and
//! editing the entry in place. The oracle is the same daemon behind a hook
//! that does not declare itself ungoverned, which therefore re-selects from
//! every session's route on every arrival: after each step of a random
//! script both must hold the same Loc-RIB, have said the same to every
//! session, and have programmed the same FIB with the same next-hop-group
//! accounting. One named case per branch of the edit follows.

use centralium_bgp::{
    Asn, BgpDaemon, Community, DaemonConfig, ForwardingPlane, NativePolicy, Outbox, PathAttributes,
    PathChoice, PeerConfig, PeerId, Prefix, RibPolicy, Route, UpdateMessage,
};
use centralium_simnet::{Fib, FibScratch};
use centralium_telemetry::Telemetry;
use proptest::prelude::*;

const OWN_ASN: u32 = 1;
const SESSIONS: u64 = 16;

/// Pass-through hooks that keep the conservative `governs` default: the
/// daemon may assume nothing, so every decision is the full pass.
struct FullPass;
impl RibPolicy for FullPass {}

fn path(asns: &[u32]) -> PathAttributes {
    let mut attrs = PathAttributes::default();
    for asn in asns.iter().rev() {
        attrs.prepend(Asn(*asn), 1);
    }
    attrs
}

fn prefix_of(i: u8) -> Prefix {
    [
        Prefix::DEFAULT,
        Prefix::new(0x0A00_0000, 8),
        Prefix::new(0x0A01_0200, 24),
    ][i as usize % 3]
}

/// Seven attribute shapes: the base path, a longer and a shorter one, two
/// that tie the base but differ in bandwidth / communities (so an in-place
/// replacement moves the advertisement by value, and the WCMP weights
/// move), a local-pref override that beats everything, and a MED that
/// loses to the base at the last comparison step.
fn palette(i: u8, peer: u64) -> PathAttributes {
    let first = 100 + peer as u32;
    match i % 7 {
        0 => path(&[first, 9]),
        1 => path(&[first, 8, 9]),
        2 => path(&[first]),
        3 => {
            let mut a = path(&[first, 9]);
            a.link_bandwidth_gbps = Some(40.0);
            a
        }
        4 => {
            let mut a = path(&[first, 9]);
            a.link_bandwidth_gbps = Some(400.0);
            a.add_community(Community::from_pair(65000, 7));
            a
        }
        5 => {
            let mut a = path(&[first, 7, 8, 9]);
            a.local_pref = 200;
            a
        }
        _ => {
            let mut a = path(&[first, 9]);
            a.med = 10;
            a
        }
    }
}

fn daemon(sessions: u64) -> BgpDaemon {
    let mut d = BgpDaemon::new(DaemonConfig::fabric(Asn(OWN_ASN)));
    for peer in 1..=sessions {
        d.add_peer(PeerConfig::open(
            PeerId(peer),
            Asn(100 + peer as u32),
            100.0,
        ));
        d.peer_up(PeerId(peer), &NativePolicy);
    }
    d
}

/// A daemon plus the FIB its host programs with what the daemon's decide
/// programmed a recording plane with.
struct Speaker {
    daemon: BgpDaemon,
    fib: Fib,
    scratch: FibScratch,
}

impl Speaker {
    fn new() -> Self {
        Speaker {
            daemon: daemon(SESSIONS),
            fib: Fib::new(64),
            scratch: FibScratch::default(),
        }
    }

    /// Run `f` (at most one decide) against a recording plane, then apply
    /// the recorded prefixes' Loc-RIB entries to the FIB as one batch.
    fn step(
        &mut self,
        f: impl FnOnce(&mut BgpDaemon, &mut dyn ForwardingPlane) -> Updates,
    ) -> Updates {
        let mut programmed: Vec<Prefix> = Vec::new();
        let out = f(&mut self.daemon, &mut programmed);
        let daemon = &self.daemon;
        let changes = programmed.iter().map(|&p| (p, daemon.loc_rib_entry(p)));
        self.fib.apply(changes, &mut self.scratch);
        out
    }
}

type Updates = Vec<(PeerId, UpdateMessage)>;

/// One operation on both speakers: the edited one behind `NativePolicy`, the
/// oracle behind [`FullPass`].
fn both(
    edited: &mut Speaker,
    oracle: &mut Speaker,
    op: impl Fn(&mut BgpDaemon, &dyn RibPolicy, &mut dyn ForwardingPlane) -> Updates,
) -> (Updates, Updates) {
    (
        edited.step(|d, plane| op(d, &NativePolicy, plane)),
        oracle.step(|d, plane| op(d, &FullPass, plane)),
    )
}

/// `ingest`, then `decide` against `plane`.
fn deliver(
    d: &mut BgpDaemon,
    peer: PeerId,
    update: UpdateMessage,
    hook: &dyn RibPolicy,
    plane: &mut dyn ForwardingPlane,
) -> Updates {
    d.ingest(peer, update, hook);
    Outbox::updates(|out| d.decide(hook, plane, out))
}

fn run_script(steps: &[(u8, u8, u8, u8)]) -> Result<(), TestCaseError> {
    let mut edited = Speaker::new();
    let mut oracle = Speaker::new();
    // What each session last announced, for the identical re-announcement.
    let mut last = std::collections::BTreeMap::new();
    for (n, &(op, peer, prefix, pick)) in steps.iter().enumerate() {
        let peer_no = 1 + peer as u64 % SESSIONS;
        let peer = PeerId(peer_no);
        let prefix = prefix_of(prefix);
        let (said, expected) = match op % 12 {
            0..=2 => {
                let attrs = palette(pick, peer_no);
                last.insert((peer, prefix), attrs.clone());
                both(&mut edited, &mut oracle, |d, hook, plane| {
                    let update = UpdateMessage::announce(prefix, attrs.clone());
                    deliver(d, peer, update, hook, plane)
                })
            }
            3 => {
                let attrs = last
                    .get(&(peer, prefix))
                    .cloned()
                    .unwrap_or_else(|| palette(pick, peer_no));
                both(&mut edited, &mut oracle, |d, hook, plane| {
                    let update = UpdateMessage::announce(prefix, attrs.clone());
                    deliver(d, peer, update, hook, plane)
                })
            }
            4 | 5 => both(&mut edited, &mut oracle, |d, hook, plane| {
                deliver(d, peer, UpdateMessage::withdraw(prefix), hook, plane)
            }),
            6 => both(&mut edited, &mut oracle, |d, hook, plane| {
                d.peer_down(peer);
                Outbox::updates(|out| d.decide(hook, plane, out))
            }),
            7 => both(&mut edited, &mut oracle, |d, hook, _| d.peer_up(peer, hook)),
            8 => both(&mut edited, &mut oracle, |d, hook, plane| {
                d.originate(prefix, palette(pick % 6, 0));
                Outbox::updates(|out| d.decide(hook, plane, out))
            }),
            9 => both(&mut edited, &mut oracle, |d, hook, plane| {
                d.withdraw_origin(prefix);
                Outbox::updates(|out| d.decide(hook, plane, out))
            }),
            // Arrivals on two sessions before one decide: neither session's
            // route is all that moved, so the edit must not run.
            10 => {
                let other_no = 1 + peer_no % SESSIONS;
                let other = PeerId(other_no);
                let (attrs, other_attrs) = (palette(pick, peer_no), palette(pick + 3, other_no));
                last.insert((peer, prefix), attrs.clone());
                last.insert((other, prefix), other_attrs.clone());
                both(&mut edited, &mut oracle, |d, hook, plane| {
                    d.ingest(peer, UpdateMessage::announce(prefix, attrs.clone()), hook);
                    d.ingest(
                        other,
                        UpdateMessage::announce(prefix, other_attrs.clone()),
                        hook,
                    );
                    Outbox::updates(|out| d.decide(hook, plane, out))
                })
            }
            // An arrival and an origination before one decide.
            _ => {
                let attrs = palette(pick, peer_no);
                last.insert((peer, prefix), attrs.clone());
                both(&mut edited, &mut oracle, |d, hook, plane| {
                    d.ingest(peer, UpdateMessage::announce(prefix, attrs.clone()), hook);
                    d.originate(prefix, palette(pick % 6, 0));
                    Outbox::updates(|out| d.decide(hook, plane, out))
                })
            }
        };
        let at = format!("step {n} {:?}", steps[n]);
        prop_assert_eq!(&said, &expected, "{}: emitted updates", at);
        for i in 0..3 {
            let prefix = prefix_of(i);
            prop_assert_eq!(
                edited.daemon.loc_rib_entry(prefix),
                oracle.daemon.loc_rib_entry(prefix),
                "{}: Loc-RIB entry of {}",
                at,
                prefix
            );
            for session in 1..=SESSIONS {
                prop_assert_eq!(
                    edited.daemon.advertised_to(PeerId(session), prefix),
                    oracle.daemon.advertised_to(PeerId(session), prefix),
                    "{}: Adj-RIB-Out toward {} for {}",
                    at,
                    session,
                    prefix
                );
            }
        }
        prop_assert_eq!(
            edited.fib.entries().collect::<Vec<_>>(),
            oracle.fib.entries().collect::<Vec<_>>(),
            "{}: FIB entries",
            at
        );
        prop_assert_eq!(
            edited.fib.nhg_stats(),
            oracle.fib.nhg_stats(),
            "{}: next-hop-group accounting",
            at
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After every step of a random script the edited daemon and the
    /// full-pass daemon agree on everything a host can observe.
    #[test]
    fn the_in_place_edit_is_the_full_pass(
        steps in proptest::collection::vec((0u8..12, 0u8..16, 0u8..3, 0u8..7), 1..96),
    ) {
        run_script(&steps)?;
    }
}

// ---- one case per branch ----------------------------------------------------

/// Sessions 2, 4 and 6 hold the base path for the default route; the
/// decision counter is bound.
fn three_way_tie() -> (BgpDaemon, centralium_telemetry::Counter) {
    let telemetry = Telemetry::new();
    let decisions = telemetry.metrics().counter("bgp.decisions");
    let mut d = daemon(8);
    d.set_telemetry(&telemetry, "d0");
    for peer in [2, 4, 6] {
        announce(&mut d, peer, palette(0, peer));
    }
    (d, decisions)
}

fn announce(d: &mut BgpDaemon, peer: u64, attrs: PathAttributes) -> Updates {
    announce_to(d, &mut (), peer, attrs)
}

fn withdraw(d: &mut BgpDaemon, peer: u64) -> Updates {
    withdraw_to(d, &mut (), peer)
}

/// [`announce`], programming `plane`.
fn announce_to(
    d: &mut BgpDaemon,
    plane: &mut dyn ForwardingPlane,
    peer: u64,
    attrs: PathAttributes,
) -> Updates {
    let update = UpdateMessage::announce(Prefix::DEFAULT, attrs);
    deliver(d, PeerId(peer), update, &NativePolicy, plane)
}

/// [`withdraw`], programming `plane`.
fn withdraw_to(d: &mut BgpDaemon, plane: &mut dyn ForwardingPlane, peer: u64) -> Updates {
    let update = UpdateMessage::withdraw(Prefix::DEFAULT);
    deliver(d, PeerId(peer), update, &NativePolicy, plane)
}

fn selected_sessions(d: &BgpDaemon) -> Vec<Option<u64>> {
    d.loc_rib_entry(Prefix::DEFAULT)
        .expect("installed")
        .paths()
        .iter()
        .map(|path| path.learned_from().map(|p| p.0))
        .collect()
}

fn weights(d: &BgpDaemon) -> Vec<u32> {
    let entry = d.loc_rib_entry(Prefix::DEFAULT).expect("installed");
    entry.paths().iter().map(|path| path.weight).collect()
}

#[test]
fn a_worse_arrival_leaves_the_fib_alone_and_still_counts_a_decision() {
    let (mut d, decisions) = three_way_tie();
    let before = decisions.get();
    let mut programmed: Vec<Prefix> = Vec::new();
    let out = announce_to(&mut d, &mut programmed, 3, palette(1, 3));
    assert!(out.is_empty());
    assert_eq!(decisions.get() - before, 1);
    assert_eq!(programmed.len(), 0, "nothing installed, nothing programmed");
    assert_eq!(selected_sessions(&d), [Some(2), Some(4), Some(6)]);
    // Its withdrawal is as quiet: the route was held but never selected.
    assert!(withdraw_to(&mut d, &mut programmed, 3).is_empty());
    assert_eq!(decisions.get() - before, 2);
    assert_eq!(programmed.len(), 0);
}

#[test]
fn a_tie_joins_at_its_session_position_and_the_local_route_stays_last() {
    let (mut d, _) = three_way_tie();
    // Every decide below programs this plane: their union is what one
    // batch after all four would hold.
    let mut programmed: Vec<Prefix> = Vec::new();
    // A local route of the incumbent's preference (two hops, like the base
    // path) is multipath-equal and sorts after every learned route.
    d.originate(Prefix::DEFAULT, path(&[7, 9]));
    d.decide(&NativePolicy, &mut programmed, &mut Outbox::default());
    assert_eq!(selected_sessions(&d), [Some(2), Some(4), Some(6), None]);
    announce_to(&mut d, &mut programmed, 5, palette(0, 5));
    announce_to(&mut d, &mut programmed, 1, palette(4, 1));
    announce_to(&mut d, &mut programmed, 8, palette(0, 8));
    assert_eq!(
        selected_sessions(&d),
        [Some(1), Some(2), Some(4), Some(5), Some(6), Some(8), None]
    );
    let entry = d.loc_rib_entry(Prefix::DEFAULT).unwrap();
    // 400 Gbps on session 1 against the set's minimum everywhere else.
    assert_eq!(weights(&d)[0], 1);
    assert_eq!(weights(&d).len(), 7);
    assert!(
        entry.advertised().unwrap().learned_from().is_none(),
        "the local route stays the best"
    );
    programmed.dedup();
    assert_eq!(
        programmed.len(),
        1,
        "one programmed prefix per changed entry"
    );
    let entry = d.loc_rib_entry(programmed[0]).unwrap();
    assert_eq!(
        entry.fib_nexthops().count(),
        6,
        "the local route is no next hop"
    );
}

#[test]
fn a_tie_from_a_lower_session_becomes_the_advertised_route() {
    let (mut d, _) = three_way_tie();
    let out = announce(&mut d, 1, palette(0, 1));
    assert_eq!(selected_sessions(&d), [Some(1), Some(2), Some(4), Some(6)]);
    // Lowest session id wins the tie-break: session 1 loses the prefix to
    // split-horizon, session 2 — the old best, which had it withheld for
    // the same reason — hears about it for the first time, the rest hear
    // the new best path.
    assert_eq!(out.len(), 8);
    assert_eq!(out[0].0, PeerId(1));
    assert_eq!(out[0].1.withdrawn, [Prefix::DEFAULT]);
    assert!(out[1..].iter().all(|(_, u)| u.announced.len() == 1));
    let entry = d.loc_rib_entry(Prefix::DEFAULT).unwrap();
    assert_eq!(entry.advertised().unwrap().learned_from(), Some(PeerId(1)));
}

#[test]
fn a_better_arrival_collapses_the_set_to_itself() {
    let (mut d, _) = three_way_tie();
    let out = announce(&mut d, 5, palette(2, 5));
    assert_eq!(selected_sessions(&d), [Some(5)]);
    assert_eq!(weights(&d), [1]);
    assert_eq!(out.len(), 8, "7 announcements and session 5's withdrawal");
    // A selected session bettering its own route collapses the set as well.
    let (mut d, _) = three_way_tie();
    announce(&mut d, 4, palette(5, 4));
    assert_eq!(selected_sessions(&d), [Some(4)]);
}

#[test]
fn a_selected_route_withdrawn_or_worsened_leaves_the_rest_selected() {
    let (mut d, decisions) = three_way_tie();
    let before = decisions.get();
    let mut programmed: Vec<Prefix> = Vec::new();
    assert!(
        withdraw_to(&mut d, &mut programmed, 4).is_empty(),
        "session 2 is still the best"
    );
    assert_eq!(selected_sessions(&d), [Some(2), Some(6)]);
    assert_eq!(weights(&d), [1, 1]);
    assert_eq!(programmed.len(), 1);
    // Worsened, not withdrawn — and it was the advertised route, so the
    // best path moves to the one that is left.
    let out = announce(&mut d, 2, palette(6, 2));
    assert_eq!(selected_sessions(&d), [Some(6)]);
    assert!(!out.is_empty());
    assert_eq!(decisions.get() - before, 2);
    assert_eq!(
        d.rib_in_count(Prefix::DEFAULT),
        2,
        "session 2's route is held"
    );
}

#[test]
fn a_selected_route_replaced_at_the_same_preference_is_swapped_in_place() {
    let (mut d, _) = three_way_tie();
    // Session 4 is not the advertised route: the FIB weights move (400 Gbps
    // against the set's minimum), the advertisement does not.
    let out = announce(&mut d, 4, palette(4, 4));
    assert!(out.is_empty());
    assert_eq!(selected_sessions(&d), [Some(2), Some(4), Some(6)]);
    let entry = d.loc_rib_entry(Prefix::DEFAULT).unwrap();
    assert_eq!(entry.paths()[1].attrs.link_bandwidth_gbps, Some(400.0));
    assert_eq!(weights(&d), [1, 1, 1], "one bandwidth: all at its minimum");
    assert!(announce(&mut d, 6, palette(3, 6)).is_empty());
    assert_eq!(weights(&d), [1, 10, 1], "40 : 400 : 40 Gbps");
    // Session 2 is: same preference, new communities — peers must hear it.
    let out = announce(&mut d, 2, palette(4, 2));
    assert_eq!(out.len(), 7);
    assert_eq!(selected_sessions(&d), [Some(2), Some(4), Some(6)]);
}

#[test]
fn losing_the_last_selected_route_rescans_to_the_runner_up_set() {
    let (mut d, _) = three_way_tie();
    announce(&mut d, 3, palette(1, 3));
    announce(&mut d, 7, palette(1, 7));
    announce(&mut d, 5, palette(2, 5));
    assert_eq!(selected_sessions(&d), [Some(5)]);
    // The incumbent says nothing about who is second: the Adj-RIB-In does.
    withdraw(&mut d, 5);
    assert_eq!(selected_sessions(&d), [Some(2), Some(4), Some(6)]);
    for peer in [2, 4, 6] {
        withdraw(&mut d, peer);
    }
    assert_eq!(selected_sessions(&d), [Some(3), Some(7)]);
    withdraw(&mut d, 3);
    withdraw(&mut d, 7);
    assert!(d.loc_rib_entry(Prefix::DEFAULT).is_none());
    // No incumbent: the first arrival is the full pass too.
    announce(&mut d, 6, palette(1, 6));
    assert_eq!(selected_sessions(&d), [Some(6)]);
}

/// The full pass re-installs the entry whatever it decided, so — unlike the
/// edit — it programs the forwarding plane behind a worse arrival. That is
/// how these cases tell which of the two ran.
fn worse_arrival_is_reinstalled(d: &mut BgpDaemon, hook: &dyn RibPolicy) -> bool {
    let mut programmed: Vec<Prefix> = Vec::new();
    let update = UpdateMessage::announce(Prefix::DEFAULT, palette(1, 3));
    assert!(deliver(d, PeerId(3), update, hook, &mut programmed).is_empty());
    !programmed.is_empty()
}

#[test]
fn governed_prefixes_and_keep_warm_entries_take_the_full_pass() {
    let (mut d, _) = three_way_tie();
    assert!(!worse_arrival_is_reinstalled(&mut d, &NativePolicy));
    let (mut d, _) = three_way_tie();
    assert!(worse_arrival_is_reinstalled(&mut d, &FullPass));

    // A keep-warm entry is not a native multipath set (it is the *previous*
    // set, withdrawn from peers). A hook that claims to govern nothing yet
    // guards the prefix would be lying; the warm flag alone must be enough
    // to keep the edit away from it.
    struct LyingGuard;
    impl RibPolicy for LyingGuard {
        fn select_paths(&self, _prefix: Prefix, _candidates: &[Route]) -> PathChoice {
            PathChoice::Native(Some((3, true)))
        }
        fn governs(&self, _prefix: Prefix) -> bool {
            false
        }
    }
    let (mut d, _) = three_way_tie();
    d.reevaluate_all(&LyingGuard);
    d.peer_down(PeerId(6));
    d.decide(&LyingGuard, &mut (), &mut Outbox::default());
    let entry = d.loc_rib_entry(Prefix::DEFAULT).unwrap();
    assert!(entry.fib_warm_only);
    assert!(worse_arrival_is_reinstalled(&mut d, &LyingGuard));
    // The third next hop returns through the full pass and un-trips the guard.
    let update = UpdateMessage::announce(Prefix::DEFAULT, palette(0, 6));
    d.peer_up(PeerId(6), &LyingGuard);
    let out = d.handle_update(PeerId(6), update, &LyingGuard);
    assert!(!out.is_empty());
    assert!(!d.loc_rib_entry(Prefix::DEFAULT).unwrap().fib_warm_only);
}
