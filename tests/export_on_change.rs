//! Export on change: a decision that leaves the advertised route where it
//! was evaluates no session, and Adj-RIB-Out still holds, after every
//! `decide`, exactly what a full export would compute — checked on a
//! standalone daemon (counter and updates), under random operation sequences
//! (a cloned daemon answers `reevaluate_all` with nothing) and on whole
//! fabrics (the forced pass of `verify_full_equivalence` is silent).

use centralium_bench::tier::TierSpec;
use centralium_bgp::attrs::well_known;
use centralium_bgp::{
    Action, Asn, BgpDaemon, DaemonConfig, MatchExpr, NativePolicy, Outbox, PathAttributes,
    PathChoice, PeerConfig, PeerId, Policy, PolicyRule, Prefix, RibPolicy, Route, UpdateMessage,
};
use centralium_rpa::{
    Destination, NextHopWeight, PathSignature, PeerSignature, PrefixFilter, RouteAttributeRpa,
    RouteAttributeStatement, RouteFilterRpa, RouteFilterStatement, RpaDocument,
};
use centralium_simnet::{NetEvent, SimConfig, SimNet};
use centralium_telemetry::Telemetry;
use proptest::prelude::*;

const OWN_ASN: u32 = 1;

fn path(asns: &[u32]) -> PathAttributes {
    let mut attrs = PathAttributes::default();
    for asn in asns.iter().rev() {
        attrs.prepend(Asn(*asn), 1);
    }
    attrs
}

fn daemon_with_sessions(n: u64, wcmp_advertise: bool) -> BgpDaemon {
    let mut cfg = DaemonConfig::fabric(Asn(OWN_ASN));
    cfg.wcmp_advertise = wcmp_advertise;
    let mut d = BgpDaemon::new(cfg);
    for peer in 1..=n {
        d.add_peer(PeerConfig::open(
            PeerId(peer),
            Asn(100 + peer as u32),
            100.0,
        ));
        d.peer_up(PeerId(peer), &NativePolicy);
    }
    d
}

/// ROADMAP item 2's gate as a count: 64 sessions deliver the same prefix
/// one UPDATE at a time; only the arrival that moves the best path pays for
/// the fan-out.
#[test]
fn an_arrival_that_leaves_the_best_path_alone_evaluates_no_session() {
    let telemetry = Telemetry::new();
    let evals = telemetry.metrics().counter("bgp.export_evals");
    let mut d = daemon_with_sessions(64, false);
    d.set_telemetry(&telemetry, 0);
    for peer in 1..=64u64 {
        let before = evals.get();
        // Same preference from every session: the lowest session id wins
        // the tie-break, so the first arrival stays the advertised route.
        let out = d.handle_update(
            PeerId(peer),
            UpdateMessage::announce(Prefix::DEFAULT, path(&[100 + peer as u32, 9])),
            &NativePolicy,
        );
        if peer == 1 {
            // Every established session is visited, the split-horizon one
            // included; it is the one that gets nothing.
            assert_eq!(evals.get() - before, 64);
            assert_eq!(out.len(), 63);
            assert!(out.iter().all(|(to, _)| *to != PeerId(1)));
        } else {
            assert_eq!(evals.get() - before, 0, "arrival {peer} re-ran the export");
            assert!(out.is_empty(), "arrival {peer} emitted {out:?}");
        }
    }
    assert_eq!(d.fib()[0].nexthops.len(), 64, "all 64 paths in the group");
    assert!(d.reevaluate_all(&NativePolicy).is_empty());
}

/// Re-evaluation exports whether or not the decision moved: it is what
/// callers run after changing an input the decision cannot see.
#[test]
fn reevaluation_pushes_an_export_policy_swap_under_an_unchanged_best_path() {
    let mut d = daemon_with_sessions(3, false);
    d.handle_update(
        PeerId(1),
        UpdateMessage::announce(Prefix::DEFAULT, path(&[101, 9])),
        &NativePolicy,
    );
    assert!(d.advertised_to(PeerId(3), Prefix::DEFAULT).is_some());
    assert!(d.set_export_policy(PeerId(3), Policy::reject_all()));
    let out = d.reevaluate_all(&NativePolicy);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].0, PeerId(3));
    assert_eq!(out[0].1.withdrawn, vec![Prefix::DEFAULT]);
    assert!(d.advertised_to(PeerId(3), Prefix::DEFAULT).is_none());
    // The scoped form forces too.
    assert!(d.set_export_policy(PeerId(3), Policy::accept_all()));
    d.mark([Prefix::DEFAULT]);
    let out = Outbox::updates(|out| d.decide(&NativePolicy, &mut (), out));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].1.announced.len(), 1);
}

// ---- random sequences against the invariant -------------------------------

const SESSIONS: u64 = 16;

fn prefix_of(i: u8) -> Prefix {
    [
        Prefix::DEFAULT,
        Prefix::new(0x0A00_0000, 8),
        Prefix::new(0x0A01_0200, 24),
    ][i as usize % 3]
}

/// A small attribute palette: equal-cost paths, a shorter one, a longer
/// one, bandwidth communities (what `wcmp_advertise` relays), a local-pref
/// override and a looped path (an implicit withdraw).
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
            a
        }
        5 => {
            let mut a = path(&[first, 7, 8, 9]);
            a.local_pref = 200;
            a
        }
        _ => path(&[first, OWN_ASN, 9]),
    }
}

fn export_policy(i: u8) -> Policy {
    match i % 3 {
        0 => Policy::accept_all(),
        1 => Policy::reject_all(),
        _ => Policy::accept_all().rule(PolicyRule {
            matches: MatchExpr::any(),
            actions: vec![Action::Prepend(Asn(OWN_ASN), 2)],
        }),
    }
}

/// An egress filter plus the keep-warm guard, so the hook side of the
/// export and both keep-warm branches see traffic. `strict` is the hook
/// state a step may flip — followed, as the contract demands, by a
/// re-evaluation.
struct Hook {
    strict: bool,
}

impl RibPolicy for Hook {
    fn permit_egress(&self, peer: PeerId, _: Asn, prefix: Prefix, _: &Route) -> bool {
        !self.strict || !(peer.0 + prefix.len() as u64).is_multiple_of(3)
    }

    fn select_paths(&self, prefix: Prefix, _candidates: &[Route]) -> PathChoice {
        PathChoice::Native((prefix.len() == 8).then_some((2, true)))
    }
}

fn run_sequence(wcmp_advertise: bool, steps: &[(u8, u8, u8, u8)]) -> Result<(), TestCaseError> {
    let mut d = daemon_with_sessions(SESSIONS, wcmp_advertise);
    let mut hook = Hook { strict: false };
    for (n, &(op, peer, prefix, pick)) in steps.iter().enumerate() {
        let peer_no = 1 + peer as u64 % SESSIONS;
        let peer = PeerId(peer_no);
        let prefix = prefix_of(prefix);
        match op % 11 {
            0..=2 => {
                let update = UpdateMessage::announce(prefix, palette(pick, peer_no));
                d.handle_update(peer, update, &hook);
            }
            3 => {
                d.handle_update(peer, UpdateMessage::withdraw(prefix), &hook);
            }
            4 => {
                d.peer_down(peer);
                d.decide(&hook, &mut (), &mut Outbox::default());
            }
            5 => {
                d.peer_up(peer, &hook);
            }
            6 => {
                d.originate(prefix, palette(pick % 6, 0));
                d.decide(&hook, &mut (), &mut Outbox::default());
            }
            7 => {
                d.withdraw_origin(prefix);
                d.decide(&hook, &mut (), &mut Outbox::default());
            }
            8 => {
                d.set_export_policy(peer, export_policy(pick));
                d.reevaluate_all(&hook);
            }
            9 => {
                hook.strict = !hook.strict;
                d.reevaluate_all(&hook);
            }
            // An arrival and an export-policy swap's forcing mark before one
            // decide, in either order: the swap must reach every session.
            _ => {
                let update = UpdateMessage::announce(prefix, palette(pick, peer_no));
                let other = PeerId(1 + peer_no % SESSIONS);
                d.set_export_policy(other, export_policy(pick));
                if pick % 2 == 0 {
                    d.ingest(peer, update, &hook);
                    d.mark(d.known_prefixes());
                } else {
                    d.mark(d.known_prefixes());
                    d.ingest(peer, update, &hook);
                }
                d.decide(&hook, &mut (), &mut Outbox::default());
            }
        }
        let stale = d.clone().reevaluate_all(&hook);
        prop_assert!(
            stale.is_empty(),
            "step {} ({:?}) left Adj-RIB-Out stale: {:?}",
            n,
            steps[n],
            stale
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every step of a random operation sequence a full export finds
    /// nothing to say — with and without the capacity relay.
    #[test]
    fn adj_rib_out_is_always_what_a_full_export_would_compute(
        steps in proptest::collection::vec((0u8..11, 0u8..16, 0u8..3, 0u8..7), 1..48),
    ) {
        run_sequence(false, &steps)?;
        run_sequence(true, &steps)?;
    }
}

// ---- whole fabrics ---------------------------------------------------------

fn rack_prefix(pod: usize, rack: usize) -> Prefix {
    Prefix::new(
        0x0A00_0000 | ((pod as u32) << 16) | ((rack as u32) << 8),
        24,
    )
}

fn settle(net: &mut SimNet, stage: &str) {
    net.run_until_quiescent().expect_converged();
    net.verify_full_equivalence()
        .unwrap_or_else(|e| panic!("after {stage}: {e}"));
}

/// Cold multi-prefix origination, a session flap, a device bounce, an RPA
/// deploy and remove of each re-evaluation scope — and after every stage the
/// fabric is a silent fixed point of full re-evaluation.
fn churn_script(tier: &str, wcmp_advertise: bool) {
    let (topo, idx, _) = TierSpec::by_name(tier).expect("known tier").build();
    let cfg = SimConfig::builder()
        .seed(7)
        .wcmp_advertise(wcmp_advertise)
        .build();
    let mut net = SimNet::new(topo, cfg);
    net.establish_all();
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    for pod in 0..idx.rsw.len().min(4) {
        net.originate(
            idx.rsw[pod][0],
            rack_prefix(pod, 0),
            [well_known::RACK_PREFIX],
        );
    }
    settle(&mut net, "cold origination");

    let agg = idx.fsw[0][0];
    let (spine, _) = net.topology().uplinks(agg)[0];
    for (stage, up) in [("session down", false), ("session up", true)] {
        for (dev, other) in [(agg, spine), (spine, agg)] {
            let peer = PeerId::compose(other.0, 0);
            let event = if up {
                NetEvent::SessionUp { dev, peer }
            } else {
                NetEvent::SessionDown { dev, peer }
            };
            net.schedule_in(0, event);
        }
        settle(&mut net, stage);
    }

    let bounced = idx.fsw[1][0];
    net.device_down(bounced);
    settle(&mut net, "device down");
    net.device_up(bounced);
    settle(&mut net, "device up");

    // Scoped re-evaluation (`mark`): a weight on one uplink.
    let first = net.topology().device(spine).expect("spine").asn;
    let weights = RpaDocument::RouteAttribute(RouteAttributeRpa::single(
        "te",
        RouteAttributeStatement::new(
            Destination::Community(well_known::BACKBONE_DEFAULT_ROUTE),
            vec![NextHopWeight {
                signature: PathSignature {
                    first_asn: Some(first),
                    ..Default::default()
                },
                weight: 3,
            }],
        ),
    ));
    // Full re-evaluation (`reevaluate_all`): an egress allow list that
    // moves advertisements while every best path stays where it is.
    let filter = RpaDocument::RouteFilter(RouteFilterRpa {
        name: "default-only".into(),
        statements: vec![RouteFilterStatement {
            peer_signature: PeerSignature::Any,
            ingress_filter: None,
            egress_filter: Some(vec![PrefixFilter::exact(Prefix::DEFAULT)]),
        }],
    });
    for (name, doc) in [("te", weights), ("default-only", filter)] {
        net.deploy_rpa(agg, doc, 300);
        settle(&mut net, &format!("deploy {name}"));
        net.remove_rpa(agg, name, 300);
        settle(&mut net, &format!("remove {name}"));
    }
}

#[test]
fn fabrics_stay_silent_fixed_points_through_churn() {
    churn_script("default", false);
    churn_script("2k", false);
}

#[test]
fn so_does_a_fabric_that_relays_capacity() {
    churn_script("default", true);
}
