//! Integration tests pinning the paper's §3 pathologies and their RPA fixes
//! — the qualitative shapes every scenario artefact reports. The scenario
//! tests drive the `paper` entries' own procedures on the tiny fabric.

use centralium_bench::paper::{
    scenario_first_router, scenario_last_router, scenario_nhg_explosion, scenario_sequencing,
};
use centralium_bench::scenarios::fig9_rig;
use centralium_simnet::traffic::forwarding_cycle;
use centralium_topology::FabricSpec;

/// §3.2: native BGP funnels all traffic onto the first (shorter-path)
/// router; the equalization RPA keeps the fair share.
#[test]
fn first_router_collapse_and_rpa_fix() {
    let native = scenario_first_router::run(false, &FabricSpec::tiny(), 411).steady_share;
    let rpa = scenario_first_router::run(true, &FabricSpec::tiny(), 411).steady_share;
    assert!(
        native > 0.99,
        "native BGP collapses onto the first router, got {native}"
    );
    // Tiny fabric: each SSW has 2 FADU uplinks + FAv2 → fair share 1/3.
    assert!(
        (rpa - 1.0 / 3.0).abs() < 0.01,
        "RPA holds the fair share, got {rpa}"
    );
}

/// §3.3: under staggered drains the last live group member funnels the
/// group's traffic natively; the min-next-hop guard prevents it.
#[test]
fn last_router_funneling_and_rpa_fix() {
    let native_us = scenario_last_router::run(false, &FabricSpec::tiny(), 88).funnel_us;
    let rpa_us = scenario_last_router::run(true, &FabricSpec::tiny(), 88).funnel_us;
    assert!(
        native_us > 20_000,
        "native drains funnel for most of the stagger window, got {native_us}us"
    );
    assert!(
        rpa_us * 10 < native_us,
        "min-next-hop guard collapses the funneled window ({rpa_us}us vs {native_us}us)"
    );
}

/// §3.4: distributed WCMP mints transient next-hop groups past the hardware
/// table; the Route Attribute RPA keeps the count constant.
#[test]
fn nhg_explosion_and_rpa_fix() {
    use scenario_nhg_explosion::{run, Event, TINY};
    let native = run(TINY, false, false, Event::Drain, 55).0;
    let rpa = run(TINY, true, false, Event::Drain, 55).0;
    assert!(
        native.max_groups > 8,
        "native transient groups exceed the table capacity, got {}",
        native.max_groups
    );
    assert!(native.overflow_events > 0);
    assert_eq!(rpa.max_groups, 1, "RPA holds the group count constant");
    assert_eq!(rpa.group_creations, 0);
}

/// §5.3.1: advertising the best selected path builds a persistent loop;
/// the least-favorable rule removes it.
#[test]
fn dissemination_rule_prevents_loops() {
    let ablated = fig9_rig(false, 991);
    let cycle = forwarding_cycle(&ablated.net, &ablated.d);
    assert!(cycle.is_some(), "ablation must loop");
    let fixed = fig9_rig(true, 991);
    assert_eq!(forwarding_cycle(&fixed.net, &fixed.d), None);
    // And R6 still load-balances over both paths in both cases.
    for rig in [&ablated, &fixed] {
        let r6 = rig.net.device(rig.r[5]).unwrap();
        assert_eq!(r6.fib.entry(rig.d).unwrap().nexthops.len(), 2);
    }
}

/// §5.3.2: uncoordinated RPA deployment transiently funnels traffic; the
/// bottom-up safe order never does.
#[test]
fn deployment_sequencing_prevents_funneling() {
    let uncoordinated = scenario_sequencing::run(false, 77).peak_fa_share;
    let safe = scenario_sequencing::run(true, 77).peak_fa_share;
    assert!(
        uncoordinated > 0.99,
        "uncoordinated deployment funnels, got {uncoordinated}"
    );
    assert!(safe < 0.51, "safe order stays balanced, got {safe}");
}

/// §7.2 / Figure 14: the keep-FIB-warm mis-configuration black-holes
/// traffic toward a not-production-ready FA; the correct knob setting (and
/// the fib_warm_keeper app that derives it) keeps delivery intact.
#[test]
fn fib_warm_sev_reproduces_and_is_unrepresentable_via_app() {
    use centralium::apps::fib_warm_keeper::DestinationKind;
    use centralium_bench::scenarios::fig14_sev;
    let (sev_delivered, sev_blackholed) = fig14_sev(DestinationKind::Established, 14);
    assert!(
        sev_blackholed > 1.0,
        "the SEV black-holes traffic, got {sev_blackholed}"
    );
    assert!(sev_delivered < sev_blackholed + sev_delivered, "sanity");
    let (ok_delivered, ok_blackholed) = fig14_sev(DestinationKind::NewOrigination, 14);
    assert!(ok_blackholed < 1e-9, "correct knob: nothing black-holes");
    assert!(
        ok_delivered > sev_delivered,
        "correct knob delivers strictly more"
    );
}
