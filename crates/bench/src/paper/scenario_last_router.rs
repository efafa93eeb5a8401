//! Regenerates **Scenario 2 (§3.3 / Figure 4)**: the last-router problem in
//! decommission, native BGP vs `BgpNativeMinNextHop` RPA.
//!
//! All FADU-0s (one per grid, the group SSW-0s depend on) drain with
//! staggered timing. Under native BGP, transitory states leave a shrinking
//! ECMP group on the SSW-0s; the last live FADU-0 attracts the plane's full
//! traffic. With the min-next-hop RPA the SSW-0s withdraw the route as soon
//! as the group shrinks below its full complement (FIB kept warm), steering
//! traffic to other planes before any funneling can form.

use super::Artefact;
use crate::report::Table;
use crate::scenarios::{converged_fabric, time_above_threshold, SCENARIO_RPC_US};
use centralium::apps::decommission::protection_intent;
use centralium::compile::compile_intent;
use centralium_bgp::attrs::well_known;
use centralium_bgp::Prefix;
use centralium_rpa::MinNextHop;
use centralium_simnet::traffic::{route_flows, TrafficMatrix, DEFAULT_MAX_HOPS};
use centralium_simnet::SimTime;
use centralium_topology::{DeviceId, FabricSpec};

/// One mode's result.
pub struct Outcome {
    /// Peak single-member share of the drained group's transit during the
    /// transition (1/|group| = balanced; 1.0 = last-router collapse).
    pub transient_peak_share: f64,
    /// Simulated time (µs) the group spent funneled (share > 0.9) — the
    /// risk-weighted metric: a one-message-delay blip is harmless, a window
    /// spanning the whole staggered drain is an outage.
    pub funnel_us: SimTime,
    /// Peak Gbps black-holed at any sampled transitory point.
    pub peak_blackholed: f64,
}

/// Drain every grid's FADU-0 of a converged `spec` fabric 30 ms apart,
/// with or without the min-next-hop RPA on the SSW-0s.
pub fn run(with_rpa: bool, spec: &FabricSpec, seed: u64) -> Outcome {
    let mut fab = converged_fabric(spec, seed);
    let sources: Vec<DeviceId> = fab.idx.rsw.iter().flatten().copied().collect();
    // The group being decommissioned: FADU-0 of every grid.
    let fadu0s: Vec<DeviceId> = fab.idx.fadu.iter().map(|g| g[0]).collect();
    // The switches that lose next-hops: SSW-0 of every plane.
    let ssw0s: Vec<DeviceId> = fab.idx.ssw.iter().map(|p| p[0]).collect();
    if with_rpa {
        // Require the full FADU complement; withdraw (FIB warm) otherwise.
        let intent = protection_intent(
            well_known::BACKBONE_DEFAULT_ROUTE,
            ssw0s,
            MinNextHop::Fraction(1.0),
        );
        for (dev, doc) in compile_intent(fab.net.topology(), &intent).expect("compiles") {
            fab.net.deploy_rpa(dev, doc, SCENARIO_RPC_US);
        }
        fab.net.run_until_quiescent().expect_converged();
    }
    // Staggered drain: each FADU-0's drain lands 30 ms apart, so transitory
    // states with exactly one live member are guaranteed to exist.
    for (i, &f) in fadu0s.iter().enumerate() {
        fab.net.schedule_in(
            (i as u64) * 30_000,
            centralium_simnet::NetEvent::SetExportPolicy {
                dev: f,
                policy: Box::new(centralium_simnet::SimNet::drain_export_policy(
                    fab.net.device(f).expect("fadu").daemon.asn(),
                )),
            },
        );
    }
    let mut peak_blackholed = 0.0f64;
    let mut transient_peak_share = 0.0f64;
    let funnel_us = time_above_threshold(&mut fab.net, 0.9, |net| {
        let tm = TrafficMatrix::uniform(&sources, Prefix::DEFAULT, 10.0);
        let report = route_flows(net, &tm, DEFAULT_MAX_HOPS);
        peak_blackholed = peak_blackholed.max(report.blackholed_gbps);
        let share = report.funneling_ratio(&fadu0s);
        transient_peak_share = transient_peak_share.max(share);
        share
    });
    Outcome {
        transient_peak_share,
        funnel_us,
        peak_blackholed,
    }
}

/// The default 104-device fabric; `tiny` drains the tiny one.
pub(crate) fn artefact(tiny: bool) -> Artefact {
    let spec = if tiny {
        FabricSpec::tiny()
    } else {
        FabricSpec::default()
    };
    let mut out = Artefact::default();
    out.det("Scenario 2 (§3.3): last-router problem during decommission");
    out.det(format!(
        "group: {} FADU-0s drained with 30 ms stagger; balanced share = {:.3}\n",
        spec.grids,
        1.0 / spec.grids as f64
    ));
    let native = run(false, &spec, 72);
    let rpa = run(true, &spec, 72);
    let mut table = Table::new(&[
        "mode",
        "peak member share",
        "funneled time (ms)",
        "peak blackholed Gbps",
    ]);
    table.row(&[
        "native BGP".into(),
        format!("{:.3}", native.transient_peak_share),
        format!("{:.1}", native.funnel_us as f64 / 1_000.0),
        format!("{:.3}", native.peak_blackholed),
    ]);
    table.row(&[
        "with BgpNativeMinNextHop RPA".into(),
        format!("{:.3}", rpa.transient_peak_share),
        format!("{:.1}", rpa.funnel_us as f64 / 1_000.0),
        format!("{:.3}", rpa.peak_blackholed),
    ]);
    out.det(table.render());
    out.det("Shape to check: natively the group spends most of the staggered-drain window");
    out.det("funneled onto its last live member; with the RPA the SSW-0s withdraw early,");
    out.det("the warm FIB keeps spreading in-flight packets over the full (drained-but-");
    out.det("forwarding) next-hop set, and the funneled time collapses to ~zero.");
    out
}
