//! Regenerates **Scenario 1 (§3.2 / Figure 2)**: the first-router problem in
//! topology expansion, native BGP vs Path Selection RPA.
//!
//! A new-generation aggregation unit ("FAv2") is commissioned that connects
//! the SSWs straight to the backbone, creating a path one AS hop shorter
//! than the existing FADU→FAUU paths. Under native BGP the first (and only)
//! FAv2 attracts *all* northbound traffic; with the equalization RPA
//! pre-deployed the new unit takes its fair ECMP share.

use super::Artefact;
use crate::report::Table;
use crate::scenarios::{converged_fabric, max_metric_during, SCENARIO_RPC_US};
use centralium::apps::path_equalization::equalize_on_layers;
use centralium::compile::compile_intent;
use centralium_bgp::attrs::well_known;
use centralium_bgp::Prefix;
use centralium_simnet::traffic::{route_flows, TrafficMatrix, DEFAULT_MAX_HOPS};
use centralium_simnet::SimNet;
use centralium_topology::{Asn, DeviceId, DeviceName, FabricSpec, Layer};

/// One mode's result.
pub struct Outcome {
    /// FAv2's share of northbound aggregation-layer transit at convergence.
    pub steady_share: f64,
    /// Peak share during the transitory states.
    pub transient_peak: f64,
    /// Traffic lost at any sampled transitory point.
    pub any_blackhole: bool,
}

fn fav2_share(net: &SimNet, sources: &[DeviceId], fav2: DeviceId, group: &[DeviceId]) -> f64 {
    let tm = TrafficMatrix::uniform(sources, Prefix::DEFAULT, 10.0);
    let report = route_flows(net, &tm, DEFAULT_MAX_HOPS);
    let total: f64 = group
        .iter()
        .map(|&d| report.device_transit.get(d).copied().unwrap_or(0.0))
        .sum();
    if total <= 0.0 {
        return 0.0;
    }
    report.device_transit.get(fav2).copied().unwrap_or(0.0) / total
}

/// Commission one FAv2 into a converged `spec` fabric, with or without the
/// equalization RPA pre-deployed, routing traffic after every event.
pub fn run(with_rpa: bool, spec: &FabricSpec, seed: u64) -> Outcome {
    let mut fab = converged_fabric(spec, seed);
    let sources: Vec<DeviceId> = fab.idx.rsw.iter().flatten().copied().collect();
    if with_rpa {
        // Pre-deploy equalization on the layers that will see the shorter
        // path (bottom-up safe order is exercised in scenario_sequencing).
        let intent = equalize_on_layers(
            well_known::BACKBONE_DEFAULT_ROUTE,
            Layer::Backbone,
            vec![Layer::Fsw, Layer::Ssw],
        );
        for (dev, doc) in compile_intent(fab.net.topology(), &intent).expect("compiles") {
            fab.net.deploy_rpa(dev, doc, SCENARIO_RPC_US);
        }
        fab.net.run_until_quiescent().expect_converged();
    }
    // Commission one FAv2: links to every SSW and every EB (shorter path).
    let ssws: Vec<DeviceId> = fab.idx.ssw.iter().flatten().copied().collect();
    let mut links: Vec<(DeviceId, f64)> = ssws.iter().map(|&s| (s, 400.0)).collect();
    links.extend(fab.idx.backbone.iter().map(|&e| (e, 400.0)));
    let fav2 = fab
        .net
        .commission_device(DeviceName::new(Layer::Fadu, 90, 0), Asn(45_000), &links);
    // Old aggregation group = all FADUs + the new FAv2.
    let mut group: Vec<DeviceId> = fab.idx.fadu.iter().flatten().copied().collect();
    group.push(fav2);
    let mut any_blackhole = false;
    let transient_peak = max_metric_during(&mut fab.net, |net| {
        let tm = TrafficMatrix::uniform(&sources, Prefix::DEFAULT, 10.0);
        let report = route_flows(net, &tm, DEFAULT_MAX_HOPS);
        if report.blackholed_gbps > 1e-9 {
            any_blackhole = true;
        }
        let total: f64 = group
            .iter()
            .map(|&d| report.device_transit.get(d).copied().unwrap_or(0.0))
            .sum();
        if total <= 0.0 {
            0.0
        } else {
            report.device_transit.get(fav2).copied().unwrap_or(0.0) / total
        }
    });
    let steady_share = fav2_share(&fab.net, &sources, fav2, &group);
    Outcome {
        steady_share,
        transient_peak,
        any_blackhole,
    }
}

/// The default 104-device fabric; `tiny` commissions into the tiny one.
pub(crate) fn artefact(tiny: bool) -> Artefact {
    let spec = if tiny {
        FabricSpec::tiny()
    } else {
        FabricSpec::default()
    };
    let mut out = Artefact::default();
    // Every SSW has one FADU uplink per grid plus the FAv2: the new unit's
    // fair ECMP share of aggregation-layer transit is 1/(grids+1).
    let fair = 1.0 / (spec.grids as f64 + 1.0);
    out.det("Scenario 1 (§3.2): first-router problem during topology expansion");
    out.det(format!(
        "fabric: {} FADUs + 1 commissioned FAv2; FAv2 fair share = {:.3}\n",
        spec.grids * spec.ssws_per_plane,
        fair
    ));
    let native = run(false, &spec, 71);
    let rpa = run(true, &spec, 71);
    let mut table = Table::new(&[
        "mode",
        "FAv2 steady share",
        "FAv2 transient peak",
        "blackholes",
    ]);
    table.row(&[
        "native BGP".into(),
        format!("{:.3}", native.steady_share),
        format!("{:.3}", native.transient_peak),
        native.any_blackhole.to_string(),
    ]);
    table.row(&[
        "with Path Selection RPA".into(),
        format!("{:.3}", rpa.steady_share),
        format!("{:.3}", rpa.transient_peak),
        rpa.any_blackhole.to_string(),
    ]);
    out.det(table.render());
    out.det("Shape to check: native steady share ≈ 1.0 (total collapse onto the first");
    out.det(format!("router); RPA steady share ≈ fair share {fair:.3}."));
    out
}
