//! Regenerates **Figure 12**: CDF of RPA deployment time (ms).
//!
//! "In Figure 12, we show a distribution of RPA deployment time (how long it
//! takes to update RPAs in BGP via RPC). The results are collected for the
//! FAUU layer, as they are physically the most distant from server racks,
//! where Centralium services are running. Most RPA updates complete within
//! one millisecond."
//!
//! Measurement: for every FAUU in a full fabric, the controller issues the
//! install RPC; the sample is the management-plane RPC latency (SPF distance
//! from the controller's rack) plus the measured wall-clock time the BGP
//! daemon spends installing the document and re-running its decision process.

use super::{split_host_time, Artefact};
use crate::report::{metrics_diff_table, phase_table};
use crate::scenarios::converged_fabric;
use crate::stats::{percentile, render_cdf};
use centralium::apps::path_equalization::equalize_on_layers;
use centralium::compile::compile_intent;
use centralium_bgp::attrs::well_known;
use centralium_simnet::{FibScratch, ManagementPlane};
use centralium_topology::{FabricSpec, Layer};
use std::time::Instant;

/// The one-line summary of the samples: device count, p50 / p99 and the
/// share that completed within 1 ms.
pub(crate) fn summary(samples_ms: &[f64]) -> String {
    let sub_ms = samples_ms.iter().filter(|&&s| s <= 1.0).count();
    format!(
        "summary: devices {} p50_ms {:.3} p99_ms {:.3} sub_ms_fraction {:.3}",
        samples_ms.len(),
        percentile(samples_ms, 50.0),
        percentile(samples_ms, 99.0),
        sub_ms as f64 / samples_ms.len() as f64,
    )
}

/// 32 FAUUs; `tiny` deploys to the tiny fabric's 4.
pub fn artefact(tiny: bool) -> Artefact {
    let spec = if tiny {
        FabricSpec::tiny()
    } else {
        FabricSpec {
            pods: 8,
            planes: 4,
            ssws_per_plane: 8,
            racks_per_pod: 8,
            grids: 4,
            fauus_per_grid: 8,
            backbone_devices: 8,
            link_capacity_gbps: 100.0,
        }
    };
    let mut out = Artefact::default();
    let mut fab = converged_fabric(&spec, 12);
    let tel = fab.net.telemetry().clone();
    let before = tel.metrics().snapshot();
    let mgmt = ManagementPlane::compute(fab.net.topology(), fab.idx.rsw[0][0]);
    let plan_span = tel.phase("plan", fab.net.now());
    let intent = equalize_on_layers(
        well_known::BACKBONE_DEFAULT_ROUTE,
        Layer::Backbone,
        vec![Layer::Fauu],
    );
    let docs = compile_intent(fab.net.topology(), &intent).expect("compiles");
    plan_span.finish(fab.net.now());
    let wave_span = tel.phase("wave 1 (Fauu)", fab.net.now());
    let mut samples_ms = Vec::with_capacity(docs.len());
    let mut scratch = FibScratch::default();
    for (dev, doc) in docs {
        let rpc_us = mgmt.rpc_latency_us(dev).expect("reachable") as f64;
        let device = fab.net.device_mut(dev).expect("device");
        let t = Instant::now();
        device.engine.install_or_replace(doc).expect("installs");
        let out = device.with_daemon(&mut scratch, |d, e| d.reevaluate_all(e));
        let install_us = t.elapsed().as_secs_f64() * 1e6;
        let _ = out; // propagation is not part of the deployment-time metric
        samples_ms.push((rpc_us + install_us) / 1_000.0);
    }
    wave_span.finish(fab.net.now());
    // Let the triggered re-advertisements drain so the fabric stays sane.
    let converge_span = tel.phase("converge", fab.net.now());
    fab.net.run_until_quiescent();
    converge_span.finish(fab.net.now());
    out.det(format!(
        "Figure 12: CDF of RPA deployment time, FAUU layer ({} devices)\n",
        samples_ms.len()
    ));
    out.host(render_cdf("RPA deployment time", "ms", &samples_ms));
    let sub_ms = samples_ms.iter().filter(|&&s| s <= 1.0).count();
    out.host(format!(
        "{:.1}% of deployments complete within 1 ms (paper: 'most RPA updates complete within one millisecond')",
        100.0 * sub_ms as f64 / samples_ms.len() as f64
    ));
    out.host(format!(
        "\nPer-phase deployment timing:\n{}",
        phase_table(&tel.spans()).render()
    ));
    let (det, host) = split_host_time(&tel.metrics().snapshot().diff(&before));
    out.det(format!(
        "Telemetry delta over the deployment:\n{}",
        metrics_diff_table(&det).render()
    ));
    out.host(format!(
        "Telemetry delta over the deployment, wall-clock metrics:\n{}",
        metrics_diff_table(&host).render()
    ));
    out.host(summary(&samples_ms));
    out
}
