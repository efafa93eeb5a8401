//! Regenerates the **§6.2 claim**: "the controller is able to consistently
//! generate RPAs for a full DC in under 200 milliseconds."
//!
//! The workload compiles a fleet-wide equalization intent plus a per-switch
//! min-next-hop protection intent (fraction resolution touches topology) for
//! a production-proportioned fabric. The sample is the wall-clock time of
//! one `compile_intent` call; the artefact reports each intent's median.

use super::Artefact;
use crate::stats::percentile;
use centralium::compile::compile_intent;
use centralium::intent::{RoutingIntent, TargetSet};
use centralium_bgp::attrs::well_known;
use centralium_rpa::MinNextHop;
use centralium_topology::{build_fabric, FabricSpec, Layer, Topology};
use std::time::Instant;

/// The 2,960-device fabric of Figure 3.
fn full_dc_spec() -> FabricSpec {
    FabricSpec {
        pods: 48,
        planes: 8,
        ssws_per_plane: 16,
        racks_per_pod: 48,
        grids: 4,
        fauus_per_grid: 16,
        backbone_devices: 16,
        link_capacity_gbps: 100.0,
    }
}

/// Compile `intent` `samples` times; returns the document count and the
/// median wall ms.
fn measure(topo: &Topology, intent: &RoutingIntent, samples: usize) -> (usize, f64) {
    let mut docs = 0;
    let mut ms = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        docs = std::hint::black_box(compile_intent(topo, intent).expect("compiles").len());
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (docs, percentile(&ms, 50.0))
}

/// 20 compiles of each intent for a full DC; `tiny` compiles 3 of each for
/// the default fabric.
pub(crate) fn artefact(tiny: bool) -> Artefact {
    let (spec, samples) = if tiny {
        (FabricSpec::default(), 3)
    } else {
        (full_dc_spec(), 20)
    };
    let mut out = Artefact::default();
    let (topo, _, _) = build_fabric(&spec);
    let equalize = RoutingIntent::EqualizePaths {
        destination: well_known::BACKBONE_DEFAULT_ROUTE,
        origin_layer: Layer::Backbone,
        targets: TargetSet::Layers(vec![Layer::Fsw, Layer::Ssw, Layer::Fadu, Layer::Fauu]),
    };
    let protect = RoutingIntent::MinNextHopProtection {
        destination: well_known::BACKBONE_DEFAULT_ROUTE,
        min: MinNextHop::Fraction(0.75),
        keep_fib_warm: true,
        targets: TargetSet::Layer(Layer::Ssw),
    };
    out.det(format!(
        "§6.2: RPA generation for a {}-device fabric, median of {samples} compiles\n",
        topo.device_count()
    ));
    for (label, intent) in [
        ("equalize FSW/SSW/FADU/FAUU", &equalize),
        ("min-next-hop on every SSW", &protect),
    ] {
        let (docs, median_ms) = measure(&topo, intent, samples);
        out.det(format!("  {label:<27} {docs:>5} documents"));
        out.host(format!("  {label:<27} {median_ms:>9.3} ms median compile"));
    }
    out.det("\nShape to check: each median compile (host-time block) stays under the");
    out.det("paper's 200 ms for a full DC.");
    out
}
