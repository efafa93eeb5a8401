//! Regenerates **Figure 13**: effective network capacity under maintenance
//! events — centralized TE (via Route Attribute RPAs) vs ECMP vs the ideal
//! WCMP bound.
//!
//! "Our TE consistently performs close to theoretical optimum (ideal WCMP),
//! and not-surprisingly better than ECMP. This improvement in effective
//! capacity enabled up to 45% of maintenance events that would have
//! otherwise been blocked due to Service Level Agreement violations."
//!
//! Workload: K randomized maintenance events, each removing a batch of
//! FAUU↔EB links (breaking the DCN↔backbone symmetry). For each event the
//! three schemes' effective capacities are computed; the series is reported
//! normalized to the ideal bound, plus the fraction of events each scheme
//! "unblocks" at an SLA threshold.

use super::Artefact;
use crate::report::Table;
use crate::stats::mean;
use centralium_te::{ecmp_weights, max_flow, optimize_weights, Demands, UpGraph};
use centralium_topology::{build_fabric, FabricSpec, Layer, LinkId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// SLA: the event is blocked if effective capacity drops below this fraction
/// of the healthy fabric's demandable capacity.
const SLA_FRACTION: f64 = 0.70;

/// 40 events; `tiny` runs the first 8 of the same seeded stream.
pub(crate) fn artefact(tiny: bool) -> Artefact {
    let events = if tiny { 8 } else { 40 };
    let mut out = Artefact::default();
    let spec = FabricSpec {
        backbone_devices: 8,
        ..FabricSpec::default()
    };
    let mut rng = StdRng::seed_from_u64(1313);
    let (base_topo, idx, _) = build_fabric(&spec);
    let sources: Vec<_> = idx.fadu.iter().flatten().copied().collect();
    let demands = Demands::uniform(&sources, 50.0);

    // Healthy-fabric ideal capacity = the SLA reference.
    let healthy = UpGraph::from_topology(&base_topo, &idx.backbone);
    let healthy_ideal = max_flow::effective_capacity_bound(&healthy, &demands);
    let sla = SLA_FRACTION * healthy_ideal;

    let fauus: Vec<_> = idx.fauu.iter().flatten().copied().collect();
    let boundary_count = base_topo
        .links()
        .filter(|l| base_topo.device(l.a).map(|d| d.layer()) == Some(Layer::Fauu))
        .count();

    let mut rows = Vec::new();
    let (mut ecmp_ok, mut te_ok) = (0usize, 0usize);
    for event in 0..events {
        let mut topo = base_topo.clone();
        topo.rebuild_indices();
        // Maintenance is device-concentrated: pick 1–3 FAUUs and take down
        // 50–90% of each one's backbone links (cabling work, linecard swaps)
        // — strong per-device asymmetry, exactly what breaks ECMP.
        let n_victims = rng.gen_range(1..=3usize);
        let mut victims = fauus.clone();
        victims.shuffle(&mut rng);
        let mut count = 0usize;
        for &fauu in victims.iter().take(n_victims) {
            let mut uplinks: Vec<LinkId> = topo.uplinks(fauu).into_iter().map(|(_, l)| l).collect();
            uplinks.shuffle(&mut rng);
            let cut = (uplinks.len() * rng.gen_range(50..=90usize)) / 100;
            for l in uplinks.into_iter().take(cut) {
                topo.remove_link(l);
                count += 1;
            }
        }
        let graph = UpGraph::from_topology(&topo, &idx.backbone);
        let ideal = max_flow::effective_capacity_bound(&graph, &demands);
        let ecmp = centralium_te::effective_capacity(&graph, &demands, &ecmp_weights(&graph));
        let te_weights = optimize_weights(&graph, &demands, 150);
        let te = centralium_te::effective_capacity(&graph, &demands, &te_weights);
        if ecmp >= sla {
            ecmp_ok += 1;
        }
        if te >= sla {
            te_ok += 1;
        }
        rows.push((
            event,
            count,
            ecmp / ideal,
            te / ideal,
            ideal / healthy_ideal,
        ));
    }

    out.det(format!(
        "Figure 13: effective capacity under {} maintenance events ({} boundary links, SLA = {:.0}% of healthy ideal)\n",
        events,
        boundary_count,
        SLA_FRACTION * 100.0
    ));
    let mut table = Table::new(&[
        "event",
        "links cut",
        "ECMP/ideal",
        "TE/ideal",
        "ideal/healthy",
    ]);
    for (event, cut, e, t, i) in &rows {
        table.row(&[
            event.to_string(),
            cut.to_string(),
            format!("{e:.3}"),
            format!("{t:.3}"),
            format!("{i:.3}"),
        ]);
    }
    out.det(table.render());
    let ecmp_frac: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let te_frac: Vec<f64> = rows.iter().map(|r| r.3).collect();
    out.det(format!(
        "mean ECMP/ideal {:.3}   mean TE/ideal {:.3}",
        mean(&ecmp_frac),
        mean(&te_frac)
    ));
    out.det(format!(
        "events meeting the SLA: ECMP {}/{}  TE {}/{}",
        ecmp_ok, events, te_ok, events
    ));
    if te_ok > ecmp_ok {
        out.det(format!(
            "TE unblocks {:.0}% of the events ECMP would block (paper: up to 45% of maintenance unblocked)",
            100.0 * (te_ok - ecmp_ok) as f64 / (events - ecmp_ok).max(1) as f64
        ));
    }
    out.det("\nShape to check: TE ≈ ideal WCMP > ECMP on every event.");
    out
}
