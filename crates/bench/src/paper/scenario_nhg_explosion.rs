//! Regenerates **Scenario 3 (§3.4 / Figure 5)**: transient next-hop-group
//! explosion during distributed WCMP convergence, vs the Route Attribute RPA.
//!
//! `EB[1:8]` originate N prefixes toward `UU[1:4]`; each UU relays them to a DU
//! over two parallel sessions with link-bandwidth communities. EB1 and EB2
//! then enter MAINTENANCE. Every (prefix, session) converges independently,
//! so the DU transiently observes many distinct 8-session weight vectors —
//! each a distinct next-hop group object. With the RPA prescribing static
//! weights a priori, the group count stays constant.

use super::{split_host_time, Artefact};
use crate::report::{metrics_diff_table, phase_table, Table};
use crate::scenarios::fig5_rig;
use centralium_simnet::NhgStats;
use centralium_telemetry::span::SpanRecord;
use centralium_telemetry::MetricsSnapshot;

/// N prefixes and the DU's group-table capacity, at paper scale.
const FULL: (usize, usize) = (256, 32);
/// The smoke-scale rig: a quarter of the prefixes and of the table.
pub const TINY: (usize, usize) = (64, 8);

/// Which maintenance event hits EB1/EB2.
#[derive(Clone, Copy)]
pub enum Event {
    /// Preset export policy (less favorable attributes) — §3.4's example.
    /// Session membership at the DU never changes, only weights do.
    Drain,
    /// Whole EB fleet powers off: UUs withdraw prefixes one by one as their
    /// last paths vanish, so the DU's per-prefix session membership varies
    /// transiently — the churn that defeats member-set dedup heuristics.
    PowerOff,
}

/// Converge the rig, reset the DU's group counters, hit the EBs with
/// `event` and run to quiescence. Returns the DU's group statistics for the
/// transition, the telemetry delta and the fabric's spans (the maintenance
/// phase among them).
pub fn run(
    (n_prefixes, du_nhg_capacity): (usize, usize),
    with_rpa: bool,
    dedup_heuristic: bool,
    event: Event,
    seed: u64,
) -> (NhgStats, MetricsSnapshot, Vec<SpanRecord>) {
    let mut rig = fig5_rig(n_prefixes, du_nhg_capacity, seed, with_rpa);
    {
        let fib = &mut rig.net.device_mut(rig.du).expect("du").fib;
        fib.dedup_heuristic = dedup_heuristic;
        // Steady state reached; reset counters so only the maintenance
        // transition is measured.
        fib.reset_stats();
    }
    let tel = rig.net.telemetry().clone();
    let before = tel.metrics().snapshot();
    let span = tel.phase("maintenance", rig.net.now());
    match event {
        Event::Drain => {
            rig.net.drain_device(rig.ebs[0]);
            rig.net.drain_device(rig.ebs[1]);
        }
        Event::PowerOff => {
            for &eb in &rig.ebs {
                rig.net.device_down(eb);
            }
        }
    }
    rig.net.run_until_quiescent().expect_converged();
    span.finish(rig.net.now());
    let delta = tel.metrics().snapshot().diff(&before);
    let stats = rig.net.device(rig.du).expect("du").fib.nhg_stats();
    (stats, delta, tel.spans())
}

/// 256 prefixes into a 32-group table; `tiny` runs the [`TINY`] rig.
pub(crate) fn artefact(tiny: bool) -> Artefact {
    let (n_prefixes, du_nhg_capacity) = if tiny { TINY } else { FULL };
    let mut out = Artefact::default();
    out.det("Scenario 3 (§3.4): transient next-hop-group explosion at the DU");
    out.det(format!(
        "rig: 8 EBs x 4 UUs x 1 DU, 2 sessions per UU-DU pair, N = {n_prefixes} prefixes, DU group table holds {du_nhg_capacity}\n"
    ));
    let mut table = Table::new(&[
        "mode",
        "event",
        "peak groups (transient)",
        "group creations",
        "table overflows",
    ]);
    let rows: [(&str, bool, bool, Event); 5] = [
        ("distributed WCMP (native)", false, false, Event::Drain),
        ("native + dedup heuristic", false, true, Event::Drain),
        ("native + dedup heuristic", false, true, Event::PowerOff),
        ("Route Attribute RPA", true, false, Event::Drain),
        ("Route Attribute RPA", true, false, Event::PowerOff),
    ];
    let mut last_delta = None;
    let mut phases: Vec<SpanRecord> = Vec::new();
    for (label, rpa, dedup, event) in rows {
        let (stats, delta, mut run_phases) = run((n_prefixes, du_nhg_capacity), rpa, dedup, event, 34);
        let event_name = match event {
            Event::Drain => "drain",
            Event::PowerOff => "power-off",
        };
        for p in &mut run_phases {
            p.name = format!("{label} / {event_name}").into();
        }
        phases.extend(run_phases);
        last_delta = Some(delta);
        table.row(&[
            label.into(),
            event_name.into(),
            stats.max_groups.to_string(),
            stats.group_creations.to_string(),
            stats.overflow_events.to_string(),
        ]);
    }
    out.det(table.render());
    out.host("Per-run convergence timing (maintenance event → quiescence):");
    out.host(phase_table(&phases).render());
    if let Some(delta) = last_delta {
        let (det, host) = split_host_time(&delta);
        out.det("Telemetry delta for the final run (Route Attribute RPA, power-off):");
        out.det(metrics_diff_table(&det).render());
        out.host("Telemetry delta for the final run, wall-clock metrics:");
        out.host(metrics_diff_table(&host).render());
    }
    out.det("Combinatorial bound from the paper: up to s^m per-UU states and 4^8 = 65536");
    out.det("possible groups at the DU.");
    out.det("");
    out.det("Shapes to check:");
    out.det("  - native WCMP drain convergence peaks far above the table (overflows > 0);");
    out.det("    the Route Attribute RPA holds the group count constant — maintenance is");
    out.det("    exactly the attribute-churn case the RPA 'fundamentally eliminates' (§4.3);");
    out.det("  - the member-set dedup heuristic (the §3.4 'native approach', e.g. in-place");
    out.det("    adjacency replace) also absorbs weight-only churn, but it is best effort:");
    out.det("    per-prefix membership churn (whole EB fleet withdrawing) still explodes,");
    out.det("    with or without the heuristic — no scheme can share groups across");
    out.det("    genuinely different next-hop sets, which is why the paper calls such");
    out.det("    optimizations 'not guaranteed to provide protections in every convergence");
    out.det("    event'.");
    out
}
