//! Regenerates **Figure 9 (§5.3.1)**: RPA path dissemination and loop
//! avoidance — the least-favorable-advertisement rule ablation.
//!
//! R6 runs a Path Selection RPA load-balancing prefix D over the paths via
//! R2 (short) and R5 (long). If R6 advertises its *best* selected path (what
//! native BGP would do), R5 ends up with two equal-length paths, enables
//! multipath on both, and a persistent forwarding loop forms between R5 and
//! R6. Advertising the *least favorable* selected path (the paper's rule)
//! makes the loop impossible.

use super::Artefact;
use crate::report::Table;
use crate::scenarios::fig9_rig;
use centralium_simnet::traffic::{forwarding_cycle, route_flows, TrafficMatrix, DEFAULT_MAX_HOPS};

/// The six-router rig is already small; `tiny` changes nothing.
pub(crate) fn artefact(_tiny: bool) -> Artefact {
    let mut out = Artefact::default();
    out.det("Figure 9 (§5.3.1): BGP path dissemination under a Path Selection RPA\n");
    let mut table = Table::new(&[
        "advertisement rule",
        "forwarding loop",
        "cycle",
        "R6 multipath",
        "delivery ratio",
    ]);
    for least_favorable in [false, true] {
        let rig = fig9_rig(least_favorable, 91);
        let cycle = forwarding_cycle(&rig.net, &rig.d);
        let tm = TrafficMatrix::uniform(&[rig.r[5]], rig.d, 10.0);
        let report = route_flows(&rig.net, &tm, DEFAULT_MAX_HOPS);
        let r6_paths = rig
            .net
            .device(rig.r[5])
            .and_then(|d| d.fib.entry(rig.d))
            .map(|e| e.nexthops.len())
            .unwrap_or(0);
        table.row(&[
            if least_favorable {
                "least favorable (paper rule)"
            } else {
                "native best (ablation)"
            }
            .to_string(),
            cycle.is_some().to_string(),
            cycle
                .map(|c| format!("{c:?}"))
                .unwrap_or_else(|| "-".to_string()),
            r6_paths.to_string(),
            format!("{:.4}", report.delivery_ratio(10.0)),
        ]);
    }
    out.det(table.render());
    out.det("Shape to check: the ablation forms a persistent R5<->R6 loop; the paper's");
    out.det("rule load-balances over both paths with zero looping traffic.");
    out
}
