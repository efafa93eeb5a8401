//! Regenerates the **Figure 14 Site EVent (§7.2)**: an incorrectly set
//! `KeepFibWarmIfMnhViolated` knob turns a protective RPA into a black-hole.
//!
//! Operators originate a new route (more specific than the default) from the
//! FA layer. A Path Selection RPA with `BgpNativeMinNextHop` is pre-deployed
//! on SSWs so a switch only advertises the new route when enough next-hops
//! exist. During the migration, an FA that was **not production ready**
//! (missing backbone cabling) unexpectedly originates the route:
//!
//! * knob set (the SEV): the lone-path route is withheld from advertisement
//!   — correctly — but still lands in SSW FIBs; packets that reach an SSW
//!   via the default route match the more-specific entry, head to the bad
//!   FA, and die;
//! * knob unset: the route never enters the FIB; packets keep following the
//!   default route toward healthy FAs and deliver.
//!
//! The `fib_warm_keeper` app makes the misconfiguration unrepresentable by
//! deriving the knob from whether the destination is established or newly
//! originated.

use super::Artefact;
use crate::report::Table;
use crate::scenarios::fig14_sev;
use centralium::apps::fib_warm_keeper::DestinationKind;

/// The experiment already runs on the tiny fabric; `tiny` changes nothing.
pub(crate) fn artefact(_tiny: bool) -> Artefact {
    let mut out = Artefact::default();
    out.det("Figure 14 (§7.2): the KeepFibWarmIfMnhViolated mis-configuration SEV");
    out.det("A not-production-ready FA originates a new more-specific route; the SSWs'");
    out.det("min-next-hop RPA correctly withholds it from advertisement — but the knob");
    out.det("decides whether it still lands in their FIBs.\n");
    let (sev_del, sev_bh) = fig14_sev(DestinationKind::Established, 14);
    let (ok_del, ok_bh) = fig14_sev(DestinationKind::NewOrigination, 14);
    let mut table = Table::new(&[
        "KeepFibWarmIfMnhViolated",
        "delivered Gbps",
        "blackholed Gbps",
    ]);
    table.row(&[
        "true (the SEV)".into(),
        format!("{sev_del:.1}"),
        format!("{sev_bh:.1}"),
    ]);
    table.row(&[
        "false (correct for new routes)".into(),
        format!("{ok_del:.1}"),
        format!("{ok_bh:.1}"),
    ]);
    out.det(table.render());
    out.det("Shape to check: with the knob set, traffic matching the new route black-holes");
    out.det("toward the bad FA; with it unset, packets follow the default route to healthy");
    out.det("aggregation and deliver. The fib_warm_keeper app derives the knob from the");
    out.det("destination kind, making the SEV unrepresentable.");
    out
}
