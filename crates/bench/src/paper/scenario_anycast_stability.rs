//! Regenerates the **Differential Traffic Distribution** use case (Table 1
//! row c, §3.1): "we apply a special policy to anycast load-bearing prefixes
//! for routing stability during maintenance that breaks network symmetry."
//!
//! Workload: an anycast VIP originated by every backbone device plus a
//! rack-hosted fallback; a rolling maintenance cycle drains and restores
//! each FAUU in turn. Metric: how many times a FADU's forwarding entry for
//! the VIP *changes* during the cycle — next-hop churn is what breaks
//! long-lived connections on anycast services.
//!
//! * native BGP re-balances the VIP across whatever survives each step:
//!   every drain/undrain mutates the next-hop set;
//! * the PrimaryBackup RPA pins the VIP to the backbone path set while its
//!   floor holds, so symmetric-capacity churn leaves the entry untouched.

use super::Artefact;
use crate::report::Table;
use crate::scenarios::{converged_fabric, SCENARIO_RPC_US};
use centralium::apps::anycast_stability::anycast_stability_intent;
use centralium::compile::compile_intent;
use centralium_bgp::attrs::well_known;
use centralium_bgp::{PeerId, Prefix};
use centralium_topology::{DeviceId, FabricSpec, Layer};

fn vip() -> Prefix {
    "10.200.0.0/16".parse().expect("prefix")
}

/// Count how many times the FADU's VIP next-hop set changes across the
/// rolling maintenance cycle, and whether the VIP was ever unreachable.
pub(crate) fn run(with_rpa: bool, spec: &FabricSpec, seed: u64) -> (usize, bool) {
    let mut fab = converged_fabric(spec, seed);
    for &eb in &fab.idx.backbone {
        fab.net.originate(eb, vip(), [well_known::ANYCAST_VIP]);
    }
    fab.net
        .originate(fab.idx.rsw[0][0], vip(), [well_known::ANYCAST_VIP]);
    fab.net.run_until_quiescent().expect_converged();
    if with_rpa {
        let intent = anycast_stability_intent(Layer::Backbone, 2, Layer::Rsw, vec![Layer::Fadu]);
        for (dev, doc) in compile_intent(fab.net.topology(), &intent).expect("compiles") {
            fab.net.deploy_rpa(dev, doc, SCENARIO_RPC_US);
        }
        fab.net.run_until_quiescent().expect_converged();
    }
    let watch: DeviceId = fab.idx.fadu[0][0];
    let snapshot = |net: &centralium_simnet::SimNet| -> Vec<(PeerId, u32)> {
        net.device(watch)
            .and_then(|d| d.fib.entry(vip()).map(|e| e.nexthops.to_vec()))
            .unwrap_or_default()
    };
    let mut last = snapshot(&fab.net);
    let mut changes = 0usize;
    let mut ever_lost = last.is_empty();
    // Rolling maintenance: drain and restore every FAUU in the watched
    // FADU's grid, one at a time, sampling after every event.
    let cycle: Vec<DeviceId> = fab.idx.fauu[0].clone();
    for &fauu in &cycle {
        fab.net.drain_device(fauu);
        while fab.net.step() {
            let cur = snapshot(&fab.net);
            if cur != last {
                changes += 1;
                ever_lost |= cur.is_empty();
                last = cur;
            }
        }
        fab.net.undrain_device(fauu);
        while fab.net.step() {
            let cur = snapshot(&fab.net);
            if cur != last {
                changes += 1;
                ever_lost |= cur.is_empty();
                last = cur;
            }
        }
    }
    (changes, ever_lost)
}

/// The default 104-device fabric; `tiny` cycles the tiny fabric's FAUUs.
pub(crate) fn artefact(tiny: bool) -> Artefact {
    let spec = if tiny {
        FabricSpec::tiny()
    } else {
        FabricSpec::default()
    };
    let mut out = Artefact::default();
    out.det("Differential Traffic Distribution (§3.1): anycast VIP stability during a");
    out.det("rolling FAUU maintenance cycle (drain + restore each unit in turn)\n");
    let (native_changes, native_lost) = run(false, &spec, 61);
    let (rpa_changes, rpa_lost) = run(true, &spec, 61);
    let mut table = Table::new(&["mode", "VIP next-hop set changes", "VIP ever unreachable"]);
    table.row(&[
        "native BGP".into(),
        native_changes.to_string(),
        native_lost.to_string(),
    ]);
    table.row(&[
        "PrimaryBackup RPA".into(),
        rpa_changes.to_string(),
        rpa_lost.to_string(),
    ]);
    out.det(table.render());
    out.det("Shape to check: the RPA pins the VIP to the backbone path set, so the rolling");
    out.det("cycle produces strictly fewer forwarding changes than native re-balancing —");
    out.det("the 'routing stability during maintenance' of §3.1.");
    out
}
