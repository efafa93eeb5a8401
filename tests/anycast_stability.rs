//! End-to-end anycast stability (Differential Traffic Distribution, §3.1):
//! a VIP prefix originated by multiple backbone devices is pinned to the
//! backbone path set while at least `min` origins remain live; only then
//! does selection fall back to the in-fabric backup origin — instead of the
//! per-path flapping native BGP would exhibit during maintenance.

use centralium::apps::anycast_stability::anycast_stability_intent;
use centralium::compile::compile_intent;
use centralium_bench::scenarios::converged_fabric;
use centralium_bgp::attrs::well_known;
use centralium_bgp::{PeerId, Prefix};
use centralium_topology::{DeviceId, FabricSpec, Layer};

const VIP: &str = "10.200.0.0/16";

struct Rig {
    fab: centralium_bench::scenarios::ConvergedFabric,
    vip: Prefix,
    fadu: DeviceId,
}

fn rig() -> Rig {
    let mut fab = converged_fabric(&FabricSpec::tiny(), 4004);
    let vip: Prefix = VIP.parse().unwrap();
    // Primary origins: both backbone devices (the global anycast fleet).
    for &eb in &fab.idx.backbone {
        fab.net.originate(eb, vip, [well_known::ANYCAST_VIP]);
    }
    // Backup origin: a rack-hosted fallback instance of the service.
    fab.net
        .originate(fab.idx.rsw[0][0], vip, [well_known::ANYCAST_VIP]);
    fab.net.run_until_quiescent().expect_converged();
    // Deploy the stability RPA on the FADU layer, which hears both the
    // backbone paths (via its FAUUs) and the rack path (via its SSWs):
    // primary = backbone originations with a floor of 2, backup = rack
    // originations.
    let intent = anycast_stability_intent(Layer::Backbone, 2, Layer::Rsw, vec![Layer::Fadu]);
    for (dev, doc) in compile_intent(fab.net.topology(), &intent).unwrap() {
        fab.net.deploy_rpa(dev, doc, 200);
    }
    fab.net.run_until_quiescent().expect_converged();
    let fadu = fab.idx.fadu[0][0];
    Rig { fab, vip, fadu }
}

fn selected_origins(rig: &Rig) -> Vec<u32> {
    rig.fab
        .net
        .device(rig.fadu)
        .unwrap()
        .daemon
        .loc_rib_entry(rig.vip)
        .map(|e| {
            e.paths()
                .iter()
                .filter_map(|path| path.attrs.origin_asn().map(|a| a.0))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn anycast_vip_sticks_to_primary_until_floor_breaks() {
    let mut rig = rig();
    // Healthy: the FADU selects the two backbone paths (one per FAUU),
    // ignoring the rack-hosted backup entirely.
    let origins = selected_origins(&rig);
    assert_eq!(origins.len(), 2, "two FAUU-relayed backbone paths");
    assert!(
        origins.iter().all(|o| (60_000..70_000).contains(o)),
        "{origins:?}"
    );
    let fib_hops: Vec<u32> = rig
        .fab
        .net
        .device(rig.fadu)
        .unwrap()
        .fib
        .entry(rig.vip)
        .map(|e| {
            e.nexthops
                .iter()
                .map(|(p, _): &(PeerId, u32)| p.device())
                .collect()
        })
        .unwrap_or_default();
    assert_eq!(fib_hops.len(), 2);
    // Maintenance takes a FAUU down: only one primary path remains, the
    // floor of 2 is violated, and the selection falls to the backup set as
    // a unit (no per-path flapping).
    let fauu = rig.fab.idx.fauu[0][1];
    rig.fab.net.device_down(fauu);
    rig.fab.net.run_until_quiescent().expect_converged();
    let origins = selected_origins(&rig);
    assert!(!origins.is_empty());
    assert!(
        origins.iter().all(|o| (10_000..20_000).contains(o)),
        "backup (rack) set takes over, got {origins:?}"
    );
    // The FAUU returns: the primary set resumes as a unit.
    rig.fab.net.device_up(fauu);
    rig.fab.net.run_until_quiescent().expect_converged();
    let origins = selected_origins(&rig);
    assert_eq!(origins.len(), 2);
    assert!(
        origins.iter().all(|o| (60_000..70_000).contains(o)),
        "{origins:?}"
    );
    centralium_simnet::assert_rib_consistent(&rig.fab.net);
}

/// Other prefixes on the same devices are untouched by the VIP RPA: the
/// default route keeps native ECMP over both FAUUs throughout.
#[test]
fn anycast_rpa_is_orthogonal_to_other_prefixes() {
    let rig = rig();
    let entry = rig
        .fab
        .net
        .device(rig.fadu)
        .unwrap()
        .fib
        .entry(Prefix::DEFAULT)
        .expect("default route");
    assert_eq!(entry.nexthops.len(), 2);
}
