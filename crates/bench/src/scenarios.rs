//! Purpose-built experiment rigs for the paper's scenarios.

use centralium_bgp::attrs::well_known;
use centralium_bgp::{Community, Prefix};
use centralium_rpa::{
    Destination, NextHopWeight, PathSignature, RouteAttributeRpa, RouteAttributeStatement,
    RpaDocument,
};
use centralium_simnet::{SimConfig, SimNet, SimTime};
use centralium_topology::{
    build_fabric, builder::FabricIndex, Asn, DeviceId, DeviceName, FabricSpec, Layer, Topology,
};

/// A standard fabric, fully converged on the backbone default route.
pub struct ConvergedFabric {
    /// The emulator.
    pub net: SimNet,
    /// Structured device index.
    pub idx: FabricIndex,
}

/// Build and converge a standard fabric.
pub fn converged_fabric(spec: &FabricSpec, seed: u64) -> ConvergedFabric {
    let (topo, idx, _) = build_fabric(spec);
    let mut net = SimNet::new(topo, SimConfig::builder().seed(seed).build());
    net.establish_all();
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    net.run_until_quiescent().expect_converged();
    ConvergedFabric { net, idx }
}

/// Assign every rack a production prefix and originate it: `10.p.r.0/24`
/// for pod `p`, rack `r`, tagged [`well_known::RACK_PREFIX`]. Returns the
/// per-rack `(device, prefix)` table. Callers run the network to
/// quiescence afterwards.
pub fn originate_rack_prefixes(fab: &mut ConvergedFabric) -> Vec<(DeviceId, Prefix)> {
    let mut out = Vec::new();
    for (pod, racks) in fab.idx.rsw.iter().enumerate() {
        for (rack, &rsw) in racks.iter().enumerate() {
            let prefix = Prefix::new(
                0x0A00_0000 | ((pod as u32 & 0xFF) << 16) | ((rack as u32 & 0xFF) << 8),
                24,
            );
            fab.net.originate(rsw, prefix, [well_known::RACK_PREFIX]);
            out.push((rsw, prefix));
        }
    }
    out
}

/// Step the network to quiescence, evaluating `metric` after every event and
/// returning the maximum observed — how transitory-state damage (funneling,
/// group explosions) is measured.
pub(crate) fn max_metric_during(net: &mut SimNet, mut metric: impl FnMut(&SimNet) -> f64) -> f64 {
    let mut max = metric(net);
    while net.step() {
        max = max.max(metric(net));
    }
    max
}

/// Step the network to quiescence, accumulating the simulated time during
/// which `metric` exceeds `threshold` — the *duration* of a transitory
/// pathology, which is what distinguishes a one-message-delay blip from a
/// minutes-long funnel.
pub(crate) fn time_above_threshold(
    net: &mut SimNet,
    threshold: f64,
    mut metric: impl FnMut(&SimNet) -> f64,
) -> SimTime {
    let mut total: SimTime = 0;
    let mut prev_t = net.now();
    let mut above = metric(net) > threshold;
    while net.step() {
        let now = net.now();
        if above {
            total += now - prev_t;
        }
        prev_t = now;
        above = metric(net) > threshold;
    }
    total
}

// ---------------------------------------------------------------------------
// Figure 5: the EB/UU/DU transient next-hop-group explosion rig.
// ---------------------------------------------------------------------------

/// The §3.4 rig: `EB[1:8]` originate the same N prefixes toward `UU[1:4]`,
/// which relay them to one DU over two parallel sessions each (8 sessions).
pub struct Fig5Rig {
    /// The emulator (distributed WCMP advertisement enabled).
    pub net: SimNet,
    /// The eight backbone devices.
    pub ebs: Vec<DeviceId>,
    /// The four uplink units.
    pub uus: Vec<DeviceId>,
    /// The downlink unit whose next-hop-group table is under test.
    pub du: DeviceId,
    /// The N prefixes.
    pub prefixes: Vec<Prefix>,
}

/// Build and converge the Figure 5 rig.
///
/// * `n_prefixes` — N in the paper's description;
/// * `du_nhg_capacity` — the DU's hardware group-table limit;
/// * `with_rpa` — install the Route Attribute RPA on the DU (the fix):
///   static weight 1 for every UU, so every prefix maps to one group no
///   matter which sessions have converged.
pub fn fig5_rig(n_prefixes: usize, du_nhg_capacity: usize, seed: u64, with_rpa: bool) -> Fig5Rig {
    let mut topo = Topology::new();
    let mut ebs = Vec::new();
    for n in 0..8u16 {
        ebs.push(topo.add_device(
            DeviceName::new(Layer::Backbone, 0, n),
            Asn(60_000 + n as u32),
        ));
    }
    let mut uus = Vec::new();
    for n in 0..4u16 {
        let uu = topo.add_device(DeviceName::new(Layer::Fauu, 0, n), Asn(50_000 + n as u32));
        for &eb in &ebs {
            topo.add_link(uu, eb, 100.0);
        }
        uus.push(uu);
    }
    let du = topo.add_device(DeviceName::new(Layer::Fadu, 0, 0), Asn(40_000));
    topo.set_nhg_capacity(du, du_nhg_capacity);
    for &uu in &uus {
        topo.add_link(du, uu, 400.0);
    }
    let cfg = SimConfig::builder()
        .seed(seed)
        .sessions_per_link(2) // two sessions per UU-DU pair (§3.4)
        .wcmp_advertise(true) // the distributed-WCMP cascade
        // Production-scale convergence asynchrony: per-message timing spread
        // in the tens of milliseconds (BGP MRAI, RIB batching, CPU queueing),
        // so different prefixes observe very different session orderings.
        .jitter_us(20_000)
        // The §3.4 explosion *is* per-prefix message interleaving — batching
        // would squash exactly the transient orderings under study.
        .coalesce_updates(false)
        .build();
    let mut net = SimNet::new(topo, cfg);
    if with_rpa {
        // Static prescribed distribution: weight 1 per UU (by neighbor ASN).
        let weights = uus
            .iter()
            .enumerate()
            .map(|(i, _)| NextHopWeight {
                signature: PathSignature {
                    first_asn: Some(Asn(50_000 + i as u32)),
                    ..Default::default()
                },
                weight: 1,
            })
            .collect();
        let doc = RpaDocument::RouteAttribute(RouteAttributeRpa::single(
            "explosion-guard",
            RouteAttributeStatement::new(Destination::Any, weights),
        ));
        net.device_mut(du)
            .expect("du exists")
            .engine
            .install(doc)
            .expect("guard installs");
    }
    net.establish_all();
    let prefixes: Vec<Prefix> = (0..n_prefixes)
        .map(|i| Prefix::new(0x0A00_0000 + ((i as u32) << 8), 24))
        .collect();
    for &eb in &ebs {
        for &p in &prefixes {
            net.originate(eb, p, [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
    }
    net.run_until_quiescent().expect_converged();
    Fig5Rig {
        net,
        ebs,
        uus,
        du,
        prefixes,
    }
}

// ---------------------------------------------------------------------------
// Figure 9: the dissemination-loop sixpack.
// ---------------------------------------------------------------------------

/// The §5.3.1 rig: R[1-5] native multipath BGP, R6 RPA-augmented,
/// load-balancing Prefix D over the paths via R2 and R5.
pub struct Fig9Rig {
    /// The emulator.
    pub net: SimNet,
    /// `r[0]` = R1 … `r[5]` = R6.
    pub r: [DeviceId; 6],
    /// Prefix D.
    pub d: Prefix,
}

/// Build and converge the Figure 9 rig. `least_favorable` toggles the
/// §5.3.1 advertisement rule on R6 (the E10 ablation).
pub fn fig9_rig(least_favorable: bool, seed: u64) -> Fig9Rig {
    let mut topo = Topology::new();
    // R1 originates D; R5's native path to it is long (R5-R4-R3-R1).
    let r1 = topo.add_device(DeviceName::new(Layer::Backbone, 0, 1), Asn(60_001));
    let r2 = topo.add_device(DeviceName::new(Layer::Fauu, 0, 2), Asn(50_002));
    let r3 = topo.add_device(DeviceName::new(Layer::Fauu, 0, 3), Asn(50_003));
    let r4 = topo.add_device(DeviceName::new(Layer::Fadu, 0, 4), Asn(40_004));
    let r5 = topo.add_device(DeviceName::new(Layer::Fadu, 0, 5), Asn(40_005));
    let r6 = topo.add_device(DeviceName::new(Layer::Ssw, 0, 6), Asn(30_006));
    topo.add_link(r1, r2, 100.0);
    topo.add_link(r1, r3, 100.0);
    topo.add_link(r3, r4, 100.0);
    topo.add_link(r4, r5, 100.0);
    topo.add_link(r6, r2, 100.0);
    topo.add_link(r6, r5, 100.0);
    // Generic (non-layered) rig: the paper's Figure 9 routers peer freely,
    // so the fabric's valley-free base policies do not apply.
    let cfg = SimConfig::builder()
        .seed(seed)
        .valley_free_policies(false)
        .build();
    let mut net = SimNet::new(topo, cfg);
    // R6 runs the Path Selection RPA: select every path originated by R1.
    let doc = RpaDocument::PathSelection(centralium_rpa::PathSelectionRpa::single(
        "balance-r2-r5",
        centralium_rpa::PathSelectionStatement::select(
            Destination::Any,
            vec![centralium_rpa::PathSet::new(
                "via-r1",
                PathSignature::originated_by(Asn(60_001)),
            )],
        ),
    ));
    {
        let dev = net.device_mut(r6).expect("r6 exists");
        dev.engine.install(doc).expect("rpa installs");
        dev.daemon.config_mut().least_favorable_advertisement = least_favorable;
    }
    net.establish_all();
    let d = Prefix::new(0xC612_0000, 16);
    net.originate(r1, d, [well_known::BACKBONE_DEFAULT_ROUTE]);
    net.run_until_quiescent().expect_converged();
    Fig9Rig {
        net,
        r: [r1, r2, r3, r4, r5, r6],
        d,
    }
}

// ---------------------------------------------------------------------------
// Figure 10: the deployment-sequencing rig.
// ---------------------------------------------------------------------------

/// The §5.3.2 rig: prefix D originated by the backbone; FA1/FA2 each have a
/// short direct backbone link and a long backup path through a DMAG; SSWs
/// and FSWs sit below.
pub struct Fig10Rig {
    /// The emulator.
    pub net: SimNet,
    /// The backbone device originating D.
    pub bb: DeviceId,
    /// The DMAG providing the long backup path.
    pub dmag: DeviceId,
    /// The two fabric-aggregate devices.
    pub fa: [DeviceId; 2],
    /// Spine switches.
    pub ssws: Vec<DeviceId>,
    /// Fabric switches (traffic sources).
    pub fsws: Vec<DeviceId>,
    /// The equalization RPA deployed by the experiment.
    pub rpa: RpaDocument,
}

/// Destination community for the Fig 10 rig's prefix D.
pub(crate) const FIG10_DEST: Community = well_known::BACKBONE_DEFAULT_ROUTE;

/// Build and converge the Figure 10 rig (no RPAs deployed yet).
pub(crate) fn fig10_rig(seed: u64) -> Fig10Rig {
    let mut topo = Topology::new();
    let bb = topo.add_device(DeviceName::new(Layer::Backbone, 0, 0), Asn(60_000));
    let dmag = topo.add_device(DeviceName::new(Layer::Fauu, 0, 0), Asn(50_000));
    let fa1 = topo.add_device(DeviceName::new(Layer::Fadu, 0, 1), Asn(40_001));
    let fa2 = topo.add_device(DeviceName::new(Layer::Fadu, 0, 2), Asn(40_002));
    let ssws: Vec<DeviceId> = (0..2u16)
        .map(|n| topo.add_device(DeviceName::new(Layer::Ssw, 0, n), Asn(30_000 + n as u32)))
        .collect();
    let fsws: Vec<DeviceId> = (0..2u16)
        .map(|n| topo.add_device(DeviceName::new(Layer::Fsw, n, 0), Asn(20_000 + n as u32)))
        .collect();
    topo.add_link(fa1, bb, 100.0);
    topo.add_link(fa2, bb, 100.0);
    topo.add_link(dmag, bb, 100.0);
    topo.add_link(fa1, dmag, 100.0);
    topo.add_link(fa2, dmag, 100.0);
    for &ssw in &ssws {
        topo.add_link(ssw, fa1, 100.0);
        topo.add_link(ssw, fa2, 100.0);
        for &fsw in &fsws {
            topo.add_link(fsw, ssw, 100.0);
        }
    }
    let mut net = SimNet::new(topo, SimConfig::builder().seed(seed).build());
    net.establish_all();
    net.originate(bb, Prefix::DEFAULT, [FIG10_DEST]);
    net.run_until_quiescent().expect_converged();
    let rpa = RpaDocument::PathSelection(centralium_rpa::PathSelectionRpa::single(
        "equalize-bb",
        centralium_rpa::PathSelectionStatement::select(
            Destination::Community(FIG10_DEST),
            vec![centralium_rpa::PathSet::new(
                "via-bb",
                PathSignature::originated_by(Asn(60_000)),
            )],
        ),
    ));
    Fig10Rig {
        net,
        bb,
        dmag,
        fa: [fa1, fa2],
        ssws,
        fsws,
        rpa,
    }
}

/// A plausible RPC latency for scenario deployments, in µs.
pub(crate) const SCENARIO_RPC_US: SimTime = 500;

// ---------------------------------------------------------------------------
// Figure 14: the KeepFibWarmIfMnhViolated SEV.
// ---------------------------------------------------------------------------

/// Run the §7.2 SEV experiment: a not-production-ready FA (no backbone-side
/// sessions) unexpectedly originates a new more-specific route while the
/// SSWs run a min-next-hop protection RPA whose keep-FIB-warm knob is
/// derived from `kind`. Returns `(delivered, blackholed)` Gbps for rack
/// traffic toward the new range, where only reaching the backbone counts as
/// delivery.
pub fn fig14_sev(
    kind: centralium::apps::fib_warm_keeper::DestinationKind,
    seed: u64,
) -> (f64, f64) {
    use centralium::apps::fib_warm_keeper::protected_origination;
    use centralium::compile::compile_intent;
    use centralium_rpa::MinNextHop;
    use centralium_simnet::traffic::{route_flows_to, TrafficMatrix, DEFAULT_MAX_HOPS};

    let mut fab = converged_fabric(&FabricSpec::tiny(), seed);
    let new_route: Prefix = "10.99.0.0/16".parse().expect("prefix");
    let ssws: Vec<DeviceId> = fab.idx.ssw.iter().flatten().copied().collect();
    let intent =
        protected_origination(well_known::RACK_PREFIX, kind, MinNextHop::Absolute(2), ssws);
    for (dev, doc) in compile_intent(fab.net.topology(), &intent).expect("compiles") {
        fab.net.deploy_rpa(dev, doc, SCENARIO_RPC_US);
    }
    fab.net.run_until_quiescent().expect_converged();
    let bad_fa = fab.idx.fadu[0][0];
    let upstream: Vec<DeviceId> = fab
        .net
        .topology()
        .uplinks(bad_fa)
        .into_iter()
        .map(|(up, _)| up)
        .collect();
    for up in upstream {
        fab.net.schedule_in(
            0,
            centralium_simnet::NetEvent::SessionDown {
                dev: bad_fa,
                peer: centralium_bgp::PeerId::compose(up.0, 0),
            },
        );
        fab.net.schedule_in(
            0,
            centralium_simnet::NetEvent::SessionDown {
                dev: up,
                peer: centralium_bgp::PeerId::compose(bad_fa.0, 0),
            },
        );
    }
    fab.net.run_until_quiescent().expect_converged();
    fab.net
        .originate(bad_fa, new_route, [well_known::RACK_PREFIX]);
    fab.net.run_until_quiescent().expect_converged();
    let sources: Vec<DeviceId> = fab.idx.rsw.iter().flatten().copied().collect();
    let tm = TrafficMatrix::uniform(&sources, "10.99.1.0/24".parse().expect("prefix"), 10.0);
    let report = route_flows_to(&fab.net, &tm, &fab.idx.backbone, DEFAULT_MAX_HOPS);
    (report.delivered_gbps, report.blackholed_gbps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_simnet::traffic::{route_flows, TrafficMatrix, DEFAULT_MAX_HOPS};

    #[test]
    fn fig5_rig_converges_to_one_group() {
        let rig = fig5_rig(16, 64, 3, false);
        // Converged: all prefixes share the same uniform 8-session group.
        let stats = rig.net.device(rig.du).unwrap().fib.nhg_stats();
        assert_eq!(stats.current_groups, 1, "uniform steady state");
        assert_eq!(rig.net.device(rig.du).unwrap().fib.len(), 16);
    }

    #[test]
    fn fig9_rig_with_rule_has_no_loop() {
        let rig = fig9_rig(true, 5);
        let tm = TrafficMatrix::uniform(&[rig.r[5]], rig.d, 10.0);
        let report = route_flows(&rig.net, &tm, DEFAULT_MAX_HOPS);
        assert!(
            report.looped_gbps < 1e-9,
            "no loop with least-favorable rule"
        );
        assert!((report.delivered_gbps - 10.0).abs() < 1e-6);
        // R6 really does load-balance over R2 and R5.
        let r6 = rig.net.device(rig.r[5]).unwrap();
        assert_eq!(r6.fib.entry(rig.d).unwrap().nexthops.len(), 2);
    }

    #[test]
    fn fig9_rig_without_rule_forms_routing_loop() {
        use centralium_simnet::traffic::forwarding_cycle;
        let rig = fig9_rig(false, 5);
        let cycle = forwarding_cycle(&rig.net, &rig.d)
            .expect("disabling the §5.3.1 rule must reproduce the Figure 9 loop");
        // The persistent loop is between R5 and R6.
        assert!(cycle.contains(&rig.r[4]), "cycle {cycle:?} contains R5");
        assert!(cycle.contains(&rig.r[5]), "cycle {cycle:?} contains R6");
        // And the rule removes it.
        let fixed = fig9_rig(true, 5);
        assert_eq!(forwarding_cycle(&fixed.net, &fixed.d), None);
    }

    #[test]
    fn fig10_rig_baseline_prefers_direct_paths() {
        let rig = fig10_rig(4);
        for &fa in &rig.fa {
            let entry = rig
                .net
                .device(fa)
                .unwrap()
                .fib
                .entry(Prefix::DEFAULT)
                .unwrap();
            assert_eq!(
                entry.nexthops.len(),
                1,
                "direct BB link preferred over DMAG"
            );
            assert_eq!(entry.nexthops[0].0.device(), rig.bb.0);
        }
        // SSWs balance over both FAs.
        for &ssw in &rig.ssws {
            let entry = rig
                .net
                .device(ssw)
                .unwrap()
                .fib
                .entry(Prefix::DEFAULT)
                .unwrap();
            assert_eq!(entry.nexthops.len(), 2);
        }
    }

    #[test]
    fn converged_fabric_helper_is_deterministic() {
        let a = converged_fabric(&FabricSpec::tiny(), 9);
        let b = converged_fabric(&FabricSpec::tiny(), 9);
        assert_eq!(a.net.now(), b.net.now());
        let (a, b) = (
            a.net.telemetry().metrics().snapshot(),
            b.net.telemetry().metrics().snapshot(),
        );
        for name in [
            "simnet.messages_delivered",
            "simnet.announcements",
            "simnet.withdrawals",
            "simnet.rpa_operations",
            "simnet.rpa_failures",
            "simnet.session_events",
        ] {
            assert_eq!(a.counter(name), b.counter(name), "{name}");
        }
    }
}
