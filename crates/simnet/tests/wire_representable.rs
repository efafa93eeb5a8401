//! Wire representability: what a converged fabric advertises is exactly
//! representable in RFC 4271 octets. Every device's full Adj-RIB-Out toward
//! every session round-trips through the `centralium-wire` codec unchanged,
//! in three converged states: the default configuration; split delivery with
//! WCMP advertisement over parallel sessions (link-bandwidth extended
//! communities, the attribute with the strictest, f32-exact, encoding); and a
//! drained device (prepended AS-paths, the MAINTENANCE community).
//! Withdrawal encoding is covered by the codec's own round-trip tests.

use centralium_bgp::attrs::well_known;
use centralium_bgp::{BgpMessage, PathAttributes, Prefix, UpdateMessage};
use centralium_simnet::{SimConfig, SimNet};
use centralium_topology::builder::FabricIndex;
use centralium_topology::{build_fabric, FabricSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Converge the tiny fabric on the default route plus one /24 per rack.
fn converge(cfg: SimConfig) -> (SimNet, FabricIndex) {
    let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
    let mut net = SimNet::new(topo, cfg);
    net.establish_all();
    for &eb in &idx.backbone {
        net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
    for (pod, racks) in idx.rsw.iter().enumerate() {
        for (rack, &rsw) in racks.iter().enumerate() {
            let prefix = Prefix::new(0x0A00_0000 | (pod as u32) << 16 | (rack as u32) << 8, 24);
            net.originate(rsw, prefix, [well_known::RACK_PREFIX]);
        }
    }
    net.run_until_quiescent().expect_converged();
    (net, idx)
}

/// An UPDATE as sets: the wire form orders withdrawals first and groups
/// announcements by attribute block, so order is not part of the content
/// (later-wins per prefix, matching `UpdateMessage::merge`).
fn canonical(u: &UpdateMessage) -> (BTreeSet<Prefix>, BTreeMap<Prefix, Arc<PathAttributes>>) {
    let withdrawn = u.withdrawn.iter().copied().collect();
    let announced = u
        .announced
        .iter()
        .map(|(p, a)| (*p, Arc::clone(a)))
        .collect();
    (withdrawn, announced)
}

/// Round-trip every device's full advertisement toward every session
/// through the codec and return every attribute set advertised.
fn assert_advertisements_round_trip(net: &SimNet, what: &str) -> Vec<Arc<PathAttributes>> {
    let mut advertised = Vec::new();
    for id in net.device_ids() {
        let daemon = &net.device(id).expect("listed device exists").daemon;
        for peer in daemon.peer_ids() {
            let sent = daemon.full_advertisement(peer);
            let frames = centralium_wire::bgp::encode(&BgpMessage::Update(sent.clone()))
                .unwrap_or_else(|e| panic!("{what}: {id} toward {peer} does not encode: {e}"));
            let mut received = UpdateMessage::default();
            for frame in &frames {
                match centralium_wire::bgp::decode_exact(frame) {
                    Ok(BgpMessage::Update(piece)) => received.merge(piece),
                    other => panic!("{what}: {id} toward {peer} decodes to {other:?}"),
                }
            }
            assert_eq!(
                canonical(&sent),
                canonical(&received),
                "{what}: {id} toward {peer} changed on the wire"
            );
            advertised.extend(sent.announced.into_iter().map(|(_, attrs)| attrs));
        }
    }
    assert!(
        !advertised.is_empty(),
        "{what}: the fabric advertises nothing"
    );
    advertised
}

#[test]
fn default_fabric_advertisements_round_trip() {
    let (net, _) = converge(SimConfig::builder().seed(7).build());
    assert_advertisements_round_trip(&net, "default");
}

#[test]
fn link_bandwidth_over_parallel_sessions_round_trips() {
    let (net, _) = converge(
        SimConfig::builder()
            .seed(1337)
            .coalesce_updates(false)
            .wcmp_advertise(true)
            .sessions_per_link(2)
            .build(),
    );
    let advertised = assert_advertisements_round_trip(&net, "split + WCMP");
    assert!(
        advertised.iter().any(|a| a.link_bandwidth_gbps.is_some()),
        "WCMP advertisement must carry a link-bandwidth attribute"
    );
}

#[test]
fn drained_advertisements_round_trip() {
    let (mut net, idx) = converge(SimConfig::builder().seed(7).build());
    net.drain_device(idx.fadu[0][0]);
    net.run_until_quiescent().expect_converged();
    let advertised = assert_advertisements_round_trip(&net, "drained");
    assert!(
        advertised.iter().any(|a| {
            a.has_community(well_known::MAINTENANCE) && a.as_path.windows(2).any(|w| w[0] == w[1])
        }),
        "the drained device must advertise prepended, MAINTENANCE-tagged paths"
    );
}
