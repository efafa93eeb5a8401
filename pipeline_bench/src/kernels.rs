//! Kernel timings for the layers a workload only reaches through others: a
//! standalone `BgpDaemon`, one `RpaEngine::install`, one deploy's NSDB
//! writes, intent compilation and wave planning, and the UPDATE codec.
//!
//! They run in every traced run on inputs the bench builds itself, so they
//! are the same in all five workloads; each names, in the catalogue, the
//! end-to-end metric it should move and the workload it moves it on.

use crate::fabric::Metrics;
use crate::trace::median;
use crate::Scale;
use centralium::apps::path_equalization::equalize_backbone_paths;
use centralium::sequencer::deployment_phases;
use centralium::{compile_intent, DeploymentStrategy};
use centralium_bench::tier::TierSpec;
use centralium_bgp::attrs::{well_known, CommunitySet, Origin};
use centralium_bgp::msg::BgpMessage;
use centralium_bgp::{
    BgpDaemon, Community, DaemonConfig, NativePolicy, PathAttributes, PeerConfig, PeerId, Prefix,
    UpdateMessage,
};
use centralium_nsdb::{Path, ReplicatedNsdb};
use centralium_rpa::RpaEngine;
use centralium_topology::{Asn, Layer};
use centralium_wire::bgp as codec;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn secs_of<R>(f: impl FnOnce() -> R) -> f64 {
    let started = Instant::now();
    black_box(f());
    started.elapsed().as_secs_f64()
}

/// `bgp.*` kernels: `peers` established peers (64) announce the same
/// `prefixes` prefixes (256) with identical attributes — the spine fan-in
/// case — then withdraw them.
fn bgp_kernels(peers: u32, prefixes: u32, rounds: usize, out: &mut Metrics) {
    let policy = NativePolicy;
    let attrs = Arc::new(PathAttributes {
        as_path: vec![Asn(65_001), Asn(65_002)].into(),
        origin: Origin::Igp,
        local_pref: PathAttributes::DEFAULT_LOCAL_PREF,
        med: 0,
        communities: CommunitySet::from(vec![well_known::RACK_PREFIX]),
        link_bandwidth_gbps: None,
    });
    let routes = (peers * prefixes) as f64;
    let prefixes: Vec<Prefix> = (0..prefixes)
        .map(|i| Prefix::new(0x0A00_0000 | (i << 8), 24))
        .collect();
    let announce = UpdateMessage {
        withdrawn: Vec::new(),
        announced: prefixes.iter().map(|&p| (p, Arc::clone(&attrs))).collect(),
    };
    let withdraw = UpdateMessage {
        withdrawn: prefixes.clone(),
        announced: Vec::new(),
    };
    let peers: Vec<PeerId> = (0..peers).map(|i| PeerId::compose(1_000 + i, 0)).collect();

    let (mut ingest, mut reevaluate, mut withdrawal) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        let mut daemon = BgpDaemon::new(DaemonConfig::fabric(Asn(64_512)));
        for (i, &peer) in peers.iter().enumerate() {
            daemon.add_peer(PeerConfig::open(peer, Asn(65_100 + i as u32), 100.0));
            daemon.peer_up(peer, &policy);
        }
        ingest.push(secs_of(|| {
            for &peer in &peers {
                black_box(daemon.handle_update(peer, announce.clone(), &policy));
            }
        }));
        reevaluate.push(secs_of(|| daemon.reevaluate_all(&policy)));
        withdrawal.push(secs_of(|| {
            for &peer in &peers {
                black_box(daemon.handle_update(peer, withdraw.clone(), &policy));
            }
        }));
        assert!(
            daemon.loc_rib_prefixes().is_empty(),
            "every route withdrawn"
        );
    }
    out.insert("bgp.ingest_ns_per_route", median(&ingest) * 1e9 / routes);
    out.insert(
        "bgp.withdraw_ns_per_route",
        median(&withdrawal) * 1e9 / routes,
    );
    out.insert("bgp.reevaluate_all_ms", median(&reevaluate) * 1e3);
}

/// `core.compile_us`, `core.plan_us`, `rpa.install_us`, `nsdb.publish_us` on
/// the narrow intent of the migrate workloads.
fn controller_kernels(tier: &str, rounds: usize, out: &mut Metrics) {
    let (topo, _, _) = TierSpec::by_name(tier).expect("known tier").build();
    let intent = equalize_backbone_paths(well_known::BACKBONE_DEFAULT_ROUTE, Layer::Backbone);
    let docs = compile_intent(&topo, &intent).expect("narrow intent compiles");

    let compile: Vec<f64> = (0..rounds)
        .map(|_| secs_of(|| compile_intent(&topo, &intent)))
        .collect();
    out.insert("core.compile_us", median(&compile) * 1e6);
    let plan: Vec<f64> = (0..rounds)
        .map(|_| {
            let docs = docs.clone();
            secs_of(|| {
                deployment_phases(&topo, docs, Layer::Backbone, DeploymentStrategy::SafeOrder)
            })
        })
        .collect();
    out.insert("core.plan_us", median(&plan) * 1e6);

    let install: Vec<f64> = (0..rounds * 4)
        .map(|_| {
            let doc = docs[0].1.clone();
            let mut engine = RpaEngine::new();
            secs_of(|| engine.install(doc))
        })
        .collect();
    out.insert("rpa.install_us", median(&install) * 1e6);

    // One deploy's per-device durability writes (§5.2's write path).
    let writes: Vec<(Path, serde_json::Value)> = docs
        .iter()
        .map(|(dev, doc)| {
            (
                Path::parse(&format!("/devices/d{}/rpa/{}", dev.0, doc.name())),
                serde_json::to_value(doc).expect("document serializes"),
            )
        })
        .collect();
    let publish: Vec<f64> = (0..rounds)
        .map(|_| {
            let writes = writes.clone();
            let mut nsdb = ReplicatedNsdb::new(2);
            secs_of(|| {
                for (path, value) in writes {
                    nsdb.publish(path, value);
                }
            })
        })
        .collect();
    out.insert("nsdb.publish_us", median(&publish) * 1e6);
}

/// The UPDATE shapes the fabric emits, as in `bench_wire`: the index drives
/// path length (up to a >255-hop segment split), NLRI fan-out and whether a
/// link-bandwidth community rides along.
fn update_corpus() -> Vec<BgpMessage> {
    (0..64u32)
        .map(|i| {
            let hops = [3, 7, 64, 300][(i % 4) as usize];
            let as_path: Vec<Asn> = (0..hops)
                .map(|h| Asn(4_200_000_000 + (i * 1_000 + h) % 90_000_000))
                .collect();
            let communities: Vec<Community> =
                (0..(i % 5)).map(|c| Community(0x8000_0000 + c)).collect();
            let attrs = Arc::new(PathAttributes {
                as_path: as_path.into(),
                origin: Origin::Igp,
                local_pref: 100 + i,
                med: i,
                communities: CommunitySet::from(communities),
                link_bandwidth_gbps: (i % 3 == 0).then_some(40.0),
            });
            BgpMessage::Update(UpdateMessage {
                withdrawn: (0..i % 3)
                    .map(|p| Prefix::new(0xAC10_0000 + i * 256 + p, 24))
                    .collect(),
                announced: (0..1 + i % 12)
                    .map(|p| {
                        (
                            Prefix::new(0x0A00_0000 + i * 256 + p, 32),
                            Arc::clone(&attrs),
                        )
                    })
                    .collect(),
            })
        })
        .collect()
}

/// `wire.encode_*` / `wire.decode_*`: codec throughput over the corpus.
fn codec_kernels(rounds: usize, out: &mut Metrics) {
    let msgs = update_corpus();
    let frames: Vec<Vec<u8>> = msgs
        .iter()
        .flat_map(|m| codec::encode(m).expect("corpus encodes"))
        .collect();
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let encode = secs_of(|| {
        for _ in 0..rounds {
            for m in &msgs {
                black_box(codec::encode(m).expect("corpus encodes"));
            }
        }
    });
    let decode = secs_of(|| {
        for _ in 0..rounds {
            for f in &frames {
                black_box(codec::decode_exact(f).expect("corpus decodes"));
            }
        }
    });
    out.insert(
        "wire.encode_msgs_per_s",
        (rounds * msgs.len()) as f64 / encode,
    );
    out.insert(
        "wire.decode_msgs_per_s",
        (rounds * frames.len()) as f64 / decode,
    );
    out.insert(
        "wire.encode_mb_per_s",
        (rounds * bytes) as f64 / encode / 1e6,
    );
    out.insert(
        "wire.decode_mb_per_s",
        (rounds * bytes) as f64 / decode / 1e6,
    );
}

/// Run every kernel.
pub fn run(scale: &Scale, out: &mut Metrics) {
    let (rounds, tier) = if scale.smoke {
        (3, "tiny")
    } else {
        (21, "large")
    };
    if scale.smoke {
        bgp_kernels(16, 32, 1, out);
    } else {
        bgp_kernels(64, 256, 3, out);
    }
    controller_kernels(tier, rounds, out);
    codec_kernels(rounds * 10, out);
}
