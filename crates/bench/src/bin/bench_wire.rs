//! Service-plane microbench: RFC 4271 codec throughput and loopback RPC
//! latency over the framed TCP transport.
//!
//! ```text
//! bench_wire [--iters N] [--rpcs N] [--json FILE]
//! ```
//!
//! Two measurements back ROADMAP item 3's "honest serving-under-load"
//! claim:
//!
//! 1. **Codec throughput** — a deterministic corpus of UPDATEs shaped like
//!    real fabric traffic (short intra-pod paths up to >255-hop segment
//!    splits, 4-octet extension-band ASNs, WCMP link-bandwidth extended
//!    communities, coalesced multi-prefix NLRI) is encoded and decoded
//!    `--iters` times; we report messages/s and MB/s each way.
//! 2. **RPC latency** — a tiny converged fabric behind a loopback
//!    [`AgentServer`] answers `--rpcs` cheap (`now`) and heavy
//!    (`health_check`) requests through a real socket, BGP preamble
//!    included; we report p50/p99/max microseconds per round trip.
//!
//! Latency numbers include the JSON envelope and the socket round trip, so
//! they are an honest ceiling for what a deploy wave pays per RPC.

use centralium::transport::{ControlTransport, TcpTransport};
use centralium::{AgentServer, HealthCheck, SwitchAgent};
use centralium_bench::args::BenchArgs;
use centralium_bench::report::Table;
use centralium_bench::scenarios::converged_fabric;
use centralium_bgp::attrs::{Community, CommunitySet, Origin, PathAttributes};
use centralium_bgp::msg::{BgpMessage, UpdateMessage};
use centralium_bgp::Prefix;
use centralium_simnet::ManagementPlane;
use centralium_topology::{Asn, FabricSpec};
use centralium_wire::bgp;
use serde_json::json;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Deterministic UPDATE corpus spanning the shapes the fabric emits: the
/// index seeds path length, NLRI fan-out, and whether WCMP bandwidth rides
/// along, so every run benches identical bytes.
fn corpus() -> Vec<BgpMessage> {
    (0..64u32)
        .map(|i| {
            let hops = match i % 4 {
                0 => 3,   // intra-pod
                1 => 7,   // cross-plane
                2 => 64,  // pathological but single-segment
                _ => 300, // forces an AS_PATH segment split
            };
            let as_path: Vec<Asn> = (0..hops)
                .map(|h| Asn(4_200_000_000 + (i * 1_000 + h) % 90_000_000))
                .collect();
            let mut communities: Vec<Community> =
                (0..(i % 5)).map(|c| Community(0x8000_0000 + c)).collect();
            communities.sort_unstable();
            let attrs = Arc::new(PathAttributes {
                as_path: as_path.into(),
                origin: Origin::Igp,
                local_pref: 100 + i,
                med: i,
                communities: CommunitySet::from(communities),
                link_bandwidth_gbps: (i % 3 == 0).then_some(40.0),
            });
            let announced: Vec<(Prefix, Arc<PathAttributes>)> = (0..1 + i % 12)
                .map(|p| {
                    (
                        Prefix::new(0x0a00_0000 + i * 256 + p, 32),
                        Arc::clone(&attrs),
                    )
                })
                .collect();
            let withdrawn: Vec<Prefix> = (0..i % 3)
                .map(|p| Prefix::new(0xac10_0000 + i * 256 + p, 24))
                .collect();
            BgpMessage::Update(UpdateMessage {
                withdrawn,
                announced,
            })
        })
        .collect()
}

struct CodecStats {
    encode_msgs_per_sec: f64,
    decode_msgs_per_sec: f64,
    encode_mb_per_sec: f64,
    decode_mb_per_sec: f64,
    wire_bytes: usize,
}

fn bench_codec(iters: u64) -> Result<CodecStats, String> {
    let msgs = corpus();
    // Pre-encode once for the decode leg and the byte accounting.
    let frames: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| bgp::encode(m).map_err(|e| format!("corpus must encode: {e}")))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();
    let wire_bytes: usize = frames.iter().map(Vec::len).sum();

    let start = Instant::now();
    for _ in 0..iters {
        for m in &msgs {
            std::hint::black_box(bgp::encode(m).map_err(|e| e.to_string())?);
        }
    }
    let enc_wall = start.elapsed().as_secs_f64();

    let start = Instant::now();
    for _ in 0..iters {
        for f in &frames {
            std::hint::black_box(bgp::decode_exact(f).map_err(|e| e.to_string())?);
        }
    }
    let dec_wall = start.elapsed().as_secs_f64();

    // A decoded frame is one message, an encoded message may span frames;
    // msgs/s counts in-memory messages both ways for comparability.
    Ok(CodecStats {
        encode_msgs_per_sec: (iters * msgs.len() as u64) as f64 / enc_wall,
        decode_msgs_per_sec: (iters * frames.len() as u64) as f64 / dec_wall,
        encode_mb_per_sec: (iters as usize * wire_bytes) as f64 / enc_wall / 1e6,
        decode_mb_per_sec: (iters as usize * wire_bytes) as f64 / dec_wall / 1e6,
        wire_bytes,
    })
}

struct LatencyStats {
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
}

fn percentiles(mut samples: Vec<u64>) -> LatencyStats {
    samples.sort_unstable();
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q) as usize];
    LatencyStats {
        p50_us: at(0.50),
        p99_us: at(0.99),
        max_us: *samples.last().unwrap_or(&0),
    }
}

fn bench_rpc(rpcs: u64) -> Result<(LatencyStats, LatencyStats), String> {
    let fab = converged_fabric(&FabricSpec::tiny(), 4104);
    let mgmt = ManagementPlane::compute(fab.net.topology(), fab.idx.rsw[0][0]);
    let agent = SwitchAgent::new(mgmt);
    let server =
        AgentServer::bind("127.0.0.1:0", fab.net, agent).map_err(|e| format!("bind: {e}"))?;
    let mut transport = TcpTransport::connect(&server.local_addr().to_string())
        .map_err(|e| format!("connect: {e}"))?;

    let mut cheap = Vec::with_capacity(rpcs as usize);
    for _ in 0..rpcs {
        let start = Instant::now();
        transport.now().map_err(|e| format!("now RPC: {e}"))?;
        cheap.push(start.elapsed().as_micros() as u64);
    }
    // The client caches `topology()` after the first pull, so the heavy leg
    // is `health_check`: the server evaluates the full invariant suite on
    // every call and ships the report back.
    let heavy_n = (rpcs / 8).max(8);
    let mut heavy = Vec::with_capacity(heavy_n as usize);
    let check = HealthCheck::default();
    for _ in 0..heavy_n {
        let start = Instant::now();
        transport
            .health_check(&check)
            .map_err(|e| format!("health_check RPC: {e}"))?;
        heavy.push(start.elapsed().as_micros() as u64);
    }
    drop(transport);
    server.shutdown();
    Ok((percentiles(cheap), percentiles(heavy)))
}

fn run() -> Result<(), String> {
    let args = BenchArgs::from_env()?;
    let iters = args.get_u64("iters")?.unwrap_or(200);
    let rpcs = args.get_u64("rpcs")?.unwrap_or(512);

    let codec = bench_codec(iters)?;
    let (cheap, heavy) = bench_rpc(rpcs)?;

    let mut table = Table::new(&["measurement", "value"]);
    table.row(&[
        "encode throughput".into(),
        format!(
            "{:.0} msgs/s  {:.1} MB/s",
            codec.encode_msgs_per_sec, codec.encode_mb_per_sec
        ),
    ]);
    table.row(&[
        "decode throughput".into(),
        format!(
            "{:.0} msgs/s  {:.1} MB/s",
            codec.decode_msgs_per_sec, codec.decode_mb_per_sec
        ),
    ]);
    table.row(&["corpus wire bytes".into(), codec.wire_bytes.to_string()]);
    table.row(&[
        "now() RPC latency".into(),
        format!(
            "p50={}us p99={}us max={}us over {rpcs} calls",
            cheap.p50_us, cheap.p99_us, cheap.max_us
        ),
    ]);
    table.row(&[
        "health_check() RPC latency".into(),
        format!(
            "p50={}us p99={}us max={}us",
            heavy.p50_us, heavy.p99_us, heavy.max_us
        ),
    ]);
    print!("{}", table.render());

    if let Some(path) = args.get_str("json")? {
        let report = json!({
            "bench": "wire",
            "iters": iters,
            "rpcs": rpcs,
            "codec": {
                "encode_msgs_per_sec": codec.encode_msgs_per_sec,
                "decode_msgs_per_sec": codec.decode_msgs_per_sec,
                "encode_mb_per_sec": codec.encode_mb_per_sec,
                "decode_mb_per_sec": codec.decode_mb_per_sec,
            },
            "rpc_latency_us": {
                "now": { "p50": cheap.p50_us, "p99": cheap.p99_us, "max": cheap.max_us },
                "health_check": { "p50": heavy.p50_us, "p99": heavy.p99_us, "max": heavy.max_us },
            },
        });
        let text = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("report written to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
