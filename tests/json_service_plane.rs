//! The JSON every `TcpTransport` response and `AgentServer` request passes
//! through (`shims/serde_json`), at the sizes the service plane ships: the
//! string parser must be correct on every character class and linear in the
//! document. The 2,036-device topology is 864 KB of JSON; a parser that
//! re-validated the rest of the input per character took 5 s over it.

use centralium::health::{HealthCheck, TrafficProbe};
use centralium_bgp::Prefix;
use centralium_topology::{build_three_tier, ThreeTierSpec, Topology};
use serde_json::Value;
use std::time::{Duration, Instant};

fn roundtrip(s: &str) {
    let text = serde_json::to_string(s).expect("serialize");
    let back: String = serde_json::from_str(&text).expect("parse");
    assert_eq!(back, s, "through {text}");
}

#[test]
fn strings_roundtrip_on_every_character_class() {
    for s in [
        "",
        "plain ascii",
        "\"",
        "\\",
        "\\\"\\",
        "a\"b\\c/d\ne\rf\tg\u{8}h\u{c}i\u{1}j\u{1f}",
        "é",
        "\"é\"",
        "\\é\\",
        "中\"文\\字",
        "🦀\"\\🦀",
        "ends in a backslash \\",
        "ends in multi-byte 中",
    ] {
        roundtrip(s);
    }
    // Keys take the same path as values; empty strings sit next to full ones.
    let doc = r#"{"": "", "k\"é": ["", "\\", "中"]}"#;
    let v: Value = serde_json::from_str(doc).expect("parse");
    assert_eq!(v.get("").and_then(Value::as_str), Some(""));
    let items = v.get("k\"é").and_then(Value::as_array).expect("array");
    let items: Vec<_> = items.iter().filter_map(Value::as_str).collect();
    assert_eq!(items, ["", "\\", "中"]);
    // Escapes the printer never writes but a peer may send.
    let escaped: String =
        serde_json::from_str(r#""\u00e9\u4e2d\u0041\/ \u00E9é""#).expect("parse \\u");
    assert_eq!(escaped, "é中A/ éé");
    // One 1 MB string: 4 KB runs of plain and multi-byte text between
    // delimiters.
    let big = format!("{}中\"{}é\\", "x".repeat(4096), "y".repeat(4096)).repeat(128);
    assert!(big.len() > 1_000_000);
    roundtrip(&big);
}

#[test]
fn malformed_strings_are_still_errors() {
    for bad in [
        r#"""#,
        r#""abc"#,
        r#""abc\"#,
        r#""\q""#,
        r#""\u12""#,
        r#""\u12G4""#,
        r#"{"a": "b"#,
    ] {
        assert!(
            serde_json::from_str::<Value>(bad).is_err(),
            "accepted {bad}"
        );
    }
}

/// Best-of-three parse time of an array of `n` short strings.
fn parse_time(n: usize) -> Duration {
    let names: Vec<String> = (0..n).map(|i| format!("rsw-{i:07}")).collect();
    let text = serde_json::to_string(&names).expect("serialize");
    (0..3)
        .map(|_| {
            let started = Instant::now();
            let v: Value = serde_json::from_str(&text).expect("parse");
            let took = started.elapsed();
            assert_eq!(v.as_array().map(Vec::len), Some(n));
            took
        })
        .min()
        .expect("three runs")
}

#[test]
fn parse_time_is_linear_in_the_document() {
    // A same-run ratio, not milliseconds: eight times the document may cost
    // about eight times the time. A quadratic parser reads 64.
    let n = 20_000;
    let (small, large) = (parse_time(n), parse_time(8 * n));
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio <= 24.0,
        "parsing 8x the document took {ratio:.1}x the time ({small:?} -> {large:?})"
    );
}

#[test]
fn topology_2k_roundtrips_byte_identically() {
    let (topo, _, _) = build_three_tier(&ThreeTierSpec::ci_2k());
    let text = serde_json::to_string(&topo).expect("serialize");
    let back: Topology = serde_json::from_str(&text).expect("parse");
    assert_eq!(back.device_count(), topo.device_count());
    let again = serde_json::to_string(&back).expect("re-serialize");
    assert!(text == again, "topology changed through JSON");
}

/// The 2k tier's fleet health check — probe delivery from every rack, no
/// congestion, a next-hop floor per rack — is its own wire form. One
/// `[device, prefix, min]` triple per rack made it 57 KB, most of a deploy
/// cycle's request bytes; the floor is one device list now.
#[test]
fn fleet_health_check_2k_is_compact_on_the_wire() {
    let (_, idx, _) = build_three_tier(&ThreeTierSpec::ci_2k());
    let racks: Vec<_> = idx.rsw.iter().flatten().copied().collect();
    assert_eq!(racks.len(), 1_800);
    let check = HealthCheck {
        probe: Some(TrafficProbe {
            sources: racks.clone(),
            dest: Prefix::DEFAULT,
            gbps_each: 0.01,
        }),
        max_link_utilization: Some(1.0),
        min_nexthops: racks.iter().map(|&r| (r, Prefix::DEFAULT, 1)).collect(),
        expect_rpa: Vec::new(),
    };
    let text = serde_json::to_string(&check).expect("serialize");
    assert!(text.len() <= 20_000, "{} bytes", text.len());
}
