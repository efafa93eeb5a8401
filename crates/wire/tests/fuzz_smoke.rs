//! Deterministic stand-in for the cargo-fuzz target: drives the exact
//! oracle from `centralium_wire::fuzz` over (a) pure pseudo-random buffers
//! and (b) valid encodings with injected byte corruption, so the
//! decode-never-panics contract is enforced on every `cargo test` run even
//! where cargo-fuzz and a nightly toolchain are unavailable.
//! `scripts/fuzz-smoke.sh` falls back to this test; CI additionally runs
//! the coverage-guided libFuzzer target for 30 seconds.

use centralium_bgp::attrs::PathAttributes;
use centralium_bgp::msg::{BgpMessage, UpdateMessage};
use centralium_bgp::Prefix;
use centralium_topology::Asn;
use centralium_wire::fuzz::decode_roundtrip_oracle;
use centralium_wire::{bgp, frame, Frame, FrameKind};

/// xorshift64* — fixed seed, no external RNG crate, reproducible corpus.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn random_buffers_never_panic_the_decoders() {
    let mut rng = Rng(0x5EED_CAFE_F00D_0001);
    for _ in 0..4_000 {
        let len = rng.below(96);
        let buf: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        decode_roundtrip_oracle(&buf);
    }
}

#[test]
fn corrupted_valid_messages_never_panic_the_decoders() {
    let mut attrs = PathAttributes::default();
    attrs.prepend(Asn(4_200_000_017), 3);
    attrs.med = 42;
    let seeds: Vec<Vec<u8>> = [
        BgpMessage::Keepalive,
        BgpMessage::Update(UpdateMessage::announce(
            "10.0.0.0/8".parse::<Prefix>().unwrap(),
            attrs,
        )),
        BgpMessage::Update(UpdateMessage::withdraw(
            "10.1.0.0/16".parse::<Prefix>().unwrap(),
        )),
    ]
    .iter()
    .flat_map(|m| bgp::encode(m).expect("seed messages encode"))
    .chain(std::iter::once(
        frame::encode(&Frame {
            kind: FrameKind::Request,
            corr: 0,
            payload: b"\x00\x01\x02\x03".to_vec(),
        })
        .expect("seed frame encodes"),
    ))
    .collect();

    let mut rng = Rng(0x5EED_CAFE_F00D_0002);
    for seed in &seeds {
        decode_roundtrip_oracle(seed); // the uncorrupted form first
        for _ in 0..1_500 {
            let mut buf = seed.clone();
            // 1–4 byte-level corruptions: flips, overwrites, truncations.
            for _ in 0..(1 + rng.below(4)) {
                match rng.below(3) {
                    0 => {
                        let i = rng.below(buf.len());
                        buf[i] ^= 1 << rng.below(8);
                    }
                    1 => {
                        let i = rng.below(buf.len());
                        buf[i] = rng.next() as u8;
                    }
                    _ => {
                        buf.truncate(rng.below(buf.len() + 1));
                    }
                }
                if buf.is_empty() {
                    break;
                }
            }
            decode_roundtrip_oracle(&buf);
        }
    }
}
