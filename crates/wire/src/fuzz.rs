//! The decode-robustness oracle shared by the cargo-fuzz target
//! (`fuzz/fuzz_targets/wire_decode_roundtrip.rs`) and the in-tree
//! deterministic smoke test (`tests/fuzz_smoke.rs`).
//!
//! Keeping the oracle here — instead of duplicating it in the fuzz target —
//! means the coverage-guided run and the always-on CI smoke enforce the
//! exact same contract:
//!
//! 1. Arbitrary input bytes never panic either decoder; they produce a
//!    typed [`WireError`](crate::WireError) or a message.
//! 2. Anything a decoder accepts is representable: re-encoding an accepted
//!    message must succeed.
//! 3. Re-encoded bytes are a fixpoint: decoding them yields a message that
//!    re-encodes to byte-identical frames (no decode/encode drift).

use crate::{bgp, frame};

/// Exercise both wire decoders on arbitrary bytes and assert the
/// decode/encode contract. Panics (aborting the fuzz run or failing the
/// smoke test) on any contract violation.
pub fn decode_roundtrip_oracle(bytes: &[u8]) {
    bgp_oracle(bytes);
    frame_oracle(bytes);
}

fn bgp_oracle(bytes: &[u8]) {
    let Ok((msg, consumed)) = bgp::decode(bytes) else {
        return; // a typed error is a correct outcome for garbage input
    };
    assert!(
        consumed <= bytes.len(),
        "decoder consumed {consumed} of {} bytes",
        bytes.len()
    );
    // Contract 2: accepted messages re-encode.
    let frames = bgp::encode(&msg).expect("a decoded BGP message must be re-encodable");
    // Contract 3: the re-encoding is a fixpoint frame by frame.
    for frame_bytes in &frames {
        let (again, used) = bgp::decode(frame_bytes).expect("re-encoded frame must decode cleanly");
        assert_eq!(used, frame_bytes.len(), "re-encoded frame fully consumed");
        let frames_again = bgp::encode(&again).expect("second re-encode succeeds");
        assert!(
            frames_again.iter().any(|f| f == frame_bytes),
            "decode/encode drifted from the canonical byte form"
        );
    }
}

fn frame_oracle(bytes: &[u8]) {
    let Ok(Some((fr, consumed))) = frame::decode(bytes) else {
        return; // typed error or "need more bytes" — both correct
    };
    assert!(
        consumed <= bytes.len(),
        "framer consumed {consumed} of {} bytes",
        bytes.len()
    );
    let encoded = frame::encode(&fr).expect("a decoded frame must be re-encodable");
    let (again, used) = frame::decode(&encoded)
        .expect("re-encoded frame must decode cleanly")
        .expect("re-encoded frame is complete");
    assert_eq!(used, encoded.len(), "re-encoded frame fully consumed");
    assert_eq!(again, fr, "frame decode/encode drifted");
}
