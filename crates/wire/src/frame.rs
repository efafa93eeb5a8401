//! Length-delimited framing for the Centralium service plane ("CRP1").
//!
//! The controller↔agent RPC stream carries two frame kinds over one TCP
//! connection: a **Request** frame holds a JSON-encoded control RPC
//! (deploy RPA, poll devices, health probe), and a **Response** frame the
//! reply. Each request carries a correlation id the response echoes.
//! Nothing else travels on the channel: there is no handshake, and a peer
//! that breaks the protocol is closed on.
//!
//! Layout, all integers big-endian:
//!
//! ```text
//! +------+------+----------+---------+-----------------+
//! | "CRP1" (4) | kind (1) | corr (8) | len (4) | payload |
//! +------+------+----------+---------+-----------------+
//! ```
//!
//! Decoding is incremental: [`decode`] returns `Ok(None)` until a full
//! frame is buffered, so a reader can append bytes and retry. The payload
//! length is validated against `MAX_PAYLOAD` *before* any allocation, so
//! a hostile length field cannot balloon memory.

use crate::error::WireError;
use std::io::{Read, Write};

/// Frame magic: Centralium RPc version 1.
pub(crate) const MAGIC: [u8; 4] = *b"CRP1";
/// Fixed frame header size: magic + kind + correlation id + payload length.
pub(crate) const FRAME_HEADER_LEN: usize = 4 + 1 + 8 + 4;
/// Hard cap on a frame payload (64 MiB) — large enough for a full-fabric
/// poll snapshot, small enough that a corrupt length field fails fast.
pub(crate) const MAX_PAYLOAD: usize = 1 << 26;

/// What a frame's payload contains. The kind octets are 2 and 3; every
/// other octet is [`WireError::BadFrameKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A JSON-encoded control-plane request.
    Request,
    /// A JSON-encoded control-plane response.
    Response,
}

impl FrameKind {
    fn to_octet(self) -> u8 {
        match self {
            FrameKind::Request => 2,
            FrameKind::Response => 3,
        }
    }

    fn from_octet(o: u8) -> Result<Self, WireError> {
        match o {
            2 => Ok(FrameKind::Request),
            3 => Ok(FrameKind::Response),
            other => Err(WireError::BadFrameKind(other)),
        }
    }
}

/// One service-plane frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Payload interpretation.
    pub kind: FrameKind,
    /// Correlation id pairing a Response to its Request.
    pub corr: u64,
    /// The payload octets.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A request frame with the given correlation id.
    pub fn request(corr: u64, payload: Vec<u8>) -> Self {
        Frame {
            kind: FrameKind::Request,
            corr,
            payload,
        }
    }

    /// A response frame echoing the request's correlation id.
    pub fn response(corr: u64, payload: Vec<u8>) -> Self {
        Frame {
            kind: FrameKind::Response,
            corr,
            payload,
        }
    }
}

/// Serialize a frame.
pub fn encode(frame: &Frame) -> Result<Vec<u8>, WireError> {
    if frame.payload.len() > MAX_PAYLOAD {
        return Err(WireError::FrameTooLarge {
            len: frame.payload.len(),
            max: MAX_PAYLOAD,
        });
    }
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + frame.payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(frame.kind.to_octet());
    out.extend_from_slice(&frame.corr.to_be_bytes());
    out.extend_from_slice(&(frame.payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&frame.payload);
    Ok(out)
}

/// Try to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer holds only part of a frame (read more
/// and retry), `Ok(Some((frame, consumed)))` on success, and a typed error
/// when the bytes can never become a valid frame.
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    if buf.len() < FRAME_HEADER_LEN {
        // Reject a wrong magic as soon as the prefix disagrees — no point
        // waiting for more bytes that cannot fix it.
        if !MAGIC.starts_with(&buf[..buf.len().min(4)]) {
            return Err(WireError::BadMagic);
        }
        return Ok(None);
    }
    if buf[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let kind = FrameKind::from_octet(buf[4])?;
    let corr = u64::from_be_bytes(buf[5..13].try_into().expect("8 bytes"));
    let len = u32::from_be_bytes(buf[13..17].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::FrameTooLarge {
            len,
            max: MAX_PAYLOAD,
        });
    }
    let total = FRAME_HEADER_LEN + len;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        Frame {
            kind,
            corr,
            payload: buf[FRAME_HEADER_LEN..total].to_vec(),
        },
        total,
    )))
}

/// Write one frame to a blocking stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let bytes =
        encode(frame).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    w.write_all(&bytes)?;
    w.flush()
}

/// Read one complete frame from a blocking stream.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary; an EOF mid-frame
/// is an [`std::io::ErrorKind::UnexpectedEof`] error. Wire-level corruption
/// surfaces as [`std::io::ErrorKind::InvalidData`] wrapping the
/// [`WireError`].
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Frame>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0;
    while filled < header.len() {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ));
        }
        filled += n;
    }
    // Validate the header via the incremental decoder so both paths share
    // one set of checks.
    let fail = |e: WireError| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    if let Some((frame, _)) = decode(&header).map_err(fail)? {
        return Ok(Some(frame)); // zero-length payload
    }
    let len = u32::from_be_bytes(header[13..17].try_into().expect("4 bytes")) as usize;
    let mut buf = Vec::with_capacity(header.len() + len);
    buf.extend_from_slice(&header);
    buf.resize(header.len() + len, 0);
    r.read_exact(&mut buf[header.len()..])?;
    match decode(&buf).map_err(fail)? {
        Some((frame, consumed)) => {
            debug_assert_eq!(consumed, buf.len());
            Ok(Some(frame))
        }
        None => unreachable!("full frame buffered"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let f = Frame::request(42, b"hello".to_vec());
        let bytes = encode(&f).unwrap();
        let (back, used) = decode(&bytes).unwrap().expect("complete");
        assert_eq!(back, f);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn partial_input_is_not_an_error() {
        let bytes = encode(&Frame::request(1, vec![1, 2, 3])).unwrap();
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_fails_immediately() {
        assert_eq!(decode(b"XRP1").unwrap_err(), WireError::BadMagic);
        // Even a one-byte prefix that cannot extend to the magic fails.
        assert_eq!(decode(b"X").unwrap_err(), WireError::BadMagic);
        // A correct partial prefix waits for more bytes instead.
        assert_eq!(decode(b"CR").unwrap(), None);
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = encode(&Frame::request(1, Vec::new())).unwrap();
        bytes[13..17].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut bytes = encode(&Frame::request(1, Vec::new())).unwrap();
        for kind in [0, 1, 4, 9] {
            bytes[4] = kind;
            assert_eq!(decode(&bytes).unwrap_err(), WireError::BadFrameKind(kind));
        }
    }

    #[test]
    fn kind_octets_are_fixed() {
        let request = encode(&Frame::request(1, Vec::new())).unwrap();
        let response = encode(&Frame::response(1, Vec::new())).unwrap();
        assert_eq!((request[4], response[4]), (2, 3));
    }

    #[test]
    fn stream_io_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::response(7, b"ok".to_vec())).unwrap();
        write_frame(&mut wire, &Frame::request(8, Vec::new())).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some(Frame::response(7, b"ok".to_vec()))
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some(Frame::request(8, Vec::new()))
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }
}
