//! Typed wire-format errors.
//!
//! Every decode path in this crate is strict about length bounds and returns
//! one of these variants instead of panicking — the property the fuzzing
//! roadmap item builds on: arbitrary bytes must map to `Err(WireError)`,
//! never to a panic or an out-of-bounds read.

use std::fmt;

/// Why a buffer failed to encode or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before `what` could be read in full.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The 16-byte message marker is not all-ones (RFC 4271 §4.1).
    BadMarker,
    /// The header length field is outside `19..=4096` or disagrees with the
    /// message body (RFC 4271 §4.1 / §6.1).
    BadLength {
        /// The offending length field value.
        len: u16,
    },
    /// The header type octet names no known message (RFC 4271 §4.1).
    UnknownMessageType(u8),
    /// An OPEN carried a BGP version other than 4 (RFC 4271 §6.2).
    UnsupportedVersion(u8),
    /// A path attribute's flag octet is inconsistent with its type code
    /// (e.g. a well-known attribute flagged optional) — RFC 4271 §6.3.
    BadAttributeFlags {
        /// Attribute type code.
        type_code: u8,
        /// The offending flag octet.
        flags: u8,
    },
    /// The same attribute appeared twice in one UPDATE (RFC 4271 §5).
    DuplicateAttribute {
        /// Attribute type code.
        type_code: u8,
    },
    /// A mandatory well-known attribute is absent (RFC 4271 §6.3).
    MissingAttribute {
        /// Conventional attribute name, e.g. `"ORIGIN"`.
        name: &'static str,
    },
    /// An attribute's length octet disagrees with its fixed size or its
    /// content structure (RFC 4271 §6.3).
    BadAttributeLength {
        /// Attribute type code.
        type_code: u8,
        /// The length that was claimed.
        len: usize,
    },
    /// An attribute's value octets are structurally valid but name an
    /// unknown code point (e.g. an ORIGIN value above 2) — RFC 4271 §6.3.
    BadAttributeValue {
        /// Attribute type code.
        type_code: u8,
    },
    /// A well-known (non-optional) attribute type this codec does not
    /// implement (RFC 4271 §6.3 "unrecognized well-known attribute").
    /// Unrecognized *optional* attributes are skipped, as a real speaker
    /// would.
    UnrecognizedWellKnown {
        /// Attribute type code.
        type_code: u8,
    },
    /// An NLRI length octet exceeds 32 bits (RFC 4271 §6.3).
    PrefixTooLong {
        /// The claimed prefix length.
        len: u8,
    },
    /// Bytes remained after a complete structure was decoded.
    TrailingBytes {
        /// The structure that should have consumed the buffer.
        what: &'static str,
        /// Leftover byte count.
        count: usize,
    },
    /// A NOTIFICATION error code outside the subset this reproduction
    /// models.
    BadNotification {
        /// The offending error code.
        code: u8,
    },
    /// An AS_PATH segment type other than AS_SEQUENCE/AS_SET.
    BadSegmentType {
        /// The offending segment type octet.
        seg: u8,
    },
    /// The in-memory message cannot be expressed on the wire without loss
    /// (e.g. a hold time above 65535 s, or a link bandwidth that is not
    /// exactly representable as the extended community's 32-bit float).
    /// Encoding fails loudly instead of silently truncating.
    Unrepresentable {
        /// What could not be encoded.
        what: &'static str,
    },
    /// An ASN above 65535 was required in a 2-octet field without the
    /// 4-octet-AS capability path being available (RFC 6793).
    AsnTooWide {
        /// The offending ASN value.
        asn: u32,
    },
    /// A service-plane frame does not start with the `CRP1` magic.
    BadMagic,
    /// A service-plane frame kind octet names no known frame.
    BadFrameKind(u8),
    /// A Response frame does not echo the correlation id of the request
    /// it answers.
    CorrelationMismatch {
        /// The request's correlation id.
        expected: u64,
        /// The id the response carried.
        got: u64,
    },
    /// A service-plane frame advertises a payload above the hard cap —
    /// rejected before any allocation happens.
    FrameTooLarge {
        /// Advertised payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what, need, have } => {
                write!(f, "truncated {what}: need {need} bytes, have {have}")
            }
            WireError::BadMarker => write!(f, "message marker is not all-ones"),
            WireError::BadLength { len } => write!(f, "invalid message length {len}"),
            WireError::UnknownMessageType(t) => write!(f, "unknown message type {t}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported BGP version {v}"),
            WireError::BadAttributeFlags { type_code, flags } => {
                write!(f, "attribute {type_code} has invalid flags {flags:#04x}")
            }
            WireError::DuplicateAttribute { type_code } => {
                write!(f, "attribute {type_code} appears twice")
            }
            WireError::MissingAttribute { name } => {
                write!(f, "mandatory attribute {name} is missing")
            }
            WireError::BadAttributeLength { type_code, len } => {
                write!(f, "attribute {type_code} has invalid length {len}")
            }
            WireError::BadAttributeValue { type_code } => {
                write!(f, "attribute {type_code} carries an invalid value")
            }
            WireError::UnrecognizedWellKnown { type_code } => {
                write!(f, "unrecognized well-known attribute {type_code}")
            }
            WireError::PrefixTooLong { len } => write!(f, "NLRI prefix length {len} exceeds 32"),
            WireError::TrailingBytes { what, count } => {
                write!(f, "{count} trailing bytes after {what}")
            }
            WireError::BadNotification { code } => {
                write!(f, "unmodeled NOTIFICATION error code {code}")
            }
            WireError::BadSegmentType { seg } => write!(f, "invalid AS_PATH segment type {seg}"),
            WireError::Unrepresentable { what } => {
                write!(f, "cannot encode without loss: {what}")
            }
            WireError::AsnTooWide { asn } => {
                write!(f, "ASN {asn} does not fit a 2-octet field")
            }
            WireError::BadMagic => write!(f, "frame does not start with the CRP1 magic"),
            WireError::BadFrameKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::CorrelationMismatch { expected, got } => {
                write!(f, "response to request {got} while awaiting {expected}")
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for WireError {}
