//! RFC 4271 binary serialization for the emulator's BGP messages.
//!
//! The codec maps the in-memory [`BgpMessage`] taxonomy onto real wire
//! octets: the 16-octet marker / 2-octet length / 1-octet type header,
//! path-attribute TLVs, and NLRI prefix packing. Deviations from a stock
//! speaker, all deliberate:
//!
//! - **4-octet ASNs everywhere** (RFC 6793). The fabric's ASN extension
//!   bands start at 4.2 billion, far beyond 16 bits, so AS_PATH segments
//!   always carry 4-octet ASNs and OPEN always advertises the
//!   four-octet-AS capability (code 65) with the real ASN, putting
//!   `AS_TRANS` (23456) in the 2-octet My-AS field when the ASN is wide.
//! - **NEXT_HOP is structural.** The emulator resolves next hops from the
//!   delivering session, so UPDATE encodes the mandatory NEXT_HOP attribute
//!   as `0.0.0.0` and decode validates but ignores its value.
//! - **Link bandwidth carries Gbps.** The extended-community float field
//!   holds the link bandwidth in Gbps (not bytes/sec): the in-memory value
//!   is an `f64` and the Gbps form is what round-trips exactly. Encoding a
//!   value that does not survive the 32-bit float narrows fails with a
//!   typed [`WireError::Unrepresentable`] instead of silently losing bits.
//! - **Defaults are elided.** MED 0 and LOCAL_PREF 100 (the crate default)
//!   are omitted on the wire and restored on decode, so round-trips stay
//!   exact while common frames stay minimal.
//!
//! One [`UpdateMessage`] may need several wire messages: RFC 4271 carries a
//! single attribute block per UPDATE, while the in-memory form pairs each
//! announced prefix with its own (shared) attributes, and the 4096-octet
//! message cap bounds how many NLRI fit one frame. [`encode`] therefore
//! returns a `Vec` of frames (almost always one); decoding each frame and
//! [`UpdateMessage::merge`]-ing yields the original routes.
//!
//! Decoding is strict: every length field is bounds-checked by the
//! [`Decoder`] cursor, unknown well-known attributes, duplicate attributes,
//! bad flags and over-long prefixes are typed [`WireError`]s, and arbitrary
//! input can never panic.

use crate::decode::Decoder;
use crate::error::WireError;
use centralium_bgp::attrs::{Community, Origin, PathAttributes};
use centralium_bgp::msg::{BgpMessage, NotificationCode, OpenMessage, UpdateMessage};
use centralium_bgp::Prefix;
use centralium_topology::Asn;
use std::sync::Arc;

/// The all-ones synchronization marker (RFC 4271 §4.1).
pub(crate) const MARKER: [u8; 16] = [0xFF; 16];
/// Fixed header size: marker + length + type.
pub(crate) const HEADER_LEN: usize = 19;
/// Smallest legal message (a bare KEEPALIVE).
pub(crate) const MIN_MESSAGE_LEN: usize = HEADER_LEN;
/// Largest legal message (RFC 4271 §4.1).
pub const MAX_MESSAGE_LEN: usize = 4096;
/// The 2-octet stand-in ASN for 4-octet speakers (RFC 6793).
pub const AS_TRANS: u16 = 23456;

/// Message type octets (RFC 4271 §4.1).
mod msg_type {
    pub(crate) const OPEN: u8 = 1;
    pub(crate) const UPDATE: u8 = 2;
    pub(crate) const NOTIFICATION: u8 = 3;
    pub(crate) const KEEPALIVE: u8 = 4;
}

/// Path-attribute type codes.
mod attr {
    pub(crate) const ORIGIN: u8 = 1;
    pub(crate) const AS_PATH: u8 = 2;
    pub(crate) const NEXT_HOP: u8 = 3;
    pub(crate) const MED: u8 = 4;
    pub(crate) const LOCAL_PREF: u8 = 5;
    pub(crate) const COMMUNITIES: u8 = 8;
    pub(crate) const EXTENDED_COMMUNITIES: u8 = 16;
}

/// Attribute flag bits (RFC 4271 §4.3).
mod flag {
    pub(crate) const OPTIONAL: u8 = 0x80;
    pub(crate) const TRANSITIVE: u8 = 0x40;
    pub(crate) const PARTIAL: u8 = 0x20;
    pub(crate) const EXTENDED_LEN: u8 = 0x10;
    pub(crate) const LOW_BITS: u8 = 0x0F;
}

/// AS_PATH segment type octets.
const SEG_AS_SEQUENCE: u8 = 2;
/// Max ASNs per AS_PATH segment (its count field is one octet).
const SEG_MAX: usize = 255;

/// Four-octet-AS capability code (RFC 6793).
const CAP_FOUR_OCTET_AS: u8 = 65;
/// Capabilities optional parameter (RFC 5492).
const OPT_PARAM_CAPABILITIES: u8 = 2;

/// Link-bandwidth extended community: type high octet (non-transitive,
/// two-octet-AS-specific) and the link-bandwidth subtype.
const EXT_LB_TYPE: u8 = 0x40;
const EXT_LB_SUBTYPE: u8 = 0x04;

// ---------------------------------------------------------------------------
// encode
// ---------------------------------------------------------------------------

/// Serialize a message to RFC 4271 frames.
///
/// OPEN/KEEPALIVE/NOTIFICATION always produce exactly one frame. An UPDATE
/// produces one frame per distinct attribute block (plus overflow frames
/// when NLRI or withdrawals exceed the 4096-octet cap); see the module docs
/// for the exact splitting rule.
pub fn encode(msg: &BgpMessage) -> Result<Vec<Vec<u8>>, WireError> {
    match msg {
        BgpMessage::Open(open) => Ok(vec![encode_open(open)?]),
        BgpMessage::Update(update) => encode_update(update),
        BgpMessage::Keepalive => Ok(vec![finish_message(msg_type::KEEPALIVE, Vec::new())]),
        BgpMessage::Notification(code) => Ok(vec![encode_notification(*code)]),
    }
}

/// Serialize a message that must fit a single frame (everything except a
/// multi-attribute or oversized UPDATE). Errors with
/// [`WireError::Unrepresentable`] if splitting would be required.
pub fn encode_one(msg: &BgpMessage) -> Result<Vec<u8>, WireError> {
    let mut frames = encode(msg)?;
    if frames.len() != 1 {
        return Err(WireError::Unrepresentable {
            what: "message requires multiple RFC 4271 frames",
        });
    }
    Ok(frames.pop().expect("one frame"))
}

/// Prepend the marker/length/type header to a finished body.
fn finish_message(type_code: u8, body: Vec<u8>) -> Vec<u8> {
    let len = HEADER_LEN + body.len();
    debug_assert!(
        len <= MAX_MESSAGE_LEN,
        "oversized frame ({len}B) escaped the splitter"
    );
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&MARKER);
    out.extend_from_slice(&(len as u16).to_be_bytes());
    out.push(type_code);
    out.extend_from_slice(&body);
    out
}

fn encode_open(open: &OpenMessage) -> Result<Vec<u8>, WireError> {
    if open.hold_time_secs > u16::MAX as u32 {
        return Err(WireError::Unrepresentable {
            what: "hold time exceeds the 2-octet wire field",
        });
    }
    let my_as: u16 = u16::try_from(open.asn.0).unwrap_or(AS_TRANS);
    let mut body = Vec::with_capacity(10 + 8);
    body.push(4); // version
    body.extend_from_slice(&my_as.to_be_bytes());
    body.extend_from_slice(&(open.hold_time_secs as u16).to_be_bytes());
    // The reproduction derives the BGP Identifier from the ASN; it is not an
    // independent field of the in-memory message.
    body.extend_from_slice(&open.asn.0.to_be_bytes());
    // One capabilities parameter carrying the four-octet-AS capability.
    let cap = [CAP_FOUR_OCTET_AS, 4];
    let asn = open.asn.0.to_be_bytes();
    body.push(8); // optional parameters length
    body.push(OPT_PARAM_CAPABILITIES);
    body.push(6); // parameter length: cap header + 4-octet value
    body.extend_from_slice(&cap);
    body.extend_from_slice(&asn);
    Ok(finish_message(msg_type::OPEN, body))
}

fn encode_notification(code: NotificationCode) -> Vec<u8> {
    let code = match code {
        NotificationCode::FiniteStateMachineError => 5,
        NotificationCode::HoldTimerExpired => 4,
        NotificationCode::Cease => 6,
    };
    finish_message(msg_type::NOTIFICATION, vec![code, 0])
}

/// Wire size of one packed NLRI entry.
fn nlri_len(p: &Prefix) -> usize {
    1 + (p.len() as usize).div_ceil(8)
}

/// Append one packed NLRI entry.
fn push_nlri(out: &mut Vec<u8>, p: &Prefix) {
    out.push(p.len());
    let octets = p.addr().to_be_bytes();
    out.extend_from_slice(&octets[..(p.len() as usize).div_ceil(8)]);
}

/// Serialize the path-attribute block shared by every NLRI of one frame.
fn encode_attrs(attrs: &PathAttributes, has_nlri: bool) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    // ORIGIN.
    let origin = match attrs.origin {
        Origin::Igp => 0u8,
        Origin::Egp => 1,
        Origin::Incomplete => 2,
    };
    out.extend_from_slice(&[flag::TRANSITIVE, attr::ORIGIN, 1, origin]);
    // AS_PATH: AS_SEQUENCE segments of 4-octet ASNs, ≤255 ASNs each.
    let mut path = Vec::with_capacity(2 + 4 * attrs.as_path.len());
    for seg in attrs.as_path.as_slice().chunks(SEG_MAX) {
        path.push(SEG_AS_SEQUENCE);
        path.push(seg.len() as u8);
        for asn in seg {
            path.extend_from_slice(&asn.0.to_be_bytes());
        }
    }
    push_attr(&mut out, flag::TRANSITIVE, attr::AS_PATH, &path);
    // NEXT_HOP: mandatory alongside NLRI; the emulator's next hop is the
    // delivering session, so the value is structurally 0.0.0.0.
    if has_nlri {
        out.extend_from_slice(&[flag::TRANSITIVE, attr::NEXT_HOP, 4, 0, 0, 0, 0]);
    }
    // MED, elided at its default of 0.
    if attrs.med != 0 {
        out.extend_from_slice(&[flag::OPTIONAL, attr::MED, 4]);
        out.extend_from_slice(&attrs.med.to_be_bytes());
    }
    // LOCAL_PREF, elided at the crate default.
    if attrs.local_pref != PathAttributes::DEFAULT_LOCAL_PREF {
        out.extend_from_slice(&[flag::TRANSITIVE, attr::LOCAL_PREF, 4]);
        out.extend_from_slice(&attrs.local_pref.to_be_bytes());
    }
    // COMMUNITIES (sorted — the in-memory invariant is the canonical order).
    if !attrs.communities.is_empty() {
        let mut body = Vec::with_capacity(4 * attrs.communities.len());
        for c in attrs.communities.as_slice() {
            body.extend_from_slice(&c.0.to_be_bytes());
        }
        push_attr(
            &mut out,
            flag::OPTIONAL | flag::TRANSITIVE,
            attr::COMMUNITIES,
            &body,
        );
    }
    // Link bandwidth as an extended community, Gbps in the float field.
    if let Some(gbps) = attrs.link_bandwidth_gbps {
        let narrowed = gbps as f32;
        if f64::from(narrowed) != gbps {
            return Err(WireError::Unrepresentable {
                what: "link bandwidth is not exactly representable as a 32-bit float",
            });
        }
        let mut body = vec![EXT_LB_TYPE, EXT_LB_SUBTYPE, 0, 0];
        body.extend_from_slice(&narrowed.to_bits().to_be_bytes());
        push_attr(
            &mut out,
            flag::OPTIONAL | flag::TRANSITIVE,
            attr::EXTENDED_COMMUNITIES,
            &body,
        );
    }
    Ok(out)
}

/// Append one attribute TLV, choosing the extended-length form when needed.
fn push_attr(out: &mut Vec<u8>, flags: u8, type_code: u8, body: &[u8]) {
    if body.len() > u8::MAX as usize {
        out.push(flags | flag::EXTENDED_LEN);
        out.push(type_code);
        out.extend_from_slice(&(body.len() as u16).to_be_bytes());
    } else {
        out.push(flags);
        out.push(type_code);
        out.push(body.len() as u8);
    }
    out.extend_from_slice(body);
}

/// Assemble one UPDATE frame from pre-encoded sections.
fn update_frame(withdrawn: &[Prefix], attrs: &[u8], nlri: &[Prefix]) -> Vec<u8> {
    let wbytes: usize = withdrawn.iter().map(nlri_len).sum();
    let nbytes: usize = nlri.iter().map(nlri_len).sum();
    let mut body = Vec::with_capacity(4 + wbytes + attrs.len() + nbytes);
    body.extend_from_slice(&(wbytes as u16).to_be_bytes());
    for p in withdrawn {
        push_nlri(&mut body, p);
    }
    body.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
    body.extend_from_slice(attrs);
    for p in nlri {
        push_nlri(&mut body, p);
    }
    finish_message(msg_type::UPDATE, body)
}

/// Greedily split prefixes into runs whose packed form fits `budget` bytes.
fn split_prefixes(prefixes: &[Prefix], budget: usize) -> Vec<&[Prefix]> {
    let mut runs = Vec::new();
    let mut start = 0;
    let mut used = 0;
    for (i, p) in prefixes.iter().enumerate() {
        let n = nlri_len(p);
        if used + n > budget && i > start {
            runs.push(&prefixes[start..i]);
            start = i;
            used = 0;
        }
        used += n;
    }
    if start < prefixes.len() {
        runs.push(&prefixes[start..]);
    }
    runs
}

fn encode_update(update: &UpdateMessage) -> Result<Vec<Vec<u8>>, WireError> {
    // Group announced prefixes by attribute content, preserving
    // first-appearance order (deterministic framing).
    let mut groups: Vec<(&Arc<PathAttributes>, Vec<Prefix>)> = Vec::new();
    for (p, a) in &update.announced {
        match groups.iter_mut().find(|(ga, _)| ***ga == **a) {
            Some((_, run)) => run.push(*p),
            None => groups.push((a, vec![*p])),
        }
    }
    // Body budget shared by the withdrawn-routes and NLRI sections.
    const BODY_BUDGET: usize = MAX_MESSAGE_LEN - HEADER_LEN - 4;
    // Common case: everything fits one frame with at most one attribute
    // block.
    if groups.len() <= 1 {
        let attrs = match groups.first() {
            Some((a, _)) => encode_attrs(a, true)?,
            None => Vec::new(),
        };
        let wbytes: usize = update.withdrawn.iter().map(nlri_len).sum();
        let nbytes: usize = groups
            .first()
            .map_or(0, |(_, run)| run.iter().map(nlri_len).sum());
        if wbytes + attrs.len() + nbytes <= BODY_BUDGET {
            let nlri: &[Prefix] = groups.first().map_or(&[], |(_, run)| run.as_slice());
            return Ok(vec![update_frame(&update.withdrawn, &attrs, nlri)]);
        }
    }
    // General case: withdrawal-only frames first, then one frame run per
    // attribute group.
    let mut frames = Vec::new();
    for run in split_prefixes(&update.withdrawn, BODY_BUDGET) {
        frames.push(update_frame(run, &[], &[]));
    }
    for (a, prefixes) in &groups {
        let attrs = encode_attrs(a, true)?;
        let budget = BODY_BUDGET.checked_sub(attrs.len()).ok_or(
            // Attributes alone cannot overflow a frame in this codec
            // (bounded attribute set, AS-paths split into ≤64 KiB), but
            // guard anyway rather than underflow.
            WireError::Unrepresentable {
                what: "attribute block exceeds the 4096-octet message cap",
            },
        )?;
        for run in split_prefixes(prefixes, budget) {
            frames.push(update_frame(&[], &attrs, run));
        }
    }
    if frames.is_empty() {
        // A completely empty UpdateMessage still encodes to one (empty)
        // UPDATE frame so encode/decode stay total.
        frames.push(update_frame(&[], &[], &[]));
    }
    Ok(frames)
}

// ---------------------------------------------------------------------------
// decode
// ---------------------------------------------------------------------------

/// Validate the fixed header at the front of `buf` and return the total
/// message length, or `None` when fewer than 19 bytes are buffered — the
/// streaming-read entry point: read 19 bytes, learn the length, read the
/// rest.
pub(crate) fn peek_length(buf: &[u8]) -> Result<Option<usize>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[..16] != MARKER {
        return Err(WireError::BadMarker);
    }
    let len = u16::from_be_bytes([buf[16], buf[17]]);
    if !(MIN_MESSAGE_LEN..=MAX_MESSAGE_LEN).contains(&(len as usize)) {
        return Err(WireError::BadLength { len });
    }
    Ok(Some(len as usize))
}

/// Decode one message from the front of `buf`, returning it and the number
/// of bytes consumed (so back-to-back messages in one buffer decode by
/// advancing the slice).
pub fn decode(buf: &[u8]) -> Result<(BgpMessage, usize), WireError> {
    let Some(len) = peek_length(buf)? else {
        return Err(WireError::Truncated {
            what: "message header",
            need: HEADER_LEN,
            have: buf.len(),
        });
    };
    if buf.len() < len {
        return Err(WireError::Truncated {
            what: "message body",
            need: len,
            have: buf.len(),
        });
    }
    let type_code = buf[18];
    let mut body = Decoder::new(&buf[HEADER_LEN..len]);
    let msg = match type_code {
        msg_type::OPEN => BgpMessage::Open(decode_open(&mut body)?),
        msg_type::UPDATE => BgpMessage::Update(decode_update(&mut body)?),
        msg_type::NOTIFICATION => BgpMessage::Notification(decode_notification(&mut body)?),
        msg_type::KEEPALIVE => {
            if !body.is_empty() {
                return Err(WireError::BadLength { len: len as u16 });
            }
            BgpMessage::Keepalive
        }
        other => return Err(WireError::UnknownMessageType(other)),
    };
    Ok((msg, len))
}

/// Decode a buffer that must contain exactly one message.
pub fn decode_exact(buf: &[u8]) -> Result<BgpMessage, WireError> {
    let (msg, used) = decode(buf)?;
    if used != buf.len() {
        return Err(WireError::TrailingBytes {
            what: "message",
            count: buf.len() - used,
        });
    }
    Ok(msg)
}

fn decode_open(d: &mut Decoder<'_>) -> Result<OpenMessage, WireError> {
    let version = d.u8("OPEN version")?;
    if version != 4 {
        return Err(WireError::UnsupportedVersion(version));
    }
    let my_as = d.u16("OPEN My-AS")?;
    let hold = d.u16("OPEN hold time")?;
    let _identifier = d.u32("OPEN identifier")?;
    let opt_len = d.u8("OPEN optional-parameters length")? as usize;
    let mut params = d.sub(opt_len, "OPEN optional parameters")?;
    d.expect_end("OPEN")?;
    let mut wide_asn: Option<u32> = None;
    while !params.is_empty() {
        let param_type = params.u8("optional-parameter type")?;
        let param_len = params.u8("optional-parameter length")? as usize;
        let mut param = params.sub(param_len, "optional parameter")?;
        if param_type != OPT_PARAM_CAPABILITIES {
            continue; // unknown parameters are skipped
        }
        while !param.is_empty() {
            let cap_code = param.u8("capability code")?;
            let cap_len = param.u8("capability length")? as usize;
            let mut cap = param.sub(cap_len, "capability value")?;
            if cap_code == CAP_FOUR_OCTET_AS {
                if cap_len != 4 {
                    return Err(WireError::BadAttributeLength {
                        type_code: CAP_FOUR_OCTET_AS,
                        len: cap_len,
                    });
                }
                wide_asn = Some(cap.u32("four-octet ASN")?);
            }
        }
    }
    Ok(OpenMessage {
        asn: Asn(wide_asn.unwrap_or(u32::from(my_as))),
        hold_time_secs: u32::from(hold),
    })
}

fn decode_notification(d: &mut Decoder<'_>) -> Result<NotificationCode, WireError> {
    let code = d.u8("NOTIFICATION code")?;
    let _subcode = d.u8("NOTIFICATION subcode")?;
    // Any remaining octets are diagnostic data; RFC 4271 lets them be
    // arbitrary, so they are accepted and dropped.
    match code {
        4 => Ok(NotificationCode::HoldTimerExpired),
        5 => Ok(NotificationCode::FiniteStateMachineError),
        6 => Ok(NotificationCode::Cease),
        other => Err(WireError::BadNotification { code: other }),
    }
}

/// Decode a packed prefix list until the decoder is exhausted.
fn decode_prefixes(d: &mut Decoder<'_>, what: &'static str) -> Result<Vec<Prefix>, WireError> {
    let mut out = Vec::new();
    while !d.is_empty() {
        let len = d.u8(what)?;
        if len > 32 {
            return Err(WireError::PrefixTooLong { len });
        }
        let n = (len as usize).div_ceil(8);
        let octets = d.bytes(n, what)?;
        let mut addr = [0u8; 4];
        addr[..n].copy_from_slice(octets);
        // Prefix::new masks host bits: a sloppily-packed peer frame decodes
        // to the route it denotes rather than being rejected.
        out.push(Prefix::new(u32::from_be_bytes(addr), len));
    }
    Ok(out)
}

/// Flag validation: well-known attributes must be transitive and
/// non-optional; optional ones must carry the optional bit; the partial bit
/// is only legal on optional transitive attributes; the low four bits must
/// be zero. The extended-length bit is handled by the caller.
fn check_flags(
    type_code: u8,
    flags: u8,
    optional: bool,
    transitive: bool,
) -> Result<(), WireError> {
    let significant = flags & !flag::EXTENDED_LEN;
    let bad = (significant & flag::OPTIONAL != 0) != optional
        || (significant & flag::TRANSITIVE != 0) != transitive
        || significant & flag::LOW_BITS != 0
        || (significant & flag::PARTIAL != 0 && !(optional && transitive));
    if bad {
        return Err(WireError::BadAttributeFlags { type_code, flags });
    }
    Ok(())
}

fn fixed_len(type_code: u8, got: usize, want: usize) -> Result<(), WireError> {
    if got != want {
        return Err(WireError::BadAttributeLength {
            type_code,
            len: got,
        });
    }
    Ok(())
}

/// The attribute block of one UPDATE, decoded.
#[derive(Default)]
struct DecodedAttrs {
    origin: Option<Origin>,
    as_path: Option<Vec<Asn>>,
    next_hop: bool,
    med: Option<u32>,
    local_pref: Option<u32>,
    communities: Option<Vec<Community>>,
    link_bandwidth_gbps: Option<f64>,
}

fn decode_attrs(d: &mut Decoder<'_>) -> Result<DecodedAttrs, WireError> {
    let mut out = DecodedAttrs::default();
    let mut seen = [false; 256];
    while !d.is_empty() {
        let flags = d.u8("attribute flags")?;
        let type_code = d.u8("attribute type")?;
        let len = if flags & flag::EXTENDED_LEN != 0 {
            d.u16("attribute extended length")? as usize
        } else {
            d.u8("attribute length")? as usize
        };
        let mut body = d.sub(len, "attribute value")?;
        if seen[type_code as usize] {
            return Err(WireError::DuplicateAttribute { type_code });
        }
        seen[type_code as usize] = true;
        match type_code {
            attr::ORIGIN => {
                check_flags(type_code, flags, false, true)?;
                fixed_len(type_code, len, 1)?;
                out.origin = Some(match body.u8("ORIGIN value")? {
                    0 => Origin::Igp,
                    1 => Origin::Egp,
                    2 => Origin::Incomplete,
                    _ => return Err(WireError::BadAttributeValue { type_code }),
                });
            }
            attr::AS_PATH => {
                check_flags(type_code, flags, false, true)?;
                let mut path = Vec::new();
                while !body.is_empty() {
                    let seg_type = body.u8("AS_PATH segment type")?;
                    if seg_type != SEG_AS_SEQUENCE {
                        // AS_SET (1) and the confederation segment types
                        // cannot be represented by the plain in-memory
                        // sequence; the fabric never produces them.
                        return Err(WireError::BadSegmentType { seg: seg_type });
                    }
                    let count = body.u8("AS_PATH segment length")? as usize;
                    if count == 0 {
                        return Err(WireError::BadAttributeLength { type_code, len });
                    }
                    for _ in 0..count {
                        path.push(Asn(body.u32("AS_PATH ASN")?));
                    }
                }
                out.as_path = Some(path);
            }
            attr::NEXT_HOP => {
                check_flags(type_code, flags, false, true)?;
                fixed_len(type_code, len, 4)?;
                let _ = body.u32("NEXT_HOP value")?;
                out.next_hop = true;
            }
            attr::MED => {
                check_flags(type_code, flags, true, false)?;
                fixed_len(type_code, len, 4)?;
                out.med = Some(body.u32("MED value")?);
            }
            attr::LOCAL_PREF => {
                check_flags(type_code, flags, false, true)?;
                fixed_len(type_code, len, 4)?;
                out.local_pref = Some(body.u32("LOCAL_PREF value")?);
            }
            attr::COMMUNITIES => {
                check_flags(type_code, flags, true, true)?;
                if len % 4 != 0 {
                    return Err(WireError::BadAttributeLength { type_code, len });
                }
                let mut cs = Vec::with_capacity(len / 4);
                while !body.is_empty() {
                    cs.push(Community(body.u32("COMMUNITIES value")?));
                }
                // Restore the in-memory invariant (sorted + deduped); the
                // codec's own frames are already canonical.
                cs.sort_unstable();
                cs.dedup();
                out.communities = Some(cs);
            }
            attr::EXTENDED_COMMUNITIES => {
                check_flags(type_code, flags, true, true)?;
                if len % 8 != 0 {
                    return Err(WireError::BadAttributeLength { type_code, len });
                }
                while !body.is_empty() {
                    let kind = body.u8("extended-community type")?;
                    let subtype = body.u8("extended-community subtype")?;
                    let _reserved = body.u16("extended-community value")?;
                    let bits = body.u32("extended-community value")?;
                    if kind == EXT_LB_TYPE && subtype == EXT_LB_SUBTYPE {
                        if out.link_bandwidth_gbps.is_some() {
                            return Err(WireError::DuplicateAttribute { type_code });
                        }
                        out.link_bandwidth_gbps = Some(f64::from(f32::from_bits(bits)));
                    }
                    // Other extended communities are values the emulator
                    // does not model; skip them like any optional payload.
                }
            }
            other if flags & flag::OPTIONAL != 0 => {
                // Unrecognized optional attribute: legal, skipped (a real
                // speaker would forward transitive ones unchanged).
                let _ = other;
            }
            other => return Err(WireError::UnrecognizedWellKnown { type_code: other }),
        }
    }
    Ok(out)
}

fn decode_update(d: &mut Decoder<'_>) -> Result<UpdateMessage, WireError> {
    let wlen = d.u16("withdrawn-routes length")? as usize;
    let mut wsec = d.sub(wlen, "withdrawn routes")?;
    let withdrawn = decode_prefixes(&mut wsec, "withdrawn route")?;
    let alen = d.u16("path-attributes length")? as usize;
    let mut asec = d.sub(alen, "path attributes")?;
    let decoded = decode_attrs(&mut asec)?;
    let nlri = decode_prefixes(d, "NLRI")?;
    let announced = if nlri.is_empty() {
        Vec::new()
    } else {
        // Mandatory well-known attributes must accompany NLRI.
        let origin = decoded
            .origin
            .ok_or(WireError::MissingAttribute { name: "ORIGIN" })?;
        let as_path = decoded
            .as_path
            .ok_or(WireError::MissingAttribute { name: "AS_PATH" })?;
        if !decoded.next_hop {
            return Err(WireError::MissingAttribute { name: "NEXT_HOP" });
        }
        let attrs = Arc::new(PathAttributes {
            as_path: as_path.into(),
            origin,
            local_pref: decoded
                .local_pref
                .unwrap_or(PathAttributes::DEFAULT_LOCAL_PREF),
            med: decoded.med.unwrap_or(0),
            communities: decoded.communities.unwrap_or_default().into(),
            link_bandwidth_gbps: decoded.link_bandwidth_gbps,
        });
        nlri.into_iter().map(|p| (p, Arc::clone(&attrs))).collect()
    };
    Ok(UpdateMessage {
        withdrawn,
        announced,
    })
}
