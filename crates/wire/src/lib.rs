//! RFC 4271 wire codec and service-plane framing for Centralium.
//!
//! This crate is the byte layer of ROADMAP item 3 ("a real wire protocol"):
//!
//! - [`bgp`] — strict RFC 4271 binary serialization (OPEN / UPDATE /
//!   KEEPALIVE / NOTIFICATION) that round-trips exactly with the in-memory
//!   [`centralium_bgp::msg`] structures, carrying 4-octet ASNs (RFC 6793)
//!   end to end because the fabric's ASN extension bands exceed 16 bits.
//!   A library with its own tests and benchmark kernels: no socket reaches
//!   it.
//! - [`frame`] — the `CRP1` length-delimited framing the controller↔agent
//!   RPC connections speak: JSON control RPCs in Request and Response
//!   frames, and nothing else.
//! - [`decode`] — the bounds-checked [`Decoder`] cursor the BGP codec
//!   builds on: arbitrary input bytes decode to typed [`WireError`]s,
//!   never to a panic or an out-of-bounds read (the contract the fuzzing
//!   roadmap item will hammer on).
//!
//! The crate deliberately depends only on `centralium-bgp` and
//! `centralium-topology`: the transport that moves these bytes lives in
//! `centralium-core::serve`, and the simulator can audit its in-memory
//! messages through this codec without linking any socket code.

#![warn(unreachable_pub)]

pub mod bgp;
pub mod decode;
pub mod error;
pub mod frame;
pub mod fuzz;

pub use decode::Decoder;
pub use error::WireError;
pub use frame::{Frame, FrameKind};
