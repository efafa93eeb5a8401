#![warn(missing_docs, unreachable_pub)]

//! # centralium-rpa
//!
//! Route Planning Abstractions (RPAs) — the core contribution of the
//! Centralium paper (§4): plug-and-play constructs that influence, rather
//! than replace, BGP's RIB computation.
//!
//! Three primitives (Figure 7):
//!
//! * [`PathSelectionRpa`] — an ordered list of *path sets*, each identified
//!   by a [`PathSignature`] plus a `MinNextHop` floor; the first path set
//!   with enough matching active routes is selected for forwarding, with
//!   native BGP selection as the fallback. A statement may instead (or
//!   additionally) guard *native* selection with `BgpNativeMinNextHop` and
//!   `KeepFibWarmIfMnhViolated`.
//! * [`RouteAttributeRpa`] — prescribes relative WCMP weights per path-set
//!   signature (`NextHopWeightList`), optionally expiring at a deadline.
//! * [`RouteFilterRpa`] — per-peer-signature prefix allow lists with mask
//!   length bounds, applied on ingress and egress.
//!
//! The [`RpaEngine`] compiles installed documents and implements the
//! [`centralium_bgp::RibPolicy`] hook trait, including the per-route
//! evaluation cache the paper measures in Table 2.

pub mod document;
pub mod engine;
pub mod path_selection;
pub mod route_attribute;
pub mod route_filter;
pub mod signature;

pub use document::{RpaDocument, RpaError};
pub use engine::{EngineStats, RpaEngine};
pub use path_selection::{MinNextHop, PathSelectionRpa, PathSelectionStatement, PathSet};
pub use route_attribute::{NextHopWeight, RouteAttributeRpa, RouteAttributeStatement};
pub use route_filter::{PeerSignature, PrefixFilter, RouteFilterRpa, RouteFilterStatement};
pub use signature::{Destination, PathSignature};
