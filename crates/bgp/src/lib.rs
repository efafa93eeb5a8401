#![warn(missing_docs, unreachable_pub)]

//! # centralium-bgp
//!
//! A BGP implementation shaped for the data center, as run in the Centralium
//! paper (SIGCOMM 2025): eBGP on every hop, one private ASN per switch,
//! multipath (ECMP) by default, WCMP via the link-bandwidth extended
//! community, and — the paper's contribution — **RPA hook points** inside the
//! RIB computation so an external Route Planning Abstraction engine can
//! influence (not replace) the decision process.
//!
//! The crate is transport-agnostic: a [`daemon::BgpDaemon`] is a deterministic
//! state machine. Callers (the `centralium-simnet` emulator, unit tests,
//! benches) feed it events — session up/down, received [`msg::UpdateMessage`]s,
//! originations — and collect the updates it wants to send in return. This is
//! the same shape as smoltcp's poll-based design: no threads, no sockets, no
//! hidden time.
//!
//! Layering (bottom-up):
//!
//! * [`types`] — prefixes, peer/session ids;
//! * [`attrs`] — path attributes: AS-path, local-pref, MED, communities,
//!   link-bandwidth;
//! * [`msg`] — OPEN / UPDATE / KEEPALIVE / NOTIFICATION messages;
//! * [`outbox`] — what a decide tells its sessions, as per-session runs;
//! * [`policy`] — classic import/export route policy (match / action rules);
//! * [`rib`] — one slot per prefix: Adj-RIB-In, origination, Loc-RIB and
//!   Adj-RIB-Out;
//! * [`decision`] — the RFC 4271 §9.1 decision process plus multipath;
//! * [`wcmp`] — weight derivation from link-bandwidth communities;
//! * [`hooks`] — the [`hooks::RibPolicy`] trait: the seam RPAs plug into;
//! * [`daemon`] — wires everything together per speaker.

pub mod attrs;
pub mod daemon;
pub mod decision;
pub mod flat;
pub mod hooks;
pub mod msg;
pub mod outbox;
pub mod policy;
pub mod rib;
pub mod types;
pub mod wcmp;

pub use attrs::{Community, Origin, PathAttributes};
pub use centralium_topology::Asn;
pub use daemon::{BgpDaemon, DaemonConfig, FibEntry, ForwardingPlane, NextHops, PeerConfig};
pub use decision::{compare_routes, multipath_set, PathPreference};
pub use hooks::{AdvertiseChoice, NativePolicy, PathChoice, RibPolicy, Selection};
pub use msg::{BgpMessage, UpdateMessage};
pub use outbox::Outbox;
pub use policy::{Action, MatchExpr, Policy, PolicyRule, PolicyVerdict};
pub use rib::{LocRibEntry, Path, RibFootprint, Route};
pub use types::{PeerId, Prefix};
