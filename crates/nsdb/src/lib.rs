#![warn(missing_docs, unreachable_pub)]

//! # centralium-nsdb
//!
//! The Network State Database: the storage layer of the Centralium
//! controller (§5.1). Current and intended network states share one tree
//! representation rooted at a device map; any node is addressable by a path
//! string, and all services share the same generic get / set API, whose
//! reads support wildcards (Appendix A.3). The paper's pub/sub channels are
//! not modelled: the Switch Agent polls and reconciles instead.
//!
//! Key design points reproduced from the paper:
//!
//! * **Two contrasting network views** — every service holds an *intended*
//!   state (what applications want) and a *current* state (ground truth from
//!   switches). Continuously reconciling them yields the fleet-wide
//!   consistency guarantee and makes straggler detection trivial ([`store`]).
//! * **Data-agnostic values** — JSON stands in for Thrift encapsulation.
//! * **Replication** — publish requests fan out to all NSDB replicas; reads
//!   go to the elected leader; replica failure re-routes reads and a
//!   recovering replica re-syncs from the leader ([`replica`]).
//! * **Service template** — uniform health/stats surface every Centralium
//!   service exposes ([`service`]), which Figure 11's CPU/memory CDFs are
//!   sampled from.

pub mod path;
pub mod replica;
pub mod service;
pub mod store;
pub mod tree;

pub use path::Path;
pub use replica::ReplicatedNsdb;
pub use service::{ServiceHealth, ServiceStats, ServiceTemplate};
pub use store::DualStore;
pub use tree::StateTree;
