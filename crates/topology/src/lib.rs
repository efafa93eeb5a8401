#![warn(missing_docs, unreachable_pub)]

//! # centralium-topology
//!
//! A parametric model of Meta-style Clos data-center topologies, as described
//! in §2 and Appendix A.1 of the Centralium paper (SIGCOMM 2025).
//!
//! The network consists of five horizontal switch layers from bottom to top:
//! *Rack Switches (RSWs)*, *Fabric Switches (FSWs)*, *Spine Switches (SSWs)*,
//! *Fabric Aggregate Downlink Units (FADUs)* and *Fabric Aggregate Uplink
//! Units (FAUUs)*, with FAUUs connecting to backbone devices (*EBs*).
//! Switches map to logical groupings (*pod*, *plane*, *grid*) that act as
//! units of deployment.
//!
//! This crate provides:
//!
//! * [`Layer`], [`DeviceId`], [`Device`], [`Link`] — the basic vocabulary;
//! * [`Topology`] — an in-memory graph with adjacency indices;
//! * [`FabricSpec`] / [`build_fabric`] — parametric Clos generation, including
//!   the wiring invariants the paper relies on (e.g. "SSW-N in every plane is
//!   connected only to FADU-N in every grid");
//! * [`migration`] — migrations expressed as ordered lists of topology deltas
//!   (add/remove/drain devices and links), the unit of work the Centralium
//!   controller plans over;
//! * [`asn`] — per-device ASN assignment mirroring a BGP-in-the-DC design.
//!
//! The topology model is deliberately independent of any routing logic: the
//! BGP daemon, the RPA engine and the simulator all consume it read-only.

pub mod asn;
pub mod builder;
pub mod device;
pub mod graph;
pub mod layer;
pub mod link;
pub mod migration;
pub mod naming;

pub use asn::{Asn, AsnAllocator};
pub use builder::{build_fabric, build_three_tier, FabricIndex, FabricSpec, ThreeTierSpec};
pub use device::{Device, DeviceId, DeviceState};
pub use graph::Topology;
pub use layer::Layer;
pub use link::{Link, LinkId, LinkState};
pub use migration::{Migration, MigrationCategory, MigrationStage, TopologyDelta};
pub use naming::{DeviceName, Grid, Plane, Pod};
