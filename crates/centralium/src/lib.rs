#![warn(missing_docs)]

//! # centralium — the umbrella facade
//!
//! This crate is the **supported public surface** of the Centralium
//! reproduction. Everything in [`prelude`] — and, transitively, the items
//! re-exported at this crate's root — follows the usual semver discipline:
//! additions are minor, removals or signature changes are major. The
//! per-subsystem crates (`centralium_simnet`, `centralium_bgp`, …) are
//! imported by their own names and make no such promise; their internals
//! shift as the reproduction grows.
//!
//! Quick start:
//!
//! ```
//! use centralium::prelude::*;
//!
//! let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
//! let mut net = SimNet::new(topo, SimConfig::builder().seed(7).build());
//! net.establish_all();
//! for &eb in &idx.backbone {
//!     net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
//! }
//! assert!(net.run_until_quiescent().converged);
//! ```

// The controller crate is the historical root of the public API; its whole
// surface stays reachable through the facade so pre-facade imports
// (`centralium::controller::Controller`, `centralium::compile_intent`, …)
// keep compiling unchanged.
pub use centralium_core::*;

/// The blessed one-import surface: controller, emulator, builders, and
/// telemetry handles. [`Controller`] deploys over its in-process fabric; a
/// deployment over a transport the caller built (a [`TcpTransport`] to a
/// remote agent) goes through the crate root's [`deploy_intent_over`] and
/// its removal and resume siblings.
pub mod prelude {
    pub use centralium_bgp::attrs::well_known;
    pub use centralium_bgp::{FibEntry, NextHops, PeerId, Prefix};
    pub use centralium_core::controller::Controller;
    pub use centralium_core::health::{HealthCheck, HealthReport, TrafficProbe};
    pub use centralium_core::sequencer::DeploymentStrategy;
    pub use centralium_core::switch_agent::SwitchAgent;
    pub use centralium_core::transport::{ControlTransport, TcpTransport};
    pub use centralium_core::{
        compile_intent, AgentServer, DeployError, DeployOptions, DeploymentReport, Error,
        RoutingIntent, TargetSet,
    };
    pub use centralium_rpa::{RpaDocument, RpaEngine};
    pub use centralium_simnet::{
        ChaosPlan, ConvergenceReport, SimConfig, SimConfigBuilder, SimNet,
    };
    pub use centralium_telemetry::{MetricsRegistry, Telemetry};
    pub use centralium_topology::{build_fabric, DeviceId, FabricSpec, Layer, Topology};
}
