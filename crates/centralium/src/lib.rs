#![warn(missing_docs)]

//! # centralium — the umbrella facade
//!
//! This crate is the **supported public surface** of the Centralium
//! reproduction. Everything in [`prelude`] — and, transitively, the items
//! re-exported at this crate's root — follows the usual semver discipline:
//! additions are minor, removals or signature changes are major. The
//! per-subsystem crates (`centralium-core`, `centralium-simnet`, …) remain
//! usable directly but make no such promise; their internals shift as the
//! reproduction grows.
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

/// The emulated-fabric layer: topology-driven BGP emulation.
pub mod simnet {
    pub use centralium_simnet::*;
}

/// Topology modelling: fabrics, layers, device ids.
pub mod topology {
    pub use centralium_topology::*;
}

/// The BGP data plane model: daemons, RIBs, path attributes.
pub mod bgp {
    pub use centralium_bgp::*;
}

/// Route Planning Abstractions: documents, signatures, the evaluation engine.
pub mod rpa {
    pub use centralium_rpa::*;
}

/// Network State Database: dual store, pub/sub, service template.
pub mod nsdb {
    pub use centralium_nsdb::*;
}

/// Traffic-engineering helpers.
pub mod te {
    pub use centralium_te::*;
}

/// Structured telemetry: event journal, metrics registry, and one span stream
/// (pipeline phases plus gated tracing) per handle.
pub mod telemetry {
    pub use centralium_telemetry::*;
}

/// The RFC 4271 wire codec and `CRP1` framing of the TCP service plane.
pub mod wire {
    pub use centralium_wire::*;
}

/// The blessed one-import surface: controller, emulator, builders, and
/// telemetry handles.
pub mod prelude {
    pub use centralium_bgp::attrs::well_known;
    pub use centralium_bgp::{FibEntry, NextHops, PeerId, Prefix};
    pub use centralium_core::controller::{Controller, DeployOptionsBuilder};
    pub use centralium_core::health::{HealthCheck, HealthReport, TrafficProbe};
    pub use centralium_core::sequencer::{DeploymentStrategy, WaveFailurePolicy};
    pub use centralium_core::switch_agent::SwitchAgent;
    pub use centralium_core::transport::{ControlTransport, TcpTransport, TransportKind};
    pub use centralium_core::{
        compile_intent, AgentServer, DeployError, DeployOptions, DeploymentReport, Error,
        RoutingIntent, TargetSet,
    };
    pub use centralium_rpa::{RpaDocument, RpaEngine};
    pub use centralium_simnet::{
        ChaosPlan, ConvergenceReport, FaultPlan, SimConfig, SimConfigBuilder, SimNet,
    };
    pub use centralium_telemetry::{MetricsRegistry, Telemetry};
    pub use centralium_topology::{build_fabric, DeviceId, FabricSpec, Layer, Topology};
}
