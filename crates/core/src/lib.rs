#![warn(missing_docs, unreachable_pub)]

//! # centralium
//!
//! The Centralium controller (§5 of the paper): a logically centralized
//! route-planning system layered over a distributed BGP fabric. The
//! controller never computes forwarding entries; it compiles operator intent
//! into **Route Planning Abstractions** and lets every switch's BGP daemon
//! enforce them locally.
//!
//! The five controller functions of §5:
//!
//! 1. pre-deployment network health checks ([`health`]);
//! 2. per-switch RPA generation ([`compile`], from [`intent`]);
//! 3. coordinated, safely-ordered deployment ([`sequencer`]);
//! 4. post-deployment network health checks ([`health`]);
//! 5. fleet-wide consistency of desired RPAs ([`switch_agent`]).
//!
//! [`controller::Controller`] wires the layers together over the emulator;
//! [`apps`] hosts the 10+ production use cases; [`planner`] reproduces the
//! Table 3 step/day accounting; [`preverify`] is the §7.1 emulation-based
//! pre-deployment verification.
//!
//! The deployment pipeline is transport-agnostic: [`transport`] defines the
//! [`ControlTransport`] RPC surface with in-process and TCP implementations,
//! and [`serve`] hosts the agent side of the TCP service plane.

pub mod apps;
pub mod compile;
pub mod controller;
pub mod error;
pub mod health;
pub mod intent;
pub mod planner;
pub mod preverify;
pub mod retry;
pub mod sequencer;
pub mod serve;
pub mod switch_agent;
pub mod transport;

pub use compile::{compile_intent, CompileError};
pub use controller::{
    deploy_intent_over, remove_intent_over, resume_deployment_over, Controller, DeployError,
    DeployOptions, DeploymentReport,
};
pub use error::Error;
pub use health::{HealthCheck, HealthReport};
pub use intent::{RoutingIntent, TargetSet};
pub use planner::{plan_all_categories, MigrationPlanComparison};
pub use retry::{CircuitBreaker, RetryPolicy};
pub use sequencer::{DeploymentPhase, DeploymentStrategy};
pub use serve::AgentServer;
pub use switch_agent::SwitchAgent;
pub use transport::{ControlTransport, InProcessTransport, TcpTransport};
