#![warn(missing_docs, unreachable_pub)]

//! # centralium-simnet
//!
//! A deterministic discrete-event emulator of a BGP fabric, built to expose
//! the *asynchronous convergence* effects the Centralium paper is about:
//! per-session message timing, per-prefix update interleaving, transitory
//! forwarding states, next-hop-group churn, funneling, loops and black-holes.
//!
//! Every device hosts a real [`centralium_bgp::BgpDaemon`] plus an
//! [`centralium_rpa::RpaEngine`] and a [`fib::Fib`] with next-hop-group
//! accounting. Messages between daemons are scheduled on a single event queue
//! with a seeded latency/jitter model; per-session FIFO ordering is preserved
//! (BGP runs over TCP). Everything is reproducible from the seed.
//!
//! Modules:
//!
//! * [`event`] — simulated clock + deterministic event queue;
//! * [`fib`] — forwarding table with next-hop-group table accounting (§3.4);
//! * [`device`] — daemon + engine + FIB bundle;
//! * [`net`] — the emulator: sessions, delivery, drains, RPA deployment;
//! * [`traffic`] — demand routing over FIBs: utilization, funneling, loss,
//!   loop detection;
//! * [`mgmt`] — Open/R-like management plane (SPF reachability + RPC
//!   latency for the controller);
//! * [`fault`] — the [`ChaosPlan`] driving RPC drop/delay/duplicate and
//!   agent crash-restart for deployment-resilience testing;
//! * [`trace`] — convergence reporting.

pub mod arena;
pub mod device;
pub mod event;
pub mod fault;
pub mod fib;
mod hash;
pub mod invariants;
pub mod mgmt;
pub mod net;
pub mod trace;
pub mod traffic;

pub use arena::DenseMap;
pub use device::SimDevice;
pub use event::{EventQueue, SimTime, MAX_DEADLINE};
pub use fault::{chaos_unit, ChaosPlan, RpcFate};
pub use fib::{Fib, FibScratch, NhgStats};
pub use invariants::{assert_rib_consistent, verify_rib_consistency};
pub use mgmt::ManagementPlane;
pub use net::{NetEvent, SimConfig, SimConfigBuilder, SimNet};
pub use trace::ConvergenceReport;
pub use traffic::{DeliveryReport, TrafficMatrix};
