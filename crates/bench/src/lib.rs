#![warn(missing_docs)]

//! # centralium-bench
//!
//! Shared experiment infrastructure for regenerating every table and figure
//! of the Centralium paper's evaluation (§6), plus the §3 pathology
//! scenarios and the §5.3 interoperability ablations.
//!
//! * [`paper`] — one entry per paper artefact, run by the `paper` binary
//!   (`paper [--only NAME] [--tiny]`); each returns a deterministic block
//!   and a host-time block;
//! * [`scenarios`] — purpose-built topologies: the Figure 5 EB/UU/DU
//!   explosion rig, the Figure 9 dissemination-loop sixpack, the Figure 10
//!   sequencing rig, and converged standard fabrics;
//! * [`stats`] — percentiles and CDF rendering;
//! * [`report`] — plain-text table printers shared by the entries and the
//!   perf binaries;
//! * [`args`] — the tiny flag parser behind the perf binaries' options
//!   (`--tiny`, `--fabric`, `--json FILE`, …);
//! * [`tier`] — the named fabric tiers (`tiny` … `xxl`) shared by
//!   `bench_convergence` and `perf_report`, plus the peak-RSS probe;
//! * [`alloc`] — the counting global allocator behind the live-heap
//!   footprint readings (installed per binary, not by this library).

pub mod alloc;
pub mod args;
pub mod paper;
pub mod report;
pub mod scenarios;
pub mod stats;
pub mod tier;
