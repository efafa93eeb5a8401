//! The paper's artefacts as one table of entries.
//!
//! Every table and figure of the evaluation (§6), the §3 pathology
//! scenarios and the §5.3 ablations is one [`Entry`] in [`ENTRIES`]: a
//! module of the same name whose `artefact(tiny)` regenerates it. The name
//! is also the basename of its checkpoint `results/NAME.txt`, and the
//! `paper` binary runs them:
//!
//! ```text
//! cargo run --release -p centralium-bench --bin paper                    # all
//! cargo run --release -p centralium-bench --bin paper -- --only NAME     # one
//! cargo run --release -p centralium-bench --bin paper -- --tiny          # smoke scale
//! ```
//!
//! An entry returns an [`Artefact`] of two text blocks. The deterministic
//! block (counts, simulated time, FIB- and traffic-derived ratios, seeds)
//! reads the same on every run and every host; `tests/paper_artefacts.rs`
//! pins each entry's tiny-scale block against a committed golden. The
//! host-time block holds everything read off a wall clock.

use centralium_telemetry::MetricsSnapshot;
use std::fmt::Display;

/// What one entry printed, split by whether a rerun can change it.
#[derive(Debug, Default)]
pub struct Artefact {
    /// Counts, simulated time, FIB- and traffic-derived ratios and seeds:
    /// identical on every run and every host.
    pub deterministic: String,
    /// Wall ms, CPU %, wall-clock percentiles, per-phase wall time and the
    /// `*_us` telemetry (`simnet.phase.*_us`, the `rpa.eval_us` histogram).
    pub host_time: String,
}

impl Artefact {
    /// Append a line (or several, joined by `\n`) to the deterministic block.
    pub(crate) fn det(&mut self, text: impl Display) {
        self.deterministic.push_str(&format!("{text}\n"));
    }

    /// Append a line (or several) to the host-time block.
    pub(crate) fn host(&mut self, text: impl Display) {
        self.host_time.push_str(&format!("{text}\n"));
    }
}

/// One paper artefact.
#[derive(Debug)]
pub struct Entry {
    /// The `results/NAME.txt` basename, and the `--only` argument.
    pub name: &'static str,
    /// Regenerate the artefact; `tiny` shrinks whatever dominates its cost
    /// to smoke scale.
    pub run: fn(tiny: bool) -> Artefact,
}

/// Declare each entry's module and list it in [`ENTRIES`], so a name, its
/// module and its `results/` file cannot drift apart.
macro_rules! entries {
    ($($name:ident),* $(,)?) => {
        $(pub mod $name;)*

        /// Every artefact, in the order EXPERIMENTS.md presents them.
        pub const ENTRIES: &[Entry] = &[$(Entry {
            name: stringify!($name),
            run: $name::artefact,
        }),*];
    };
}

entries![
    table1_categories,
    fig3_migration_scale,
    fig11_controller_usage,
    fig12_deploy_time,
    table2_eval_time,
    table3_steps,
    fig13_te_capacity,
    rpa_generation,
    scenario_first_router,
    scenario_last_router,
    scenario_nhg_explosion,
    scenario_anycast_stability,
    scenario_fib_warm_sev,
    scenario_dissemination,
    scenario_sequencing,
];

/// Split a telemetry delta into its deterministic metrics and its
/// wall-clock ones. Every `*_us` metric in the registry is a wall-clock
/// reading (`simnet.phase.*_us`, `rpa.eval_us`, `serve.rpc_us`).
pub(crate) fn split_host_time(snap: &MetricsSnapshot) -> (MetricsSnapshot, MetricsSnapshot) {
    let (mut det, mut host) = (snap.clone(), MetricsSnapshot::default());
    let is_det = |name: &String| !name.ends_with("_us");
    (det.counters, host.counters) = det.counters.into_iter().partition(|(n, _)| is_det(n));
    (det.gauges, host.gauges) = det.gauges.into_iter().partition(|(n, _)| is_det(n));
    (det.histograms, host.histograms) = det.histograms.into_iter().partition(|(n, _)| is_det(n));
    (det.log_histograms, host.log_histograms) =
        det.log_histograms.into_iter().partition(|(n, _)| is_det(n));
    (det, host)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::render_cdf;

    /// The value a rendered CDF prints on its `p<label>` row.
    fn cdf_row(cdf: &str, label: &str) -> String {
        cdf.lines()
            .find_map(|l| l.trim_start().strip_prefix(label))
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no {label} row in\n{cdf}"))
            .to_string()
    }

    /// The value after `key ` in the Figure 12 summary line.
    fn summary_field(summary: &str, key: &str) -> String {
        let mut words = summary.split_whitespace();
        words.find(|w| *w == key);
        words
            .next()
            .unwrap_or_else(|| panic!("no {key} in {summary}"))
            .to_string()
    }

    #[test]
    fn fig12_summary_percentiles_match_the_printed_cdf() {
        // Distinct samples, so the minimum differs from every percentile
        // row above p0 (passing 0.50 for p50 reads the minimum).
        let samples: Vec<f64> = (1..=100).rev().map(|i| i as f64 * 0.01).collect();
        let cdf = render_cdf("RPA deployment time", "ms", &samples);
        let summary = fig12_deploy_time::summary(&samples);
        assert_eq!(summary_field(&summary, "p50_ms"), cdf_row(&cdf, "p50.0"));
        assert_eq!(summary_field(&summary, "p99_ms"), cdf_row(&cdf, "p99.0"));
    }

    #[test]
    fn split_host_time_moves_only_the_us_metrics() {
        let reg = centralium_telemetry::MetricsRegistry::new();
        reg.counter("bgp.decisions").add(9);
        reg.counter("simnet.phase.windows").add(2);
        reg.counter("simnet.phase.work_us").add(1234);
        reg.histogram("rpa.eval_us", &[1.0]).observe(0.5);
        let (det, host) = split_host_time(&reg.snapshot());
        assert_eq!(det.counter("bgp.decisions"), 9);
        assert_eq!(det.counter("simnet.phase.windows"), 2);
        assert!(!det.counters.contains_key("simnet.phase.work_us"));
        assert!(det.histograms.is_empty());
        assert_eq!(host.counter("simnet.phase.work_us"), 1234);
        assert!(host.histogram("rpa.eval_us").is_some());
        assert!(host.counters.len() == 1 && host.gauges.is_empty());
    }
}
