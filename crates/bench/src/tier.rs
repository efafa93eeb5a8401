//! Named fabric tiers shared by the perf binaries.
//!
//! `bench_convergence` and `perf_report` measure the same episode story at
//! the same named sizes; this module is the single place those names map to
//! topology specs, so adding a tier (or retuning one) cannot desynchronize
//! the two binaries or the committed `BENCH_convergence.json` trajectory.
//!
//! Tiers come in two shapes: the five-layer Meta-style fabric
//! ([`FabricSpec`]) at unit-test sizes, and the paper-scale three-tier Clos
//! ([`ThreeTierSpec`]) whose link count stays linear in devices — the `2k`
//! and `xl` tiers that exercise the arena storage and the event-queue
//! scheduler at 2k/10k+ devices.

use centralium_topology::{
    build_fabric, build_three_tier, AsnAllocator, FabricIndex, FabricSpec, ThreeTierSpec, Topology,
};

/// A named fabric tier: either the five-layer fabric or the paper-scale
/// three-tier Clos.
#[derive(Debug, Clone)]
pub enum TierSpec {
    /// Five-layer RSW/FSW/SSW/FADU/FAUU fabric (tiny/default/large).
    FiveTier(FabricSpec),
    /// Three-tier ToR/agg/spine fabric (2k/xl).
    ThreeTier(ThreeTierSpec),
}

/// Every tier name [`TierSpec::by_name`] accepts, in ascending size order —
/// the order benches measure them in. Per-tier peak-RSS attribution relies
/// on [`reset_peak_rss`] between tiers where the kernel supports it, with
/// ascending order (and an `inherited` marker) as the fallback.
pub(crate) const TIER_NAMES: &[&str] = &["tiny", "default", "large", "2k", "xl", "xxl"];

impl TierSpec {
    /// Resolve a tier name. `None` for unknown names; see `TIER_NAMES`.
    pub fn by_name(name: &str) -> Option<TierSpec> {
        Some(match name {
            "tiny" => TierSpec::FiveTier(FabricSpec::tiny()),
            "default" => TierSpec::FiveTier(FabricSpec::default()),
            "large" => TierSpec::FiveTier(FabricSpec::large()),
            "2k" => TierSpec::ThreeTier(ThreeTierSpec::ci_2k()),
            "xl" => TierSpec::ThreeTier(ThreeTierSpec::xl()),
            "xxl" => TierSpec::ThreeTier(ThreeTierSpec::xxl()),
            _ => return None,
        })
    }

    /// Build the tier's topology.
    pub fn build(&self) -> (Topology, FabricIndex, AsnAllocator) {
        match self {
            TierSpec::FiveTier(spec) => build_fabric(spec),
            TierSpec::ThreeTier(spec) => build_three_tier(spec),
        }
    }

    /// Device count without building the topology.
    pub fn devices(&self) -> usize {
        match self {
            TierSpec::FiveTier(spec) => spec.total_devices(),
            TierSpec::ThreeTier(spec) => spec.total_devices(),
        }
    }
}

/// Parse a `--fabric` value: a comma-separated list of tier names, returned
/// in the order given.
pub fn parse_tier_list(arg: &str) -> Result<Vec<(String, TierSpec)>, String> {
    let mut out = Vec::new();
    for name in arg.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let spec = TierSpec::by_name(name).ok_or_else(|| {
            format!(
                "unknown fabric tier '{name}' (known: {})",
                TIER_NAMES.join(", ")
            )
        })?;
        out.push((name.to_string(), spec));
    }
    if out.is_empty() {
        return Err("--fabric needs at least one tier name".into());
    }
    Ok(out)
}

fn status_field_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), `None` where the proc interface is unavailable.
///
/// The high-water mark is process-wide and monotonic. For a per-tier
/// reading, call [`reset_peak_rss`] before the tier runs; when the reset is
/// unsupported the reading inherits every earlier tier's peak and consumers
/// must mark it as such.
pub fn peak_rss_bytes() -> Option<u64> {
    status_field_bytes("VmHWM:")
}

/// Current resident-set size in bytes (`VmRSS`) — the quiescent-footprint
/// reading taken after a tier converges and transient state is dropped.
pub fn current_rss_bytes() -> Option<u64> {
    status_field_bytes("VmRSS:")
}

/// Hand freed-but-retained heap pages back to the kernel so a following
/// [`current_rss_bytes`] read reflects live data, not allocator caching.
///
/// glibc's malloc keeps freed chunks mapped (fastbins, per-thread arenas,
/// an untrimmed heap top); after a convergence episode churns through
/// transient UPDATE queues those retained pages can dominate VmRSS and
/// drown the signal a per-device byte budget is supposed to gate on.
/// `malloc_trim(0)` walks every arena and releases what it can. No-op on
/// non-glibc targets.
pub fn trim_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: malloc_trim is async-signal-unsafe but thread-safe; it
        // takes the arena locks itself and touches no Rust-visible state.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Reset the kernel's peak-RSS high-water mark to the current RSS by
/// writing `5` to `/proc/self/clear_refs`. Returns whether the reset took
/// effect (verified by re-reading `VmHWM`, not just by the write
/// succeeding — some kernels/containers accept the write and ignore it).
/// When this returns `false`, multi-tier peak readings inherit earlier
/// tiers' peaks and must be reported as `inherited`.
pub fn reset_peak_rss() -> bool {
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        return false;
    }
    match (peak_rss_bytes(), current_rss_bytes()) {
        // After a genuine reset the high-water mark collapses to ~current
        // RSS. Allow a small margin for allocation between the two reads.
        (Some(peak), Some(cur)) => peak <= cur + (cur / 8) + (16 << 20),
        _ => false,
    }
}

/// The host a measurement ran on, for report headers: CPU model and kernel
/// release (`unknown` where `/proc` does not say).
pub fn host_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        let line = s.lines().find(|l| l.starts_with("model name"))?;
        Some(line.split(':').nth(1)?.trim().to_string())
    });
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").ok();
    format!(
        "{}, Linux {}",
        cpu.as_deref().unwrap_or("unknown CPU"),
        kernel.as_deref().map_or("unknown", str::trim)
    )
}

/// Median wall (ms) of fabric `label` in a `bench_convergence` JSON report —
/// what the baseline gates of `bench_convergence` and `perf_report` compare
/// against.
pub fn baseline_wall_ms(report: &serde_json::Value, label: &str) -> Option<f64> {
    report
        .get("fabrics")?
        .as_array()?
        .iter()
        .find(|f| f.get("fabric").and_then(|v| v.as_str()) == Some(label))?
        .get("median_wall_ms")?
        .as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_resolves_in_ascending_size() {
        let mut prev = 0;
        for name in TIER_NAMES {
            let tier = TierSpec::by_name(name).expect("listed tier resolves");
            assert!(tier.devices() > prev, "{name} out of size order");
            prev = tier.devices();
        }
        assert!(TierSpec::by_name("galactic").is_none());
    }

    #[test]
    fn tier_list_parses_and_rejects() {
        let tiers = parse_tier_list("tiny, xl").unwrap();
        assert_eq!(tiers.len(), 2);
        assert_eq!(tiers[0].0, "tiny");
        assert_eq!(tiers[1].0, "xl");
        assert!(parse_tier_list("tiny,warp9").is_err());
        assert!(parse_tier_list(" , ").is_err());
    }

    /// One test, because the high-water mark is process-wide: a reset on
    /// another test thread between the two reads below would break them. The
    /// current reading comes first because other test threads allocate
    /// meanwhile: the later peak covers it, an earlier one might not.
    #[test]
    fn peak_rss_reads_and_resets_on_linux() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let cur = current_rss_bytes().expect("proc status readable");
        let rss = peak_rss_bytes().expect("proc status readable");
        assert!(rss > 1024 * 1024, "a test process peaks above 1 MiB");
        assert!(cur > 0 && cur <= rss, "current RSS below the peak");
        // Spike the RSS well above steady-state, then reset: either the
        // kernel honors clear_refs(5) and the peak collapses toward current
        // RSS, or reset_peak_rss must say so by returning false.
        let spike: Vec<u8> = vec![0xA5; 64 << 20];
        std::hint::black_box(&spike);
        drop(spike);
        let before = peak_rss_bytes().unwrap();
        if reset_peak_rss() {
            let after = peak_rss_bytes().unwrap();
            assert!(after <= before, "reset must never raise the peak");
        }
    }
}
