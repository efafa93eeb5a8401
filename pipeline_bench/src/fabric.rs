//! What the workloads share: the seeded generator, fabric set-up, the
//! convergence loop in its two forms, FIB fingerprints and the result record.

use crate::trace::{median, LogHist, Tracer};
use centralium_bench::tier::TierSpec;
use centralium_bgp::attrs::well_known;
use centralium_bgp::{FibEntry, Prefix};
use centralium_simnet::{ConvergenceReport, SimConfig, SimNet};
use centralium_telemetry::MetricsSnapshot;
use centralium_topology::DeviceId;
use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: the bench's only source of randomness. The program under test
/// never sees it, only the inputs drawn from it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that two
    /// workloads do not draw the same sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A fabric with its device index: the repository's own bench type, so
/// that its scenario helpers apply (the fabric need not be converged yet).
pub use centralium_bench::scenarios::ConvergedFabric as Fabric;

/// The `/24` of rack `rack` in pod `pod` (`10.pod.rack.0/24`).
pub fn rack_prefix(pod: usize, rack: usize) -> Prefix {
    Prefix::new(
        0x0A00_0000 | ((pod as u32 & 0xFF) << 16) | ((rack as u32 & 0xFF) << 8),
        24,
    )
}

/// Build the tier and bring every session up: topology build +
/// `SimNet::new` + `establish_all`, each under its own span. The only
/// `SimConfig` knob set is the seed.
pub fn build_fabric(tier: &TierSpec, seed: u64, tracer: &Tracer) -> Fabric {
    let (topo, idx, _) = tracer.time("topology", "TierSpec::build", || tier.build());
    let cfg = SimConfig::builder().seed(seed).build();
    let mut net = tracer.time("simnet", "SimNet::new", || SimNet::new(topo, cfg));
    tracer.time("simnet", "establish_all", || net.establish_all());
    Fabric { net, idx }
}

/// Originate the default route from every backbone device.
pub fn originate_default(fab: &mut Fabric) {
    for &eb in &fab.idx.backbone {
        fab.net
            .originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
    }
}

/// Safety cap of the stepped loop, matching `SimConfig::max_events`.
const MAX_STEPS: u64 = 10_000_000;

/// Run to quiescence. Untraced (`steps` = `None`) this is the program's own
/// `run_until_quiescent`; traced it is `while net.step() {}` with every call
/// timed into `steps` (one clock read per call), followed by a
/// `run_until_quiescent` on the empty queue so that the quiescence gauges
/// are published as in the untraced form.
pub fn converge(net: &mut SimNet, steps: Option<&mut LogHist>) -> ConvergenceReport {
    let Some(hist) = steps else {
        return net.run_until_quiescent();
    };
    let mut events = 0;
    let mut prev = Instant::now();
    while events < MAX_STEPS && net.step() {
        let now = Instant::now();
        hist.record((now - prev).as_nanos() as u64);
        prev = now;
        events += 1;
    }
    let tail = net.run_until_quiescent();
    ConvergenceReport {
        converged: tail.converged && tail.events_processed == 0,
        events_processed: events,
        finished_at: net.now(),
    }
}

/// FNV-1a fingerprint of a FIB snapshot and its entry count.
pub fn fib_digest(snapshot: &BTreeMap<DeviceId, Vec<FibEntry>>) -> (u64, usize) {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let mut entries = 0;
    for (dev, fib) in snapshot {
        mix(dev.0 as u64);
        mix(fib.len() as u64);
        for e in fib {
            mix(((e.prefix.addr() as u64) << 8) | e.prefix.len() as u64);
            mix(e.warm as u64);
            mix(e.nexthops.len() as u64);
            for (peer, weight) in &e.nexthops {
                mix(peer.0);
                mix(*weight as u64);
            }
        }
        entries += fib.len();
    }
    (h, entries)
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    centralium_bench::tier::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and correctness checks attempted.
    pub attempted: u64,
    /// One line per failed operation or violated check.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub e2e: Metrics,
    /// Per-layer metrics (traced run).
    pub layer: Metrics,
    /// The workload's final counts, for the run header.
    pub counts: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Count one operation or check; record `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Record the five end-to-end metrics: the set-up samples (s), the timed
    /// section's host seconds, the operation's median (ms) and the routes
    /// delivered in the timed section.
    pub fn end_to_end(&mut self, setups_s: &[f64], wall_s: f64, op_p50_ms: f64, routes: u64) {
        self.e2e.insert("setup_s", median(setups_s));
        self.e2e.insert("wall_s", wall_s);
        self.e2e.insert("op_p50_ms", op_p50_ms);
        self.e2e.insert("routes_per_s", routes as f64 / wall_s);
        self.e2e.insert("peak_rss_mb", peak_rss_mb());
    }

    /// Record a count for the run header.
    pub fn count(&mut self, name: &'static str, value: impl ToString) {
        self.counts.push((name, value.to_string()));
    }
}

/// The deterministic counts of a run: equal seeds must give equal values,
/// traced or not.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Deterministic {
    /// FIB fingerprint at the end of the run.
    pub fib_digest: u64,
    /// Simulated µs covered by the timed section.
    pub sim_us: u64,
    /// Events processed in the timed section.
    pub events: u64,
    /// Registry counters over the timed section, by name.
    pub counters: BTreeMap<String, u64>,
}

/// Registry counters that count work (not host time), so they must repeat
/// exactly per seed.
const DETERMINISTIC_COUNTERS: &[&str] = &[
    "simnet.announcements",
    "simnet.withdrawals",
    "simnet.messages_delivered",
    "simnet.batches_delivered",
    "simnet.updates_coalesced",
    "simnet.session_events",
    "simnet.rpa_operations",
    "simnet.rpa_scoped_reevals",
    "simnet.rpa_full_reevals",
    "bgp.decisions",
    "bgp.best_path_changes",
    "rpa.cache_hits",
    "rpa.cache_misses",
    "rpa.eval_fallbacks",
    "rpa.installs",
    "rpa.removals",
];

impl Deterministic {
    /// Collect from a registry diff over the timed section.
    pub fn collect(fib_digest: u64, sim_us: u64, events: u64, diff: &MetricsSnapshot) -> Self {
        Deterministic {
            fib_digest,
            sim_us,
            events,
            counters: DETERMINISTIC_COUNTERS
                .iter()
                .map(|&n| (n.to_string(), diff.counter(n)))
                .collect(),
        }
    }

    /// `simnet.sim_time_ms` (as given: summed or a median, per workload) and
    /// `simnet.fib_digest` — the low 48 bits, which a JSON number keeps exact.
    pub fn record(&self, sim_time_ms: f64, out: &mut Metrics) {
        out.insert("simnet.sim_time_ms", sim_time_ms);
        out.insert(
            "simnet.fib_digest",
            (self.fib_digest & 0xFFFF_FFFF_FFFF) as f64,
        );
    }

    /// Routes delivered: per-prefix announcements plus withdrawals.
    pub fn routes(&self) -> u64 {
        self.counters["simnet.announcements"] + self.counters["simnet.withdrawals"]
    }

    /// Describe the first difference from `other`, if any.
    pub fn first_difference(&self, other: &Deterministic) -> Option<String> {
        if self.fib_digest != other.fib_digest {
            return Some(format!(
                "fib_digest {:016x} vs {:016x}",
                self.fib_digest, other.fib_digest
            ));
        }
        if self.sim_us != other.sim_us {
            return Some(format!("sim_us {} vs {}", self.sim_us, other.sim_us));
        }
        if self.events != other.events {
            return Some(format!("events {} vs {}", self.events, other.events));
        }
        self.counters.iter().find_map(|(name, v)| {
            let o = other.counters[name];
            (*v != o).then(|| format!("{name} {v} vs {o}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_bench::scenarios::originate_rack_prefixes;

    #[test]
    fn rng_repeats_per_seed_and_differs_per_stream() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 1);
        assert!((0..1000).all(|_| r.below(7) < 7));
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn stepped_and_program_convergence_agree() {
        let tier = TierSpec::by_name("tiny").unwrap();
        let mut fibs = Vec::new();
        for stepped in [false, true] {
            let mut fab = build_fabric(&tier, 7, &Tracer::new(false));
            originate_default(&mut fab);
            originate_rack_prefixes(&mut fab);
            let mut hist = LogHist::default();
            let report = converge(&mut fab.net, stepped.then_some(&mut hist));
            assert!(report.converged);
            assert_eq!(
                hist.count(),
                if stepped { report.events_processed } else { 0 }
            );
            fibs.push((
                fib_digest(&fab.net.fib_snapshot()),
                report.events_processed,
                report.finished_at,
            ));
        }
        assert_eq!(fibs[0], fibs[1]);
        assert!(fibs[0].0 .1 > 0);
    }
}
