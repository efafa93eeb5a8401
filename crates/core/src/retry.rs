//! Retry/backoff and circuit-breaking for Switch Agent RPCs.
//!
//! Management RPCs into a production fleet are lossy: agents restart, the
//! out-of-band network partitions, daemons hang. The reconcile loop treats
//! every RPC as at-most-once with a **deadline**; an RPC whose effect is not
//! observed by its deadline is re-issued under bounded exponential backoff
//! with deterministic (seeded) jitter, and a per-device [`CircuitBreaker`]
//! marks an agent degraded after N consecutive failures so a wedged box
//! cannot absorb the whole controller's retry budget.
//!
//! All jitter comes from [`centralium_simnet::chaos_unit`] — a pure hash of
//! `(seed, attempt, device)` — so retry schedules replay identically under a
//! fixed seed, which the chaos CI job depends on.

use centralium_simnet::{chaos_unit, SimTime};
use centralium_topology::DeviceId;
use std::collections::HashMap;

/// Jitter channel for [`RetryPolicy::backoff_us`] (disjoint from the
/// `ChaosPlan` fault channels by construction — different seeds, but keep
/// the constant distinct anyway).
const CH_RETRY_JITTER: u64 = 0x10;

/// Deadline + bounded exponential backoff schedule for one class of RPCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-issues allowed after the first attempt before the budget is
    /// exhausted (the breaker then takes over damping).
    pub max_retries: u32,
    /// Deadline for attempt 0 and the base of the exponential schedule, µs.
    pub base_backoff_us: SimTime,
    /// Cap on the exponential backoff, µs.
    pub max_backoff_us: SimTime,
    /// Seed for deterministic jitter; fixed seed → identical schedule.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 6,
            base_backoff_us: 10_000,
            max_backoff_us: 160_000,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The deadline/backoff for the `attempt`-th RPC toward `device`
    /// (0-based): `base · 2^attempt` capped at the max, then jittered into
    /// `[½·b, b]` so synchronized retries toward many devices decorrelate.
    pub(crate) fn backoff_us(&self, attempt: u32, device: DeviceId) -> SimTime {
        let exp = self
            .base_backoff_us
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
            .min(self.max_backoff_us)
            .max(1);
        let unit = chaos_unit(
            self.jitter_seed,
            CH_RETRY_JITTER,
            device.0 as u64,
            attempt as u64,
        );
        let half = exp / 2;
        half + ((exp - half) as f64 * unit) as SimTime
    }
}

/// Per-device breaker state.
#[derive(Debug, Clone, Copy, Default)]
struct BreakerState {
    consecutive_failures: u32,
    /// When set, the circuit is open until this instant; afterwards the
    /// device is half-open (one probe allowed).
    open_until: Option<SimTime>,
}

/// Marks devices degraded after consecutive RPC failures and fails calls
/// fast until a cooldown elapses (then half-open: probes flow again; one
/// success closes the circuit, another failure re-opens it).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    /// Consecutive failures that open the circuit.
    pub threshold: u32,
    /// How long an open circuit rejects calls, µs.
    pub cooldown_us: SimTime,
    state: HashMap<DeviceId, BreakerState>,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new(8, 1_000_000)
    }
}

impl CircuitBreaker {
    /// Breaker opening after `threshold` consecutive failures for
    /// `cooldown_us`.
    pub(crate) fn new(threshold: u32, cooldown_us: SimTime) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown_us,
            state: HashMap::new(),
        }
    }

    /// Whether an RPC toward `dev` may be issued at `now`.
    pub(crate) fn allows(&self, dev: DeviceId, now: SimTime) -> bool {
        match self.state.get(&dev).and_then(|s| s.open_until) {
            Some(until) => now >= until,
            None => true,
        }
    }

    /// Record one failed RPC toward `dev`. Returns `true` when this failure
    /// transitions the circuit to open (the caller emits `CircuitOpen`).
    pub(crate) fn record_failure(&mut self, dev: DeviceId, now: SimTime) -> bool {
        let s = self.state.entry(dev).or_default();
        s.consecutive_failures += 1;
        let was_open = s.open_until.map(|u| now < u).unwrap_or(false);
        if s.consecutive_failures >= self.threshold {
            s.open_until = Some(now + self.cooldown_us);
            return !was_open;
        }
        false
    }

    /// Record a successful RPC toward `dev`: closes the circuit and resets
    /// the failure run.
    pub(crate) fn record_success(&mut self, dev: DeviceId) {
        self.state.remove(&dev);
    }

    /// When `dev`'s circuit (re)opens ends, regardless of the current time
    /// (half-open instants in the past are returned as-is).
    pub(crate) fn reopen_at(&self, dev: DeviceId) -> Option<SimTime> {
        self.state.get(&dev).and_then(|s| s.open_until)
    }

    /// Earliest instant at which some open circuit becomes half-open
    /// (drives the controller's time-advancement while holding a wave).
    pub(crate) fn earliest_reopen(&self, now: SimTime) -> Option<SimTime> {
        self.state
            .values()
            .filter_map(|s| s.open_until)
            .filter(|&u| u > now)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            max_retries: 10,
            base_backoff_us: 1_000,
            max_backoff_us: 8_000,
            jitter_seed: 3,
        };
        let d = DeviceId(5);
        let b: Vec<SimTime> = (0..6).map(|n| p.backoff_us(n, d)).collect();
        // Jitter keeps each value in [½·exp, exp].
        for (n, &v) in b.iter().enumerate() {
            let exp = (1_000u64 << n).min(8_000);
            assert!(v >= exp / 2 && v <= exp, "attempt {n}: {v} vs exp {exp}");
        }
        // Capped from attempt 3 on.
        assert!(b[4] <= 8_000 && b[5] <= 8_000);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let p = RetryPolicy::default();
        let q = RetryPolicy {
            jitter_seed: 99,
            ..p
        };
        assert_eq!(p.backoff_us(2, DeviceId(7)), p.backoff_us(2, DeviceId(7)));
        assert!(
            (0..20).any(|n| p.backoff_us(n, DeviceId(7)) != q.backoff_us(n, DeviceId(7))),
            "seed must matter"
        );
    }

    #[test]
    fn breaker_opens_after_threshold_and_cools_down() {
        let mut b = CircuitBreaker::new(3, 500);
        let d = DeviceId(1);
        assert!(b.allows(d, 0));
        assert!(!b.record_failure(d, 10));
        assert!(!b.record_failure(d, 20));
        assert!(b.record_failure(d, 30), "third failure opens");
        assert!(!b.allows(d, 31));
        assert_eq!(b.earliest_reopen(31), Some(530));
        // Half-open after cooldown; success closes.
        assert!(b.allows(d, 530));
        b.record_success(d);
        assert!(b.allows(d, 531));
        assert_eq!(b.reopen_at(d), None);
    }

    #[test]
    fn half_open_failure_reopens() {
        let mut b = CircuitBreaker::new(2, 100);
        let d = DeviceId(2);
        b.record_failure(d, 0);
        assert!(b.record_failure(d, 1), "opens");
        assert!(b.allows(d, 101), "half-open");
        // The probe fails: the circuit transitions open again.
        assert!(b.record_failure(d, 101));
        assert!(!b.allows(d, 150));
        assert_eq!(b.earliest_reopen(150), Some(201));
    }

    #[test]
    fn breaker_tracks_devices_independently() {
        let mut b = CircuitBreaker::new(1, 100);
        b.record_failure(DeviceId(1), 0);
        assert!(!b.allows(DeviceId(1), 50));
        assert!(b.allows(DeviceId(2), 50));
    }
}
