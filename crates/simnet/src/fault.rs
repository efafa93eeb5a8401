//! Seeded fault injection for management RPCs.
//!
//! [`ChaosPlan`] is the deployment-resilience fault surface: RPC
//! drop/delay/duplicate and agent crash-restart. Every decision is a pure
//! function of `(seed, scope, nonce)` via a splitmix-style mixer, so a chaos
//! scenario replays identically no matter how callers interleave — the
//! property the chaos CI job relies on. BGP sessions run over TCP, reliable
//! and ordered, so UPDATEs get no fault model: the §3 pathologies are the
//! interleaving of delivered messages, not their loss.

use crate::event::SimTime;

/// The fate the [`ChaosPlan`] assigns one management RPC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RpcFate {
    /// The RPC is silently lost; the agent's retry layer must notice.
    Dropped,
    /// The RPC arrives, possibly late, possibly twice, possibly crashing
    /// the receiving agent right after it applies.
    Delivered {
        /// Extra delay added to the management-plane latency, in µs.
        extra_delay_us: SimTime,
        /// Deliver a second copy (at-least-once RPC semantics under
        /// retransmission — installs must be idempotent).
        duplicate: bool,
        /// The agent process crashes after handling this RPC and restarts
        /// with empty RPA state.
        crash_agent: bool,
    },
}

/// Decision channels: each fault dimension hashes with its own constant so
/// the probabilities are mutually independent.
const CH_DROP: u64 = 0x01;
const CH_DUP: u64 = 0x02;
const CH_DELAY: u64 = 0x03;
const CH_CRASH: u64 = 0x04;

/// Deterministic chaos schedule for the deployment control plane.
///
/// Every decision is a pure hash of `(seed, channel, device, nonce)` and
/// never draws from the simulation's RNG stream. Two runs that issue the
/// same logical RPCs get the same faults regardless of interleaving, and a
/// zero-probability plan is bit-identical to no plan at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Chaos seed — independent of the simulation seed.
    pub seed: u64,
    /// Probability in [0, 1] that a management RPC is dropped.
    pub rpc_loss: f64,
    /// Probability in [0, 1] that a delivered RPC arrives twice.
    pub rpc_duplicate: f64,
    /// Max extra delay (uniform in [0, max]) added to delivered RPCs, µs.
    pub rpc_max_extra_delay_us: SimTime,
    /// Probability in [0, 1] that the receiving agent crash-restarts after
    /// handling a delivered RPC (losing its installed RPA state).
    pub agent_crash: f64,
}

impl ChaosPlan {
    /// All-quiet plan under `seed` — every RPC is delivered on time, once.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            rpc_loss: 0.0,
            rpc_duplicate: 0.0,
            rpc_max_extra_delay_us: 0,
            agent_crash: 0.0,
        }
    }

    /// Plan dropping management RPCs with probability `loss`.
    pub fn with_rpc_loss(seed: u64, loss: f64) -> Self {
        ChaosPlan {
            rpc_loss: loss,
            ..ChaosPlan::new(seed)
        }
    }

    /// Whether this plan can inject anything at all.
    pub(crate) fn is_quiet(&self) -> bool {
        self.rpc_loss <= 0.0
            && self.rpc_duplicate <= 0.0
            && self.rpc_max_extra_delay_us == 0
            && self.agent_crash <= 0.0
    }

    /// Uniform draw in [0, 1) for `(channel, a, b)` — order-independent.
    fn roll(&self, channel: u64, a: u64, b: u64) -> f64 {
        chaos_unit(self.seed, channel, a, b)
    }

    /// Decide the fate of the `nonce`-th RPC issued toward `device`.
    pub(crate) fn rpc_fate(&self, device: u32, nonce: u64) -> RpcFate {
        let d = device as u64;
        if self.rpc_loss > 0.0 && self.roll(CH_DROP, d, nonce) < self.rpc_loss {
            return RpcFate::Dropped;
        }
        let extra_delay_us = if self.rpc_max_extra_delay_us > 0 {
            (self.roll(CH_DELAY, d, nonce) * (self.rpc_max_extra_delay_us + 1) as f64) as SimTime
        } else {
            0
        };
        RpcFate::Delivered {
            extra_delay_us: extra_delay_us.min(self.rpc_max_extra_delay_us),
            duplicate: self.rpc_duplicate > 0.0 && self.roll(CH_DUP, d, nonce) < self.rpc_duplicate,
            crash_agent: self.agent_crash > 0.0 && self.roll(CH_CRASH, d, nonce) < self.agent_crash,
        }
    }
}

/// Splitmix64-style finalizer over `(seed, channel, a, b)`, mapped to a
/// uniform f64 in [0, 1). Pure, stateless, platform-stable — the foundation
/// of reproducible chaos (and of retry jitter in `centralium-core`).
pub fn chaos_unit(seed: u64, channel: u64, a: u64, b: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(channel.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(a.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(b.wrapping_add(0x2545_f491_4f6c_dd1d));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // 53 mantissa bits → exact uniform in [0, 1).
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delivery with no added faults.
    const CLEAN: RpcFate = RpcFate::Delivered {
        extra_delay_us: 0,
        duplicate: false,
        crash_agent: false,
    };

    #[test]
    fn chaos_quiet_plan_is_clean() {
        let plan = ChaosPlan::new(7);
        assert!(plan.is_quiet());
        for dev in 0..50u32 {
            for nonce in 0..20 {
                assert_eq!(plan.rpc_fate(dev, nonce), CLEAN);
            }
        }
    }

    #[test]
    fn chaos_is_deterministic_and_order_independent() {
        let plan = ChaosPlan {
            rpc_duplicate: 0.1,
            rpc_max_extra_delay_us: 500,
            agent_crash: 0.05,
            ..ChaosPlan::with_rpc_loss(7, 0.2)
        };
        // Same (device, nonce) → same fate, no matter what else was asked.
        let a = plan.rpc_fate(3, 11);
        let _ = plan.rpc_fate(9, 2);
        let _ = plan.rpc_fate(3, 12);
        assert_eq!(plan.rpc_fate(3, 11), a);
        // A different seed decides differently somewhere.
        let other = ChaosPlan { seed: 8, ..plan };
        assert!(
            (0..200).any(|n| plan.rpc_fate(1, n) != other.rpc_fate(1, n)),
            "seeds must matter"
        );
    }

    #[test]
    fn chaos_loss_rate_tracks_probability() {
        let plan = ChaosPlan::with_rpc_loss(42, 0.3);
        let drops = (0..10_000u64)
            .filter(|&n| plan.rpc_fate((n % 97) as u32, n) == RpcFate::Dropped)
            .count();
        assert!((2_500..3_500).contains(&drops), "got {drops} drops");
    }

    #[test]
    fn chaos_delay_is_bounded() {
        let plan = ChaosPlan {
            rpc_max_extra_delay_us: 250,
            ..ChaosPlan::new(5)
        };
        for n in 0..1_000 {
            match plan.rpc_fate(1, n) {
                RpcFate::Delivered { extra_delay_us, .. } => assert!(extra_delay_us <= 250),
                RpcFate::Dropped => panic!("loss is zero"),
            }
        }
    }

    #[test]
    fn chaos_unit_is_uniformish() {
        let mean: f64 = (0..10_000).map(|n| chaos_unit(9, 1, 0, n)).sum::<f64>() / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }
}
