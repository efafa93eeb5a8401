//! Regenerates **Figure 10 (§5.3.2)**: RPA deployment sequencing — the
//! safe-order vs uncoordinated-deployment ablation.
//!
//! Prefix D is originated by the backbone; FA1/FA2 have a short direct path
//! and a long backup path through a DMAG. The equalization RPA should make
//! every DC switch use both. If deployment is uncoordinated and FA1 activates
//! first, FA1 starts advertising the *longer* path (per the §5.3.1 rule) and
//! the still-native SSWs funnel all northbound traffic through FA2 until the
//! rest of the fleet catches up. Deploying bottom-up (SSWs before FAs) keeps
//! traffic balanced throughout.

use super::Artefact;
use crate::report::Table;
use crate::scenarios::{fig10_rig, max_metric_during};
use centralium::retry::RetryPolicy;
use centralium::switch_agent::SwitchAgent;
use centralium_bgp::Prefix;
use centralium_simnet::traffic::{route_flows, TrafficMatrix, DEFAULT_MAX_HOPS};
use centralium_simnet::{ChaosPlan, ManagementPlane, SimTime};

/// Delay between uncoordinated per-device deployments — long enough for the
/// fabric to fully converge between activations (the worst case).
const STAGGER_US: SimTime = 100_000;

/// The chaos row's seed and RPC loss: the CI smoke configuration.
const CHAOS_SEED: u64 = 7;
const CHAOS_RPC_LOSS: f64 = 0.05;

/// One deployment order's result.
pub struct Outcome {
    /// Peak share of FA-layer transit carried by a single FA during the
    /// deployment (0.5 = balanced, 1.0 = total funnel).
    pub peak_fa_share: f64,
    /// Steady-state FA share after full deployment.
    pub steady_fa_share: f64,
}

/// Deploy the equalization RPA to the Figure 10 rig in the safe or the
/// uncoordinated order, routing traffic after every event.
pub fn run(safe_order: bool, seed: u64) -> Outcome {
    let mut rig = fig10_rig(seed);
    let sources = rig.fsws.clone();
    let fa_group = rig.fa.to_vec();
    // Deployment order: safe = SSWs (furthest from origination) first, FAs
    // last; uncoordinated = FA1 first, then SSWs, then FA2 — each activation
    // separated by a full convergence interval.
    let order: Vec<centralium_topology::DeviceId> = if safe_order {
        let mut v = rig.ssws.clone();
        v.extend(rig.fa);
        v
    } else {
        let mut v = vec![rig.fa[0]];
        v.extend(rig.ssws.clone());
        v.push(rig.fa[1]);
        v
    };
    for (i, dev) in order.into_iter().enumerate() {
        rig.net
            .deploy_rpa(dev, rig.rpa.clone(), (i as SimTime) * STAGGER_US + 500);
    }
    let peak_fa_share = max_metric_during(&mut rig.net, |net| {
        let tm = TrafficMatrix::uniform(&sources, Prefix::DEFAULT, 10.0);
        route_flows(net, &tm, DEFAULT_MAX_HOPS).funneling_ratio(&fa_group)
    });
    let tm = TrafficMatrix::uniform(&sources, Prefix::DEFAULT, 10.0);
    let steady = route_flows(&rig.net, &tm, DEFAULT_MAX_HOPS).funneling_ratio(&fa_group);
    Outcome {
        peak_fa_share,
        steady_fa_share: steady,
    }
}

struct ChaosOutcome {
    converged: bool,
    rpc_dropped: u64,
    rpc_retries: u64,
    steady_fa_share: f64,
}

/// Safe-order deployment driven through the Switch Agent's reconcile loop
/// under injected RPC loss: every drop misses its deadline and is re-issued
/// with backoff, so the fleet still converges to the Figure 10 steady state.
fn run_chaos(seed: u64, rpc_loss: f64) -> ChaosOutcome {
    let mut rig = fig10_rig(seed);
    rig.net
        .set_telemetry(centralium_telemetry::Telemetry::new());
    rig.net.set_chaos(ChaosPlan::with_rpc_loss(seed, rpc_loss));
    let mgmt = ManagementPlane::compute(rig.net.topology(), rig.ssws[0]);
    let mut agent = SwitchAgent::new(mgmt);
    agent.set_retry_policy(RetryPolicy {
        jitter_seed: seed,
        ..Default::default()
    });
    // Safe order: SSWs (furthest from origination) first, then the FAs —
    // each wave held until the agent observes the installs.
    let mut converged = true;
    for wave in [rig.ssws.clone(), rig.fa.to_vec()] {
        for &dev in &wave {
            agent.set_intended(dev, &rig.rpa).unwrap();
        }
        let mut wave_ok = false;
        let mut idle_rounds = 0u32;
        for _round in 0..64 {
            let ops = agent.reconcile(&mut rig.net).unwrap();
            rig.net.run_until_quiescent();
            agent.poll_current(&rig.net).unwrap();
            if agent.service.store.out_of_sync().is_empty() {
                wave_ok = true;
                break;
            }
            match agent.next_retry_due(rig.net.now()) {
                Some(due) => {
                    rig.net.run_until(due);
                    idle_rounds = 0;
                }
                // An idle round right after a retry budget runs out is
                // normal (the next round starts a fresh burst); two in a
                // row means nothing can issue at all.
                None if ops.is_empty() => {
                    idle_rounds += 1;
                    if idle_rounds >= 2 {
                        break;
                    }
                }
                None => idle_rounds = 0,
            }
        }
        converged &= wave_ok;
    }
    let snap = rig.net.telemetry().metrics().snapshot();
    let tm = TrafficMatrix::uniform(&rig.fsws, Prefix::DEFAULT, 10.0);
    let steady = route_flows(&rig.net, &tm, DEFAULT_MAX_HOPS).funneling_ratio(rig.fa.as_ref());
    ChaosOutcome {
        converged,
        rpc_dropped: snap.counter("simnet.rpc_dropped"),
        rpc_retries: snap.counter("core.rpc_retries"),
        steady_fa_share: steady,
    }
}

/// The rig is already small; `tiny` changes nothing.
pub(crate) fn artefact(_tiny: bool) -> Artefact {
    let mut out = Artefact::default();
    out.det("Figure 10 (§5.3.2): RPA deployment sequencing");
    out.det("rig: BB originates D; FA1/FA2 with direct + DMAG backup paths; 2 SSWs\n");
    let unordered = run(false, 17);
    let safe = run(true, 17);
    let mut table = Table::new(&[
        "deployment order",
        "peak single-FA share",
        "steady single-FA share",
    ]);
    table.row(&[
        "uncoordinated (FA1 first)".into(),
        format!("{:.3}", unordered.peak_fa_share),
        format!("{:.3}", unordered.steady_fa_share),
    ]);
    table.row(&[
        "safe order (bottom-up)".into(),
        format!("{:.3}", safe.peak_fa_share),
        format!("{:.3}", safe.steady_fa_share),
    ]);
    out.det(table.render());
    out.det("Shape to check: uncoordinated deployment transiently funnels all northbound");
    out.det("traffic through FA2 (peak share 1.0); the safe order never exceeds ~0.5.");

    let chaos = run_chaos(CHAOS_SEED, CHAOS_RPC_LOSS);
    out.det(format!(
        "\nchaos (seed {CHAOS_SEED}, rpc loss {CHAOS_RPC_LOSS}): {} — {} RPCs dropped, {} retried, steady single-FA share {:.3}",
        if chaos.converged { "CONVERGED" } else { "DID NOT CONVERGE" },
        chaos.rpc_dropped,
        chaos.rpc_retries,
        chaos.steady_fa_share,
    ));
    out.det("Shape to check: drops are absorbed by deadline-driven retries; the steady");
    out.det("state matches the fault-free safe-order row.");
    out
}
