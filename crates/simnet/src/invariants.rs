//! Global protocol invariants checked at quiescence.
//!
//! The strongest one is **RIB consistency**: once the event queue drains,
//! every receiver's Adj-RIB-In entry for a session must equal what the
//! sender's Adj-RIB-Out holds for it — unless the receiver legitimately
//! rejected the announcement (AS-path loop check, import policy, or an
//! ingress Route Filter RPA). A violation means an update was lost or a
//! withdrawal was skipped; the stable "ghost route" cycles such bugs create
//! are exactly the class of convergence pathology the paper's §3 is about.
//!
//! The same check holds each device's FIB to its Loc-RIB: a device's decide
//! programs the FIB as it installs each entry, so an installed FIB that
//! differs from [`BgpDaemon::fib`](centralium_bgp::BgpDaemon::fib) means a
//! decision that skipped the forwarding plane.

use crate::device::SimDevice;
use crate::net::SimNet;
use centralium_bgp::policy::PolicyVerdict;
use centralium_bgp::{FibEntry, PeerId, Prefix, RibPolicy, Route};
use centralium_topology::DeviceId;
use std::collections::BTreeSet;

/// Check RIB consistency for every (session, prefix) pair, and every
/// device's installed FIB against its Loc-RIB's projection (next-hop member
/// sets only under the §3.4 dedup heuristic, which may keep another
/// weighting of the same members). Returns human-readable violations; empty
/// means consistent.
///
/// Must only be called at quiescence (no in-flight messages) — in-flight
/// updates are expected to violate it.
pub fn verify_rib_consistency(net: &SimNet) -> Vec<String> {
    let mut failures: Vec<String> = net
        .device_ids()
        .into_iter()
        .filter_map(|id| fib_mismatch(net.device(id).expect("listed device")))
        .collect();
    // Union of prefixes known anywhere.
    let mut prefixes: BTreeSet<Prefix> = BTreeSet::new();
    for id in net.device_ids() {
        let dev = net.device(id).expect("listed device");
        prefixes.extend(dev.daemon.loc_rib_prefixes());
        prefixes.extend(dev.daemon.originated_prefixes());
    }
    for from in net.device_ids() {
        let fdev = net.device(from).expect("listed device");
        for session in fdev.daemon.peer_ids() {
            let to = DeviceId(session.device());
            let Some(tdev) = net.device(to) else { continue };
            if !fdev.daemon.is_established(session) {
                continue;
            }
            let on = PeerId::compose(from.0, session.session_index());
            for &prefix in &prefixes {
                // What the receiver *should* hold: the sender's Adj-RIB-Out
                // entry run through the receiver's import policy (rejected ⇒
                // nothing), dropped on loop check or ingress filter.
                let expected = fdev.daemon.advertised_to(session, prefix).and_then(|sent| {
                    if sent.path_contains(tdev.daemon.asn()) {
                        return None; // loop check discards
                    }
                    let post_import = match tdev.daemon.import_policy(on) {
                        Some(policy) => match policy.apply(&prefix, sent) {
                            PolicyVerdict::Accept(attrs) => attrs,
                            PolicyVerdict::Reject => return None,
                        },
                        None => sent.clone(),
                    };
                    let route = Route::learned(prefix, post_import.clone(), on);
                    if !tdev.engine.permit_ingress(on, prefix, &route) {
                        return None; // ingress Route Filter RPA discards
                    }
                    Some(post_import)
                });
                let held = tdev
                    .daemon
                    .rib_in_routes(prefix)
                    .iter()
                    .find(|r| r.learned_from == Some(on))
                    .map(|r| r.attrs.clone());
                match (expected, held) {
                    (None, None) => {}
                    (Some(e), Some(h)) if e == *h => {}
                    (Some(e), Some(h)) => failures.push(format!(
                        "{from}->{to} {prefix}: receiver holds stale path [{}], sender advertises [{}]",
                        h.as_path_string(),
                        e.as_path_string()
                    )),
                    (None, Some(h)) => failures.push(format!(
                        "{from}->{to} {prefix}: receiver holds ghost path [{}] the sender no longer advertises",
                        h.as_path_string()
                    )),
                    (Some(e), None) => failures.push(format!(
                        "{from}->{to} {prefix}: sender advertises [{}] but receiver holds nothing",
                        e.as_path_string()
                    )),
                }
            }
        }
    }
    failures
}

/// Where `dev`'s installed FIB and its daemon's
/// [`fib`](centralium_bgp::BgpDaemon::fib) first part, if they do, each
/// entry as `(prefix, warm, next hops)`; under the dedup heuristic the
/// weights read 0, so only the member sessions compare.
fn fib_mismatch(dev: &SimDevice) -> Option<String> {
    let dedup = dev.fib.dedup_heuristic;
    let view = |e: &FibEntry| {
        let hops = e.nexthops.iter();
        let hops = hops.map(|&(peer, w)| (peer, if dedup { 0 } else { w }));
        (e.prefix, e.warm, hops.collect::<Vec<_>>())
    };
    let installed: Vec<_> = dev.fib.entries().map(view).collect();
    let projected: Vec<_> = dev.daemon.fib().iter().map(view).collect();
    let at = (0..=installed.len().max(projected.len()))
        .find(|&i| installed.get(i) != projected.get(i))?;
    Some(format!(
        "{}: FIB holds {:?} where the Loc-RIB projects {:?}",
        dev.id,
        installed.get(at),
        projected.get(at)
    ))
}

/// Assert consistency, panicking with the full violation list.
pub fn assert_rib_consistent(net: &SimNet) {
    let failures = verify_rib_consistency(net);
    assert!(
        failures.is_empty(),
        "RIB consistency violated ({} failures):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::SimConfig;
    use centralium_bgp::attrs::well_known;
    use centralium_topology::{build_fabric, FabricSpec};

    #[test]
    fn converged_fabric_is_consistent() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let mut net = SimNet::new(topo, SimConfig::default());
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        assert_rib_consistent(&net);
    }

    #[test]
    fn consistency_holds_through_churn() {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let mut net = SimNet::new(
            topo,
            SimConfig {
                seed: 77,
                ..Default::default()
            },
        );
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        net.device_down(idx.fadu[0][0]);
        net.run_until_quiescent().expect_converged();
        assert_rib_consistent(&net);
        net.device_up(idx.fadu[0][0]);
        net.run_until_quiescent().expect_converged();
        assert_rib_consistent(&net);
        net.drain_device(idx.fauu[1][1]);
        net.run_until_quiescent().expect_converged();
        assert_rib_consistent(&net);
    }
}
