//! Pre/post-deployment network health checks (controller functions 1 & 4).
//!
//! §5: the controller verifies prerequisites before deploying (specific RIB
//! states, general network health such as congestion-freeness) and verifies
//! expected changes after (e.g. new paths selected).

use crate::error::Error;
use centralium_bgp::Prefix;
use centralium_simnet::traffic::{forwarding_cycle, route_flows, TrafficMatrix, DEFAULT_MAX_HOPS};
use centralium_simnet::SimNet;
use centralium_telemetry::{EventKind, Severity};
use centralium_topology::DeviceId;
use serde::{Deserialize, Serialize};

/// A traffic probe: offered demand used to judge loss/loops/congestion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficProbe {
    /// Sources of the probe flows.
    pub sources: Vec<DeviceId>,
    /// Destination prefix.
    pub dest: Prefix,
    /// Demand per source, Gbps.
    pub gbps_each: f64,
}

/// What to check.
///
/// Its JSON form is the service plane's wire form: `min_nexthops` travels
/// as runs of consecutive entries sharing `(prefix, min)` and `expect_rpa`
/// as runs sharing a name, each run one device-id list. A fleet-wide floor
/// is one list, not one `[device, prefix, min]` triple per rack; decoding
/// restores every entry in order, so failures report in the same order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthCheck {
    /// Route the probe and require full delivery (no black-holes, no loops).
    pub probe: Option<TrafficProbe>,
    /// Require max link utilization under the probe to stay below this
    /// (congestion-freeness). Ignored without a probe.
    pub max_link_utilization: Option<f64>,
    /// Expected RIB states: `(device, prefix, min selected next-hops)`.
    pub min_nexthops: Vec<(DeviceId, Prefix, usize)>,
    /// Devices that must have a specific RPA installed (post-deployment
    /// verification that new state is active).
    pub expect_rpa: Vec<(DeviceId, String)>,
}

/// [`HealthCheck`] in its run-length wire form.
#[derive(Serialize, Deserialize)]
struct WireCheck {
    probe: Option<TrafficProbe>,
    max_link_utilization: Option<f64>,
    min_nexthops: Vec<(Prefix, usize, Vec<DeviceId>)>,
    expect_rpa: Vec<(String, Vec<DeviceId>)>,
}

/// Group `entries` into runs of consecutive equal keys, each run's devices
/// in entry order.
fn runs<K: PartialEq>(entries: impl Iterator<Item = (DeviceId, K)>) -> Vec<(K, Vec<DeviceId>)> {
    let mut runs: Vec<(K, Vec<DeviceId>)> = Vec::new();
    for (dev, key) in entries {
        match runs.last_mut() {
            Some((last, devs)) if *last == key => devs.push(dev),
            _ => runs.push((key, vec![dev])),
        }
    }
    runs
}

impl Serialize for HealthCheck {
    fn serialize(&self) -> serde::Value {
        WireCheck {
            probe: self.probe.clone(),
            max_link_utilization: self.max_link_utilization,
            min_nexthops: runs(self.min_nexthops.iter().map(|&(d, p, min)| (d, (p, min))))
                .into_iter()
                .map(|((prefix, min), devs)| (prefix, min, devs))
                .collect(),
            expect_rpa: runs(self.expect_rpa.iter().map(|(d, name)| (*d, name)))
                .into_iter()
                .map(|(name, devs)| (name.clone(), devs))
                .collect(),
        }
        .serialize()
    }
}

impl Deserialize for HealthCheck {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let wire = WireCheck::deserialize(v)?;
        Ok(HealthCheck {
            probe: wire.probe,
            max_link_utilization: wire.max_link_utilization,
            min_nexthops: wire
                .min_nexthops
                .into_iter()
                .flat_map(|(prefix, min, devs)| devs.into_iter().map(move |d| (d, prefix, min)))
                .collect(),
            expect_rpa: wire
                .expect_rpa
                .into_iter()
                .flat_map(|(name, devs)| devs.into_iter().map(move |d| (d, name.clone())))
                .collect(),
        })
    }
}

impl HealthCheck {
    /// Reject numbers the check cannot judge by: a non-finite or negative
    /// probe rate (a NaN rate would pass every `>` threshold vacuously) and a
    /// non-finite utilization limit (JSON has no spelling for either, so
    /// the wire would turn them into `null`). Every transport calls this
    /// before doing anything, so a check means the same on each.
    pub(crate) fn validate(&self) -> Result<(), Error> {
        if let Some(probe) = &self.probe {
            if !probe.gbps_each.is_finite() || probe.gbps_each < 0.0 {
                return Err(Error::InvalidHealthCheck {
                    field: "probe.gbps_each",
                    value: probe.gbps_each,
                });
            }
        }
        match self.max_link_utilization {
            Some(limit) if !limit.is_finite() => Err(Error::InvalidHealthCheck {
                field: "max_link_utilization",
                value: limit,
            }),
            _ => Ok(()),
        }
    }
}

/// Outcome of a health check.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HealthReport {
    /// Human-readable failures; empty = healthy.
    pub failures: Vec<String>,
}

impl HealthReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run a health check against the emulated network's current state.
pub(crate) fn run_health_check(net: &SimNet, check: &HealthCheck) -> HealthReport {
    let mut report = HealthReport::default();
    if let Some(probe) = &check.probe {
        let tm = TrafficMatrix::uniform(&probe.sources, probe.dest, probe.gbps_each);
        let offered = tm.total_gbps();
        let delivery = route_flows(net, &tm, DEFAULT_MAX_HOPS);
        if delivery.blackholed_gbps > 1e-9 {
            report.failures.push(format!(
                "black-holed {:.3} Gbps of {:.3} offered toward {}",
                delivery.blackholed_gbps, offered, probe.dest
            ));
        }
        if delivery.looped_gbps > 1e-9 {
            report.failures.push(format!(
                "looping traffic detected: {:.3} Gbps",
                delivery.looped_gbps
            ));
        }
        if let Some(cycle) = forwarding_cycle(net, &probe.dest) {
            report.failures.push(format!(
                "forwarding loop toward {}: {:?}",
                probe.dest, cycle
            ));
        }
        if let Some(limit) = check.max_link_utilization {
            let util = delivery.max_link_utilization(net.topology());
            if util > limit {
                report.failures.push(format!(
                    "congestion: max link utilization {:.3} exceeds {:.3}",
                    util, limit
                ));
            }
        }
    }
    for (dev, prefix, min) in &check.min_nexthops {
        let actual = net
            .device(*dev)
            .and_then(|d| d.daemon.loc_rib_entry(*prefix))
            .map(|e| e.fib_nexthops().count())
            .unwrap_or(0);
        if actual < *min {
            report.failures.push(format!(
                "device {dev}: {prefix} has {actual} next-hops, expected >= {min}"
            ));
        }
    }
    for (dev, rpa_name) in &check.expect_rpa {
        let installed = net
            .device(*dev)
            .map(|d| d.engine.document(rpa_name).is_some())
            .unwrap_or(false);
        if !installed {
            report
                .failures
                .push(format!("device {dev}: RPA '{rpa_name}' not installed"));
        }
    }
    let telemetry = net.telemetry();
    let m = telemetry.metrics();
    m.counter("health.checks").inc();
    if !report.passed() {
        m.counter("health.failures").inc();
    }
    if telemetry.journal_enabled() {
        let severity = if report.passed() {
            Severity::Info
        } else {
            Severity::Warn
        };
        let mut ev = telemetry
            .event(EventKind::HealthCheck, severity)
            .field("passed", report.passed())
            .field("failures", report.failures.len());
        if let Some(first) = report.failures.first() {
            ev = ev.field("first_failure", first.as_str());
        }
        telemetry.record(ev);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use centralium_bgp::attrs::well_known;
    use centralium_simnet::SimConfig;
    use centralium_topology::{build_fabric, FabricSpec};

    fn converged() -> (SimNet, centralium_topology::builder::FabricIndex) {
        let (topo, idx, _) = build_fabric(&FabricSpec::tiny());
        let mut net = SimNet::new(topo, SimConfig::default());
        net.establish_all();
        for &eb in &idx.backbone {
            net.originate(eb, Prefix::DEFAULT, [well_known::BACKBONE_DEFAULT_ROUTE]);
        }
        net.run_until_quiescent().expect_converged();
        (net, idx)
    }

    #[test]
    fn healthy_fabric_passes() {
        let (net, idx) = converged();
        let check = HealthCheck {
            probe: Some(TrafficProbe {
                sources: idx.rsw.iter().flatten().copied().collect(),
                dest: Prefix::DEFAULT,
                gbps_each: 10.0,
            }),
            max_link_utilization: Some(1.0),
            min_nexthops: vec![(idx.ssw[0][0], Prefix::DEFAULT, 2)],
            expect_rpa: vec![],
        };
        let report = run_health_check(&net, &check);
        assert!(report.passed(), "failures: {:?}", report.failures);
    }

    #[test]
    fn blackholes_are_reported() {
        let (mut net, idx) = converged();
        for grid in &idx.fadu {
            for &f in grid {
                net.device_down(f);
            }
        }
        net.run_until_quiescent().expect_converged();
        let check = HealthCheck {
            probe: Some(TrafficProbe {
                sources: vec![idx.rsw[0][0]],
                dest: Prefix::DEFAULT,
                gbps_each: 1.0,
            }),
            ..Default::default()
        };
        let report = run_health_check(&net, &check);
        assert!(!report.passed());
        assert!(report.failures[0].contains("black-holed"));
    }

    #[test]
    fn congestion_threshold_enforced() {
        let (net, idx) = converged();
        let check = HealthCheck {
            probe: Some(TrafficProbe {
                sources: vec![idx.rsw[0][0]],
                dest: Prefix::DEFAULT,
                gbps_each: 500.0, // 500G over 2×100G uplinks: way over
            }),
            max_link_utilization: Some(1.0),
            ..Default::default()
        };
        let report = run_health_check(&net, &check);
        assert!(report.failures.iter().any(|f| f.contains("congestion")));
    }

    #[test]
    fn missing_nexthops_and_rpa_reported() {
        let (net, idx) = converged();
        let check = HealthCheck {
            min_nexthops: vec![(idx.ssw[0][0], Prefix::DEFAULT, 99)],
            expect_rpa: vec![(idx.ssw[0][0], "equalize".into())],
            ..Default::default()
        };
        let report = run_health_check(&net, &check);
        assert_eq!(report.failures.len(), 2);
        assert!(report.failures[0].contains("next-hops"));
        assert!(report.failures[1].contains("not installed"));
    }

    fn roundtrip(check: &HealthCheck) -> String {
        let text = serde_json::to_string(check).expect("serialize");
        let back: HealthCheck = serde_json::from_str(&text).expect("parse");
        assert_eq!(&back, check, "through {text}");
        text
    }

    #[test]
    fn wire_form_restores_every_entry_in_order() {
        let (a, b) = (Prefix::DEFAULT, Prefix::new(0x0A00_0000, 24));
        let d = DeviceId;
        let check = HealthCheck {
            probe: Some(TrafficProbe {
                sources: vec![d(3), d(1), d(2)],
                dest: b,
                gbps_each: 0.25,
            }),
            max_link_utilization: Some(0.9),
            // Runs of two prefixes and two floors, and a (prefix, min) that
            // recurs after a different one.
            min_nexthops: vec![
                (d(5), a, 1),
                (d(4), a, 1),
                (d(9), a, 2),
                (d(9), b, 2),
                (d(1), b, 2),
                (d(7), a, 1),
                (d(7), a, 1),
            ],
            expect_rpa: vec![
                (d(2), "equalize".into()),
                (d(1), "equalize".into()),
                (d(3), "drain".into()),
                (d(2), "equalize".into()),
            ],
        };
        let text = roundtrip(&check);
        assert_eq!(text.matches("\"equalize\"").count(), 2, "{text}");
        roundtrip(&HealthCheck::default());
        roundtrip(&HealthCheck {
            probe: Some(TrafficProbe {
                sources: vec![],
                dest: a,
                gbps_each: 1.0,
            }),
            expect_rpa: vec![(d(8), String::new())],
            ..Default::default()
        });
    }
}
