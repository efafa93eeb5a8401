//! Migrations expressed as staged sequences of topology deltas.
//!
//! §3.1 of the paper taxonomizes production migrations into five categories
//! (Table 1). Here a [`Migration`] is an ordered list of [`MigrationStage`]s;
//! each stage is a set of [`TopologyDelta`]s that are applied "at once" (the
//! simulator still delivers the resulting BGP churn asynchronously, which is
//! exactly what produces the paper's transitory states).

use crate::asn::Asn;
use crate::device::{DeviceId, DeviceState};
use crate::link::LinkId;
use crate::naming::DeviceName;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The five migration categories of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MigrationCategory {
    /// (a) Routing design iterations across the fleet.
    RoutingSystemEvolution,
    /// (b) Physical topology growth / hardware refresh.
    IncrementalCapacityScaling,
    /// (c) Service-specific path allocation.
    DifferentialTrafficDistribution,
    /// (d) Policy intent changes.
    RoutingPolicyTransitions,
    /// (e) Day-to-day drain for maintenance.
    TrafficDrainForMaintenance,
}

impl MigrationCategory {
    /// All categories, in Table 1 order.
    pub const ALL: [MigrationCategory; 5] = [
        MigrationCategory::RoutingSystemEvolution,
        MigrationCategory::IncrementalCapacityScaling,
        MigrationCategory::DifferentialTrafficDistribution,
        MigrationCategory::RoutingPolicyTransitions,
        MigrationCategory::TrafficDrainForMaintenance,
    ];

    /// Table 1 row label, e.g. `(a)`.
    pub fn label(self) -> &'static str {
        match self {
            MigrationCategory::RoutingSystemEvolution => "(a)",
            MigrationCategory::IncrementalCapacityScaling => "(b)",
            MigrationCategory::DifferentialTrafficDistribution => "(c)",
            MigrationCategory::RoutingPolicyTransitions => "(d)",
            MigrationCategory::TrafficDrainForMaintenance => "(e)",
        }
    }

    /// Human name as in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            MigrationCategory::RoutingSystemEvolution => "Routing System Evolution",
            MigrationCategory::IncrementalCapacityScaling => "Incremental Capacity Scaling",
            MigrationCategory::DifferentialTrafficDistribution => {
                "Differential Traffic Distribution"
            }
            MigrationCategory::RoutingPolicyTransitions => "Routing Policy Transitions",
            MigrationCategory::TrafficDrainForMaintenance => "Traffic Drain For Maintenance",
        }
    }

    /// Typical duration in days (Table 1), used by the workload model.
    pub fn typical_duration_days(self) -> f64 {
        match self {
            MigrationCategory::RoutingSystemEvolution => 45.0,
            MigrationCategory::IncrementalCapacityScaling => 180.0,
            MigrationCategory::DifferentialTrafficDistribution => 60.0,
            MigrationCategory::RoutingPolicyTransitions => 90.0,
            MigrationCategory::TrafficDrainForMaintenance => 0.04, // <1 hour
        }
    }

    /// Whether the change scope spans multiple DCs (Table 1).
    pub fn is_multi_dc(self) -> bool {
        !matches!(self, MigrationCategory::DifferentialTrafficDistribution)
    }
}

impl fmt::Display for MigrationCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.label(), self.name())
    }
}

/// A single atomic change to the topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum TopologyDelta {
    /// Commission a new device. The stage's applier reports the id it
    /// receives under `name` so later stages can reference it.
    AddDevice {
        /// Structured name of the new device.
        name: DeviceName,
        /// ASN for the new device.
        asn: Asn,
    },
    /// Decommission a device (and all incident links).
    RemoveDevice {
        /// The device to remove.
        id: DeviceId,
    },
    /// Change a device's operational state (drain / undrain / power off).
    SetDeviceState {
        /// Target device.
        id: DeviceId,
        /// New state.
        state: DeviceState,
    },
    /// Cable a new link between existing devices, by name so that links to
    /// devices added in earlier stages of the same migration can be expressed.
    AddLinkByName {
        /// Lower/first endpoint name.
        a: DeviceName,
        /// Upper/second endpoint name.
        b: DeviceName,
        /// Capacity in Gbps.
        capacity_gbps: f64,
    },
    /// De-cable a link.
    RemoveLink {
        /// The link to remove.
        id: LinkId,
    },
}

/// One stage of a migration: deltas applied together, then the network is
/// allowed to (asynchronously) converge before the next stage.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MigrationStage {
    /// Operator-facing description of the stage.
    pub description: String,
    /// Deltas applied in order.
    pub deltas: Vec<TopologyDelta>,
}

impl MigrationStage {
    /// Create a stage.
    pub fn new(description: impl Into<String>, deltas: Vec<TopologyDelta>) -> Self {
        MigrationStage {
            description: description.into(),
            deltas,
        }
    }
}

/// A staged migration plan over a topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Migration {
    /// Which Table 1 category this migration belongs to.
    pub category: MigrationCategory,
    /// Operator-facing name.
    pub name: String,
    /// Ordered stages. Stages are the unit of the paper's "#Steps on the
    /// critical path" accounting (Table 3).
    pub stages: Vec<MigrationStage>,
}

impl Migration {
    /// Create a migration plan.
    pub fn new(category: MigrationCategory, name: impl Into<String>) -> Self {
        Migration {
            category,
            name: name.into(),
            stages: Vec::new(),
        }
    }

    /// Append a stage, builder-style.
    pub fn stage(mut self, stage: MigrationStage) -> Self {
        self.stages.push(stage);
        self
    }

    /// Number of strictly-ordered stages (the paper's critical-path steps).
    pub fn critical_path_steps(&self) -> usize {
        self.stages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_metadata_matches_table1() {
        assert_eq!(MigrationCategory::ALL.len(), 5);
        assert_eq!(MigrationCategory::IncrementalCapacityScaling.label(), "(b)");
        assert!(
            MigrationCategory::IncrementalCapacityScaling.typical_duration_days()
                > MigrationCategory::RoutingSystemEvolution.typical_duration_days()
        );
        assert!(!MigrationCategory::DifferentialTrafficDistribution.is_multi_dc());
        assert!(MigrationCategory::TrafficDrainForMaintenance.typical_duration_days() < 1.0);
    }
}
