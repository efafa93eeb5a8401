//! Devices (switches and backbone routers) of the fabric.

use crate::asn::Asn;
use crate::layer::Layer;
use crate::naming::DeviceName;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable numeric identifier of a device within one [`crate::Topology`].
///
/// Identifiers are never reused: removing a device retires its id, and devices
/// added later (e.g. by a migration) receive fresh ids. This keeps event
/// traces and RIB snapshots unambiguous across migration stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Operational state of a device, as tracked by both the topology model and
/// the controller's current-state view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DeviceState {
    /// Carrying production traffic.
    #[default]
    Live,
    /// Drained: alive but advertising unpreferred routes so that traffic is
    /// steered away (the paper's MAINTENANCE state, §3.4).
    Drained,
    /// Powered off / removed from the forwarding path entirely.
    Down,
}

/// A switch or backbone router.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Device {
    /// Stable id within the topology.
    pub id: DeviceId,
    /// Structured name (layer + grouping + index).
    pub name: DeviceName,
    /// BGP autonomous-system number of this device.
    pub asn: Asn,
    /// Operational state.
    pub state: DeviceState,
    /// Hardware limit on distinct next-hop group objects in the FIB.
    ///
    /// §3.4 of the paper: transient convergence states can mint up to `s^m`
    /// next-hop groups and overflow this limit, delaying forwarding updates.
    pub max_nexthop_groups: usize,
}

impl Device {
    /// Default next-hop-group capacity used when a spec does not override it.
    /// Chosen well below 4^8 = 65536 so the §3.4 explosion is observable.
    pub(crate) const DEFAULT_NHG_CAPACITY: usize = 4096;

    /// Create a live device.
    pub(crate) fn new(id: DeviceId, name: DeviceName, asn: Asn) -> Self {
        Device {
            id,
            name,
            asn,
            state: DeviceState::Live,
            max_nexthop_groups: Self::DEFAULT_NHG_CAPACITY,
        }
    }

    /// The layer this device sits in.
    pub fn layer(&self) -> Layer {
        self.name.layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(state: DeviceState) -> Device {
        let mut d = Device::new(DeviceId(1), DeviceName::new(Layer::Fsw, 0, 0), Asn(65001));
        d.state = state;
        d
    }

    #[test]
    fn default_state_is_live() {
        assert_eq!(DeviceState::default(), DeviceState::Live);
    }

    #[test]
    fn layer_comes_from_name() {
        assert_eq!(dev(DeviceState::Live).layer(), Layer::Fsw);
    }

    #[test]
    fn nhg_capacity_is_below_explosion_bound() {
        // 4^8 from the paper's §3.4 worked example must exceed the FIB limit.
        let bound = 4usize.pow(8);
        assert!(Device::DEFAULT_NHG_CAPACITY < bound);
    }
}
