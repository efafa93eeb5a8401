//! Bidirectional links between devices.

use crate::device::DeviceId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable numeric identifier of a link within one [`crate::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Administrative/operational state of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum LinkState {
    /// Carrying traffic.
    #[default]
    Up,
    /// Administratively or physically down.
    Down,
}

/// A bidirectional link. `a` is always the lower-layer endpoint when the link
/// crosses layers (enforced by [`crate::Topology::add_link`]), which lets
/// consumers ask "what are the uplinks of X" cheaply.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Stable id within the topology.
    pub id: LinkId,
    /// Lower endpoint (or arbitrary endpoint for same-layer links).
    pub a: DeviceId,
    /// Upper endpoint.
    pub b: DeviceId,
    /// Capacity in Gbps. Used for WCMP weight derivation and TE.
    pub capacity_gbps: f64,
    /// Operational state.
    pub state: LinkState,
}

impl Link {
    /// Default per-link capacity used by the fabric builder.
    pub(crate) const DEFAULT_CAPACITY_GBPS: f64 = 100.0;

    /// Create an up link with the given capacity.
    pub(crate) fn new(id: LinkId, a: DeviceId, b: DeviceId, capacity_gbps: f64) -> Self {
        Link {
            id,
            a,
            b,
            capacity_gbps,
            state: LinkState::Up,
        }
    }

    /// The endpoint opposite to `from`, or `None` if `from` is not on the link.
    pub fn other_end(&self, from: DeviceId) -> Option<DeviceId> {
        if from == self.a {
            Some(self.b)
        } else if from == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// Whether the link connects `x` and `y` in either orientation.
    pub fn connects(&self, x: DeviceId, y: DeviceId) -> bool {
        (self.a == x && self.b == y) || (self.a == y && self.b == x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_end_is_symmetric() {
        let l = Link::new(LinkId(0), DeviceId(1), DeviceId(2), 100.0);
        assert_eq!(l.other_end(DeviceId(1)), Some(DeviceId(2)));
        assert_eq!(l.other_end(DeviceId(2)), Some(DeviceId(1)));
        assert_eq!(l.other_end(DeviceId(3)), None);
    }

    #[test]
    fn connects_ignores_orientation() {
        let l = Link::new(LinkId(0), DeviceId(1), DeviceId(2), 100.0);
        assert!(l.connects(DeviceId(1), DeviceId(2)));
        assert!(l.connects(DeviceId(2), DeviceId(1)));
        assert!(!l.connects(DeviceId(1), DeviceId(3)));
    }

    #[test]
    fn links_default_to_up() {
        assert_eq!(LinkState::default(), LinkState::Up);
    }
}
