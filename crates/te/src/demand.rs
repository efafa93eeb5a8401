//! Demand matrices for the DCN↔backbone TE problem.

use centralium_topology::DeviceId;
use std::collections::BTreeMap;

/// Per-source upward demand (Gbps) toward the sink set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Demands {
    per_source: BTreeMap<DeviceId, f64>,
}

impl Demands {
    /// No demand.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Uniform demand from every listed source.
    pub fn uniform(sources: &[DeviceId], gbps_each: f64) -> Self {
        let mut d = Self::new();
        for &s in sources {
            d.set(s, gbps_each);
        }
        d
    }

    /// Set one source's demand.
    pub(crate) fn set(&mut self, source: DeviceId, gbps: f64) {
        self.per_source.insert(source, gbps.max(0.0));
    }

    /// Iterate `(source, gbps)` deterministically.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, f64)> + '_ {
        self.per_source.iter().map(|(&d, &g)| (d, g))
    }

    /// Total offered demand.
    pub(crate) fn total(&self) -> f64 {
        self.per_source.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_total() {
        let d = Demands::uniform(&[DeviceId(1), DeviceId(2)], 30.0);
        assert_eq!(d.total(), 60.0);
        assert_eq!(d.per_source.get(&DeviceId(1)), Some(&30.0));
        assert_eq!(d.per_source.get(&DeviceId(9)), None);
    }

    #[test]
    fn negative_demands_clamp_to_zero() {
        let mut d = Demands::new();
        d.set(DeviceId(1), -5.0);
        assert_eq!(d.per_source.get(&DeviceId(1)), Some(&0.0));
    }
}
