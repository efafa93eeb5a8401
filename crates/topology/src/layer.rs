//! Horizontal switch layers of the data-center fabric.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A horizontal layer in the DC topology, ordered from the bottom (closest to
/// servers) to the top (closest to the backbone).
///
/// The ordering is load-bearing: RPA deployment sequencing (§5.3.2 of the
/// paper) walks layers bottom-up when deploying and top-down when removing,
/// relative to where the affected routes originate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// Rack switch (top-of-rack). All equipment within a rack connects here.
    Rsw,
    /// Fabric switch. A pod is a group of interconnected FSWs and RSWs.
    Fsw,
    /// Spine switch. A plane is a group of interconnected SSWs and FSWs.
    Ssw,
    /// Fabric-aggregate downlink unit, facing down toward the DC fabrics.
    Fadu,
    /// Fabric-aggregate uplink unit, facing up toward the wide-area backbone.
    Fauu,
    /// Backbone device (EB) interconnecting data centers.
    Backbone,
}

impl Layer {
    /// All layers in bottom-to-top order.
    pub const ALL: [Layer; 6] = [
        Layer::Rsw,
        Layer::Fsw,
        Layer::Ssw,
        Layer::Fadu,
        Layer::Fauu,
        Layer::Backbone,
    ];

    /// Zero-based height of the layer (RSW = 0, backbone = 5).
    pub fn height(self) -> usize {
        match self {
            Layer::Rsw => 0,
            Layer::Fsw => 1,
            Layer::Ssw => 2,
            Layer::Fadu => 3,
            Layer::Fauu => 4,
            Layer::Backbone => 5,
        }
    }

    /// Whether `self` is strictly closer to the servers than `other`.
    pub fn is_below(self, other: Layer) -> bool {
        self.height() < other.height()
    }

    /// Short uppercase name as used in the paper's figures.
    pub fn short_name(self) -> &'static str {
        match self {
            Layer::Rsw => "RSW",
            Layer::Fsw => "FSW",
            Layer::Ssw => "SSW",
            Layer::Fadu => "FADU",
            Layer::Fauu => "FAUU",
            Layer::Backbone => "EB",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_are_ordered_bottom_up() {
        for pair in Layer::ALL.windows(2) {
            assert!(
                pair[0].is_below(pair[1]),
                "{} should be below {}",
                pair[0],
                pair[1]
            );
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn heights_are_unique_and_dense() {
        let mut heights: Vec<usize> = Layer::ALL.iter().map(|l| l.height()).collect();
        heights.sort_unstable();
        assert_eq!(heights, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn short_names_match_paper_terms() {
        assert_eq!(Layer::Rsw.short_name(), "RSW");
        assert_eq!(Layer::Backbone.short_name(), "EB");
    }
}
