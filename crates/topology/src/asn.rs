//! Autonomous-system number allocation.
//!
//! Meta's BGP-in-the-DC design gives every switch (or small group of switches)
//! its own private ASN so AS-path length encodes hop count and loop prevention
//! works hop-by-hop. We mirror that: each device gets a unique ASN from a
//! per-layer range, which makes AS-path regexes in Path Selection RPAs (§4.3)
//! able to identify a layer by its ASN prefix range.

use crate::layer::Layer;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A BGP autonomous-system number (4-byte capable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Allocates unique ASNs from per-layer bases.
///
/// The first `LEGACY_BAND_WIDTH` allocations per layer come from small
/// readable bases (10000·(height+1)), which keeps traces and every committed
/// fixture stable. When a layer outgrows its legacy band — paper-scale
/// fabrics put 10k+ switches in one layer — allocation continues in a
/// per-layer **extension band** inside the 4-byte private range
/// (RFC 6996: 4200000000–4294967294), `EXT_BAND_WIDTH` wide, instead of
/// panicking or bleeding into the next layer's band:
///
/// | layer     | legacy base | extension base |
/// |-----------|-------------|----------------|
/// | RSW       | 10000       | 4200000000     |
/// | FSW       | 20000       | 4210000000     |
/// | SSW       | 30000       | 4220000000     |
/// | FADU      | 40000       | 4230000000     |
/// | FAUU      | 50000       | 4240000000     |
/// | Backbone  | 60000       | 4250000000     |
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct AsnAllocator {
    next_offset: [u32; 6],
}

/// Allocations per layer served from the small legacy base.
pub(crate) const LEGACY_BAND_WIDTH: u32 = 10_000;
/// First ASN of the 4-byte private extension region (RFC 6996).
pub(crate) const EXT_BASE: u32 = 4_200_000_000;
/// Extension-band capacity per layer (10M switches — far past the 100k
/// devices the scale roadmap targets).
pub(crate) const EXT_BAND_WIDTH: u32 = 10_000_000;

impl AsnAllocator {
    /// Base ASN for a layer's legacy band.
    pub fn layer_base(layer: Layer) -> u32 {
        (layer.height() as u32 + 1) * LEGACY_BAND_WIDTH
    }

    /// Base ASN for a layer's 4-byte extension band.
    pub(crate) fn layer_ext_base(layer: Layer) -> u32 {
        EXT_BASE + layer.height() as u32 * EXT_BAND_WIDTH
    }

    /// Create an allocator with nothing allocated.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Allocate the next free ASN in the layer's range: the legacy band
    /// first, then the 4-byte extension band.
    ///
    /// # Panics
    /// Panics when a layer's extension band is also exhausted (10,010,000
    /// devices in one layer) — silently bleeding into the next layer's band
    /// would corrupt every band-based RPA signature.
    pub fn allocate(&mut self, layer: Layer) -> Asn {
        let idx = layer.height();
        let offset = self.next_offset[idx];
        let asn = if offset < LEGACY_BAND_WIDTH {
            Asn(Self::layer_base(layer) + offset)
        } else {
            let ext = offset - LEGACY_BAND_WIDTH;
            assert!(
                ext < EXT_BAND_WIDTH,
                "ASN bands for layer {layer} exhausted"
            );
            Asn(Self::layer_ext_base(layer) + ext)
        };
        self.next_offset[idx] += 1;
        asn
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Which layer an ASN was allocated for, if it falls in a known range —
    /// legacy or extension band.
    pub(crate) fn layer_of(asn: Asn) -> Option<Layer> {
        if asn.0 >= EXT_BASE {
            let band = (asn.0 - EXT_BASE) / EXT_BAND_WIDTH;
            return Layer::ALL.get(band as usize).copied();
        }
        let band = asn.0 / LEGACY_BAND_WIDTH;
        match band {
            1..=6 => Some(Layer::ALL[(band - 1) as usize]),
            _ => None,
        }
    }

    #[test]
    fn allocations_are_unique_within_and_across_layers() {
        let mut alloc = AsnAllocator::new();
        let mut seen = std::collections::HashSet::new();
        for layer in Layer::ALL {
            for _ in 0..100 {
                assert!(seen.insert(alloc.allocate(layer)));
            }
        }
        assert_eq!(seen.len(), 600);
    }

    #[test]
    fn layer_of_inverts_allocate() {
        let mut alloc = AsnAllocator::new();
        for layer in Layer::ALL {
            let asn = alloc.allocate(layer);
            assert_eq!(layer_of(asn), Some(layer));
        }
    }

    #[test]
    fn layer_of_unknown_band_is_none() {
        assert_eq!(layer_of(Asn(99_999_999)), None);
        assert_eq!(layer_of(Asn(5)), None);
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(Asn(65001).to_string(), "AS65001");
    }

    #[test]
    fn exhausting_the_legacy_band_overflows_into_the_4byte_range() {
        // 100k devices in one layer — the scale the roadmap targets. The
        // first 10,000 keep the legacy readable base; the rest must come
        // from the layer's private 4-byte band, all unique, all mapping
        // back to the right layer.
        let mut alloc = AsnAllocator::new();
        let mut seen = std::collections::HashSet::new();
        for i in 0..100_000u32 {
            let asn = alloc.allocate(Layer::Rsw);
            assert!(seen.insert(asn), "duplicate ASN {asn} at allocation {i}");
            assert_eq!(layer_of(asn), Some(Layer::Rsw));
            if i < LEGACY_BAND_WIDTH {
                assert_eq!(asn.0, AsnAllocator::layer_base(Layer::Rsw) + i);
            } else {
                assert_eq!(
                    asn.0,
                    AsnAllocator::layer_ext_base(Layer::Rsw) + (i - LEGACY_BAND_WIDTH)
                );
            }
        }
        // Extension bands of different layers stay disjoint.
        assert_eq!(
            layer_of(Asn(AsnAllocator::layer_ext_base(Layer::Backbone))),
            Some(Layer::Backbone)
        );
    }

    #[test]
    fn layer_of_extension_band_edges() {
        assert_eq!(layer_of(Asn(EXT_BASE)), Some(Layer::Rsw));
        assert_eq!(
            layer_of(Asn(EXT_BASE + 6 * EXT_BAND_WIDTH)),
            None,
            "past the last layer's extension band"
        );
    }
}
