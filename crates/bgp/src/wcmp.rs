//! Weighted-cost multipath weight derivation.
//!
//! In the fully-distributed setup (§2 "Traffic Distribution", §3.4), WCMP
//! weights come from the link-bandwidth extended community each peer attaches
//! to its advertisement: the weight of a path is proportional to the
//! advertised available capacity behind it. This module converts a multipath
//! set's bandwidth values into small integer weights (hardware hashes over
//! integer replication counts, so values are reduced by their GCD and capped).

use crate::rib::{Path, Route};

/// Maximum per-path integer weight after reduction, mirroring ASIC limits on
/// ECMP-member replication counts.
pub(crate) const MAX_WEIGHT: u32 = 64;

/// Derive per-route WCMP weights from link-bandwidth communities.
///
/// * If **no** selected route carries a bandwidth, all weights are 1 (ECMP).
/// * Routes missing a bandwidth while others have one are treated as carrying
///   the minimum advertised bandwidth (conservative).
/// * Weights are scaled to integers, reduced by their GCD, and capped at
///   `MAX_WEIGHT`.
pub fn derive_weights(selected: &[Route]) -> Vec<u32> {
    let mut paths: Vec<Path> = selected.iter().map(|r| Path::new(r.clone(), 0)).collect();
    derive_weights_into(&mut paths);
    paths.iter().map(|path| path.weight).collect()
}

/// [`derive_weights`] written into each path's weight, from the paths'
/// own bandwidths.
pub(crate) fn derive_weights_into(paths: &mut [Path]) {
    let bandwidth = |path: &Path| path.attrs.link_bandwidth_gbps;
    if paths.iter().all(|path| bandwidth(path).is_none()) {
        paths.iter_mut().for_each(|path| path.weight = 1);
        return;
    }
    let min_bw = paths
        .iter()
        .filter_map(bandwidth)
        .fold(f64::INFINITY, f64::min)
        .max(f64::MIN_POSITIVE);
    let raw = |path: &Path| bandwidth(path).unwrap_or(min_bw).max(0.0);
    quantize_into(paths, raw, |path| &mut path.weight);
}

/// Quantize positive real weights into small co-prime integers.
///
/// Ratios are anchored on the minimum value (so 100:300 becomes 1:3, not a
/// rounding artifact of scaling to the maximum), refined with a small
/// multiplier to capture fractional ratios (100:250 → 2:5), then capped at
/// `MAX_WEIGHT` and reduced by their GCD.
pub fn quantize(raw: &[f64]) -> Vec<u32> {
    let mut items: Vec<(f64, u32)> = raw.iter().map(|&w| (w, 0)).collect();
    quantize_into(&mut items, |item| item.0, |item| &mut item.1);
    items.into_iter().map(|(_, w)| w).collect()
}

/// [`quantize`] over `items`: each one's `raw` value, its integer written
/// through `weight`.
fn quantize_into<T>(items: &mut [T], raw: impl Fn(&T) -> f64, weight: fn(&mut T) -> &mut u32) {
    let min = items
        .iter()
        .map(&raw)
        .filter(|w| *w > 0.0)
        .fold(f64::INFINITY, f64::min);
    if !min.is_finite() {
        items.iter_mut().for_each(|item| *weight(item) = 1);
        return;
    }
    // Multiplier 4 resolves ratios in quarters, enough for capacity planning.
    // An exactly-zero input (a drained link advertising no capacity) keeps
    // weight 0 — it must receive no traffic, not a token share.
    for item in items.iter_mut() {
        let w = raw(item);
        *weight(item) = if w <= 0.0 {
            0
        } else {
            (((w / min) * 4.0).round() as u32).max(1)
        };
    }
    let max = items.iter_mut().map(|i| *weight(i)).max().unwrap_or(0);
    if max > MAX_WEIGHT {
        for w in items.iter_mut().map(weight) {
            *w = (((*w as f64 / max as f64) * MAX_WEIGHT as f64).round() as u32).max(1);
        }
    }
    // A zero weight leaves the fold where it is: gcd(g, 0) = g.
    let g = items.iter_mut().map(|i| *weight(i)).fold(0, gcd);
    if g > 1 {
        for w in items.iter_mut().map(weight) {
            *w /= g;
        }
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::PathAttributes;
    use crate::types::{PeerId, Prefix};

    fn route(peer: u64, bw: Option<f64>) -> Route {
        let attrs = PathAttributes {
            link_bandwidth_gbps: bw,
            ..Default::default()
        };
        Route::learned(Prefix::DEFAULT, attrs, PeerId(peer))
    }

    #[test]
    fn no_bandwidth_means_ecmp() {
        let routes = vec![route(1, None), route(2, None), route(3, None)];
        assert_eq!(derive_weights(&routes), vec![1, 1, 1]);
    }

    #[test]
    fn proportional_weights_reduced_by_gcd() {
        let routes = vec![route(1, Some(100.0)), route(2, Some(200.0))];
        let w = derive_weights(&routes);
        // 100:200 => 32:64 => 1:2 after GCD reduction.
        assert_eq!(w, vec![1, 2]);
    }

    #[test]
    fn equal_bandwidths_reduce_to_unit() {
        let routes = vec![
            route(1, Some(400.0)),
            route(2, Some(400.0)),
            route(3, Some(400.0)),
        ];
        assert_eq!(derive_weights(&routes), vec![1, 1, 1]);
    }

    #[test]
    fn missing_bandwidth_defaults_to_minimum() {
        let routes = vec![route(1, Some(100.0)), route(2, None), route(3, Some(200.0))];
        let w = derive_weights(&routes);
        assert_eq!(w, vec![1, 1, 2]);
    }

    #[test]
    fn weights_never_zero_even_for_tiny_shares() {
        let routes = vec![route(1, Some(10_000.0)), route(2, Some(1.0))];
        let w = derive_weights(&routes);
        assert!(w[1] >= 1);
        assert!(w[0] <= MAX_WEIGHT);
    }

    #[test]
    fn empty_input_yields_empty() {
        assert!(derive_weights(&[]).is_empty());
    }

    #[test]
    fn derive_weights_into_overwrites_with_what_derive_weights_returns() {
        let cases = [
            vec![route(1, None), route(2, None), route(3, None)],
            vec![route(1, Some(100.0)), route(2, Some(200.0))],
            vec![
                route(1, Some(400.0)),
                route(2, Some(400.0)),
                route(3, Some(400.0)),
            ],
            vec![route(1, Some(100.0)), route(2, None), route(3, Some(200.0))],
            vec![route(1, Some(10_000.0)), route(2, Some(1.0))],
            vec![route(1, Some(100.0)), route(2, Some(0.0))],
            vec![],
        ];
        // Dirty weights to begin with: each call replaces them.
        for routes in &cases {
            let mut paths: Vec<Path> = routes.iter().map(|r| Path::new(r.clone(), 7)).collect();
            derive_weights_into(&mut paths);
            let weights: Vec<u32> = paths.iter().map(|path| path.weight).collect();
            assert_eq!(weights, derive_weights(routes));
        }
    }

    #[test]
    fn quantize_handles_zeroes() {
        // All-zero: no information, fall back to ECMP.
        assert_eq!(quantize(&[0.0, 0.0]), vec![1, 1]);
        // A zero among positives is a drained link: it gets no traffic.
        assert_eq!(quantize(&[100.0, 0.0]), vec![1, 0]);
    }

    #[test]
    fn gcd_reduction() {
        assert_eq!(
            quantize(&[2.0, 4.0, 8.0]),
            [4, 8, 16].iter().map(|x| x / 4).collect::<Vec<u32>>()
        );
    }
}
