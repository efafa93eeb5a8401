//! Percentiles and CDF rendering.

/// The p-th percentile (0–100) of a sample set, by nearest-rank on a sorted
/// copy. Returns 0.0 for empty input.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Empirical CDF points `(value, fraction ≤ value)` at the given fractions.
pub(crate) fn cdf_points(samples: &[f64], fractions: &[f64]) -> Vec<(f64, f64)> {
    fractions
        .iter()
        .map(|&f| (percentile(samples, f * 100.0), f))
        .collect()
}

/// Render a CDF as fixed-width text rows, one per requested fraction.
pub(crate) fn render_cdf(label: &str, unit: &str, samples: &[f64]) -> String {
    let mut out = format!("CDF of {label} ({} samples)\n", samples.len());
    for (value, frac) in cdf_points(samples, &[0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0]) {
        out.push_str(&format!(
            "  p{:<5.1} {:>12.3} {}\n",
            frac * 100.0,
            value,
            unit
        ));
    }
    out
}

/// Arithmetic mean; 0.0 for empty input.
pub(crate) fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basic() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&s, 50.0), 51.0); // nearest rank on 0-indexed
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_is_order_invariant() {
        let a = vec![5.0, 1.0, 9.0, 3.0];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(percentile(&a, 75.0), percentile(&b, 75.0));
    }

    #[test]
    fn cdf_points_are_monotonic() {
        let s: Vec<f64> = (0..50).map(|i| (i * i) as f64).collect();
        let pts = cdf_points(&s, &[0.1, 0.5, 0.9]);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn render_cdf_contains_rows() {
        let out = render_cdf("test", "ms", &[1.0, 2.0, 3.0]);
        assert!(out.contains("p50"));
        assert!(out.contains("ms"));
    }
}
