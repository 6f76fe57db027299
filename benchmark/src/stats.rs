//! Sample arithmetic shared by every metric: medians over repetitions and
//! geometric means over configs.

/// Median of the samples (mean of the two middle ones for an even count).
///
/// # Panics
/// Panics on an empty slice: every metric has at least one repetition.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Geometric mean of positive values, so that one slow config (STP2 on LU)
/// cannot drown the others the way it does in a sum.
///
/// # Panics
/// Panics on an empty slice or a non-positive value.
pub fn gmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "gmean of no values");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "gmean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// `num / den`, or 0 when the denominator is 0: a per-layer ratio whose
/// layer a workload never enters reads 0 instead of NaN (JSON has no NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_ignores_input_order_and_outliers() {
        assert_eq!(median(&[1.0, 1000.0, 2.0, 3.0, 2.5]), 2.5);
    }

    #[test]
    fn gmean_is_the_nth_root_of_the_product() {
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((gmean(&[7.5]) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn gmean_weighs_ratios_not_differences() {
        // Halving one config and doubling another cancel out.
        let base = gmean(&[10.0, 40.0]);
        let moved = gmean(&[5.0, 80.0]);
        assert!((base - moved).abs() < 1e-9);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
