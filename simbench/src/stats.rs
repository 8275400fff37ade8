//! Order statistics for the reported timings.

/// The percentiles the tail is chosen from, in per mille, highest first
/// (integers, so the nearest rank is exact).
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile for it to be reported as the
/// tail.
pub const TAIL_BEYOND: usize = 10;

/// The median of `samples` (the mean of the middle two for an even count);
/// `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest of p99.9, p99, p95, p90, p75 and p50 with at least
/// [`TAIL_BEYOND`] samples beyond it, as `(percentile, nearest-rank
/// value)`. With fewer than `2 * TAIL_BEYOND` samples no percentile
/// qualifies and the median is returned as the 50th percentile.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (50.0, f64::NAN);
    }
    for per_mille in TAIL_LADDER {
        let rank = (per_mille * n).div_ceil(1000).max(1);
        if n - rank >= TAIL_BEYOND {
            return (per_mille as f64 / 10.0, v[rank - 1]);
        }
    }
    (50.0, median(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled, so the rule cannot lean on input order.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail(&ramp(100)), (90.0, 90.0));
        assert_eq!(tail(&ramp(99)), (75.0, 75.0));
        assert_eq!(tail(&ramp(200)), (95.0, 190.0));
        assert_eq!(tail(&ramp(448)), (95.0, 426.0));
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        assert_eq!(tail(&ramp(10_000)), (99.9, 9990.0));
        assert_eq!(tail(&ramp(20)), (50.0, 10.0));
    }

    #[test]
    fn too_few_samples_fall_back_to_the_median() {
        assert_eq!(tail(&ramp(19)), (50.0, 10.0));
        assert_eq!(tail(&[4.0, 1.0]), (50.0, 2.5));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
