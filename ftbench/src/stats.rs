//! Medians, the percentile rule, and sample counts.
//!
//! A timing is reported as its median plus the highest standard percentile
//! that still has at least [`MIN_BEYOND`] samples above it (nearest-rank
//! definition), and every figure carries its sample count.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate percentiles, in per mille, highest first.
const PERCENTILES_PER_MILLE: [u32; 4] = [999, 990, 900, 500];

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// One-based nearest rank of the `p`-per-mille percentile of `n` samples.
fn rank(n: usize, per_mille: u32) -> usize {
    (per_mille as usize * n).div_ceil(1000).max(1)
}

/// How many of `n` samples lie strictly beyond the `per_mille` percentile.
pub fn samples_beyond(n: usize, per_mille: u32) -> usize {
    n.saturating_sub(rank(n, per_mille))
}

/// The highest standard percentile (in per mille) that `n` samples support
/// under the rule, or `None` when even the median has too few beyond it.
pub fn highest_percentile(n: usize) -> Option<u32> {
    PERCENTILES_PER_MILLE
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// The `per_mille` percentile of `xs` by nearest rank, if the rule allows
/// reporting it for this many samples.
pub fn percentile(xs: &[f64], per_mille: u32) -> Option<f64> {
    if samples_beyond(xs.len(), per_mille) < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), per_mille) - 1])
}

/// Label such as `p90` or `p99.9` for a per-mille percentile.
pub fn percentile_label(per_mille: u32) -> String {
    if per_mille.is_multiple_of(10) {
        format!("p{}", per_mille / 10)
    } else {
        format!("p{}.{}", per_mille / 10, per_mille % 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(samples_beyond(100, 900), 10);
        assert_eq!(samples_beyond(99, 900), 9);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 900), Some(90.0));
        assert_eq!(percentile(&xs[..99], 900), None);
    }

    #[test]
    fn highest_percentile_grows_with_samples() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(500));
        assert_eq!(highest_percentile(99), Some(500));
        assert_eq!(highest_percentile(100), Some(900));
        assert_eq!(highest_percentile(999), Some(900));
        assert_eq!(highest_percentile(1000), Some(990));
        assert_eq!(highest_percentile(10_000), Some(999));
    }

    #[test]
    fn nearest_rank_is_exact_on_integers() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 990), Some(990.0));
        assert_eq!(percentile(&xs, 500), Some(500.0));
        assert_eq!(percentile_label(999), "p99.9");
        assert_eq!(percentile_label(900), "p90");
    }
}
