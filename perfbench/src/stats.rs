//! Order statistics over timing samples.

/// Sorts a sample set ascending (total order, so NaN cannot panic).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` in `[0, 1]` of an ascending sample set.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample set.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = sorted((1..=100).rev().map(f64::from).collect());
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
