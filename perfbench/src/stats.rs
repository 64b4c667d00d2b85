//! Order statistics over the samples a run collects.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks; `0.0` for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lower = position.floor() as usize;
    let upper = position.ceil() as usize;
    let weight = position - lower as f64;
    sorted[lower] + (sorted[upper] - sorted[lower]) * weight
}

/// Mean of `values` without the lowest and the highest `trim` share of
/// them (rounded down); `0.0` for no values. A run's passes search from
/// different seeds, so their times and hypervolumes spread widely: the
/// trimmed mean estimates their centre from fewer passes than the median
/// needs, and a pass slowed by the host still cannot move it far.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (trim.clamp(0.0, 0.49) * sorted.len() as f64).floor() as usize;
    let kept = &sorted[cut..sorted.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Largest of `values`; `0.0` for no values.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let values = [100.0, 1.0, 2.0, 3.0, -50.0];
        assert_eq!(trimmed_mean(&values, 0.2), 2.0);
        assert_eq!(trimmed_mean(&values, 0.0), 11.2);
        assert_eq!(trimmed_mean(&[7.0], 0.2), 7.0);
        assert_eq!(trimmed_mean(&[], 0.2), 0.0);
    }
}
