//! Order statistics over small samples.

fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut values: Vec<f64> = values.into_iter().collect();
    values.sort_by(f64::total_cmp);
    values
}

/// The median (mean of the two middle values for an even count); 0 for an
/// empty sample.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let values = sorted(values);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in (0, 100]; 0 for an empty sample.
pub fn percentile(values: impl IntoIterator<Item = f64>, p: f64) -> f64 {
    let values = sorted(values);
    if values.is_empty() {
        return 0.0;
    }
    let rank = (values.len() as f64 * p / 100.0).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median([]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sample = (1..=100).map(f64::from);
        assert_eq!(percentile(sample.clone(), 90.0), 90.0);
        assert_eq!(percentile(sample, 99.0), 99.0);
        assert_eq!(percentile((1..=20).map(f64::from), 50.0), 10.0);
        assert_eq!(percentile([7.0], 99.0), 7.0);
        assert_eq!(percentile([], 50.0), 0.0);
    }
}
