//! Order statistics over a handful of repeats.

/// Median, quartiles, extremes and count of one metric's repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values.
    pub n: u64,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let [q1, median, q3] = quartiles(&sorted);
        Some(Summary {
            n: sorted.len() as u64,
            min,
            q1,
            median,
            q3,
            max,
        })
    }
}

/// The sum of `values`, +0.0 when there is none (an empty `sum()` is -0.0,
/// which would print as "-0").
pub fn total(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, |sum, value| sum + value)
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// The three quartiles of an ascending slice, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method:
/// the value at position `i * (n + 1) / 4`, interpolated, clamped to the
/// ends). One value is its own quartiles.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let position = i * (n + 1);
        let below = (position / 4).clamp(1, n - 1);
        let weight = position as f64 / 4.0 - below as f64;
        sorted[below - 1] + (sorted[below] - sorted[below - 1]) * weight
    })
}

/// The value below which `q` (in 0..=1) of an ascending slice falls, by
/// nearest rank; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
    }

    #[test]
    fn an_empty_total_is_positive_zero() {
        assert!(total([]).is_sign_positive());
        assert_eq!(total([1.5, 2.0]), 3.5);
    }

    #[test]
    fn one_value_and_no_value() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
