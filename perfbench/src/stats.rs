//! Order statistics over host-time samples.

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A nearest-rank percentile together with the number of samples lying
/// strictly beyond it, so a report can say how well the tail is sampled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// The nearest-rank `q`-quantile of `v` (`q` in `(0, 1]`).
pub fn percentile(v: &[f64], q: f64) -> Percentile {
    if v.is_empty() {
        return Percentile { value: 0.0, samples: 0, beyond: 0 };
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    // Nearest rank: the ceil(q*n)-th smallest sample.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let value = s[rank - 1];
    let beyond = n - s.partition_point(|&x| x <= value);
    Percentile { value, samples: n, beyond }
}

/// `num / den`, or 0 when `den` is 0.
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
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_of_a_thousand_has_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&v, 0.99);
        assert_eq!(p.value, 990.0);
        assert_eq!(p.beyond, 10);
        assert_eq!(percentile(&v, 0.5).value, 500.0);
    }
}
