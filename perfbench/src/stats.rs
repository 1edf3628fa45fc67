//! Order statistics over the benchmark's samples.

/// A tail percentile needs at least this many samples beyond it before
/// the report quotes it.
pub const TAIL_BEYOND: usize = 10;

/// The samples in ascending order (NaN sorts last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median; the mean of the two middle samples for an even count, NaN for
/// no samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive samples, NaN for no samples.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The highest percentile that still has [`TAIL_BEYOND`] samples above
/// it, with the percentile it sits at and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// The tail of `xs`. With more than [`TAIL_BEYOND`] samples it is the
/// sample with exactly [`TAIL_BEYOND`] samples above it, i.e. percentile
/// `100·(n − 10)/n`. With fewer no percentile qualifies, and the maximum
/// is reported at percentile 100 so the metric always exists.
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            samples: 0,
        };
    }
    let idx = n.saturating_sub(TAIL_BEYOND + 1);
    let idx = if n > TAIL_BEYOND { idx } else { n - 1 };
    Tail {
        value: s[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.samples), (1.0, 11));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[0.5, 2.0, 1.0]);
        assert_eq!((t.value, t.percentile, t.samples), (2.0, 100.0, 3));
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
