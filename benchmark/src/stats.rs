//! Order statistics over a handful of samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default *exclusive* method), because that is the function the
//! acceptance driver computes run-to-run spread with: a spread printed
//! here and a spread computed there agree to the last digit.

/// Five-number summary plus the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise `values` (at least one; non-finite values are a bug in
    /// the caller and panic in `sort`).
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let n = v.len();
        // Two samples are the one case where the exclusive method
        // extrapolates beyond the data; keep the cut points inside it.
        let cut = |i| quantile(&v, i).clamp(v[0], v[n - 1]);
        let (q1, median, q3) = if n == 1 {
            (v[0], v[0], v[0])
        } else {
            (cut(1), cut(2), cut(3))
        };
        Summary {
            n,
            min: v[0],
            q1,
            median,
            q3,
            max: v[n - 1],
        }
    }

    /// A single measured value (n = 1, zero spread).
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// Inter-quartile distance as a share of the median — the spread
    /// the benchmark's bounds are judged against.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th quartile cut point (1..=3) of sorted `v` (len ≥ 2), by
/// the exclusive method: position `i·(n+1)/4`, linearly interpolated,
/// clamped to the sample range.
fn quantile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// Median of `values` (see [`Summary::of`]).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], which
        // lies outside the samples: clamped to them.
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
        // statistics.quantiles([10, 20, 30, 40, 50, 60, 70], n=4) == [20, 40, 60]
        let s = Summary::of(&[70.0, 10.0, 30.0, 20.0, 60.0, 50.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (20.0, 40.0, 60.0));
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = Summary::single(4.5);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 4.5, 4.5, 4.5));
        assert_eq!(s.iqr_share(), 0.0);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let s = Summary::of(&[90.0, 100.0, 110.0]);
        assert!((s.iqr_share() - 0.2).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
