//! Empirical cumulative distribution functions and CCDF series.
//!
//! The paper presents nearly every measure as a CCDF on log-log axes
//! (Figures 5–9). [`Ecdf`] builds those curves from raw samples and can
//! export log-spaced `(x, ccdf(x))` series for the experiment harness.

use crate::error::StatsError;
use crate::series::Series;

/// Empirical CDF over a finite sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples (non-finite values are discarded).
    pub fn new(mut samples: Vec<f64>) -> Result<Self, StatsError> {
        samples.retain(|x| x.is_finite());
        if samples.is_empty() {
            return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ok(Ecdf { sorted: samples })
    }

    /// `P̂[X ≤ x]`.
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        self.sorted.partition_point(|&v| v <= x) as f64 / self.sorted.len() as f64
    }

    /// `P̂[X > x]` — the quantity the paper plots.
    pub fn ccdf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// Export a CCDF series evaluated at `points` log-spaced x values
    /// between `lo` and `hi` — the exact form of the paper's figures.
    ///
    /// `lo` must be positive (the paper's axes start at 1).
    pub fn ccdf_series_log(&self, lo: f64, hi: f64, points: usize) -> Result<Series, StatsError> {
        if !(lo > 0.0 && hi > lo) {
            return Err(StatsError::BadParameter {
                name: "lo/hi",
                value: lo,
                constraint: "need 0 < lo < hi",
            });
        }
        if points < 2 {
            return Err(StatsError::BadParameter {
                name: "points",
                value: points as f64,
                constraint: "need >= 2 evaluation points",
            });
        }
        let lf = lo.ln();
        let hf = hi.ln();
        let mut xs = Vec::with_capacity(points);
        let mut ys = Vec::with_capacity(points);
        for i in 0..points {
            let x = (lf + (hf - lf) * i as f64 / (points - 1) as f64).exp();
            xs.push(x);
            ys.push(self.ccdf(x));
        }
        Ok(Series::new(xs, ys))
    }

    /// Export a CCDF series evaluated at every distinct sample point (the
    /// highest-fidelity representation, used by the KS test plots).
    pub fn ccdf_series_exact(&self) -> Series {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let n = self.sorted.len() as f64;
        let mut i = 0;
        while i < self.sorted.len() {
            let x = self.sorted[i];
            // Advance past duplicates.
            let mut j = i + 1;
            while j < self.sorted.len() && self.sorted[j] == x {
                j += 1;
            }
            xs.push(x);
            ys.push(1.0 - j as f64 / n);
            i = j;
        }
        Series::new(xs, ys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_input() {
        assert!(Ecdf::new(vec![]).is_err());
        assert!(Ecdf::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn cdf_and_ccdf_complement() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        for x in [0.0, 1.0, 2.0, 3.0, 4.0, 5.0] {
            assert!((e.cdf(x) + e.ccdf(x) - 1.0).abs() < 1e-15);
        }
        assert_eq!(e.cdf(2.0), 0.75);
        assert_eq!(e.ccdf(4.0), 0.0);
    }

    #[test]
    fn ccdf_series_is_monotone_decreasing() {
        let e = Ecdf::new((1..=1000).map(|i| (i as f64).powi(2)).collect()).unwrap();
        let s = e.ccdf_series_log(1.0, 1e6, 50).unwrap();
        let ys = s.ys();
        for w in ys.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        assert_eq!(s.ys().len(), 50);
    }

    #[test]
    fn ccdf_series_exact_dedups() {
        let e = Ecdf::new(vec![1.0, 1.0, 2.0, 3.0, 3.0, 3.0]).unwrap();
        let s = e.ccdf_series_exact();
        let xs: Vec<f64> = s.points().map(|(x, _)| x).collect();
        assert_eq!(xs, [1.0, 2.0, 3.0]);
        // After all samples consumed the CCDF reaches 0.
        assert_eq!(s.ys().last().copied(), Some(0.0));
        // After the 1.0s (2 of 6): ccdf = 4/6.
        assert!((s.ys()[0] - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn series_log_rejects_bad_bounds() {
        let e = Ecdf::new(vec![1.0, 2.0]).unwrap();
        assert!(e.ccdf_series_log(0.0, 10.0, 10).is_err());
        assert!(e.ccdf_series_log(10.0, 1.0, 10).is_err());
        assert!(e.ccdf_series_log(1.0, 10.0, 1).is_err());
    }
}
