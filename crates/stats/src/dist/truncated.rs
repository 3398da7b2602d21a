//! Truncation wrapper.
//!
//! The paper's bimodal models describe the *conditional* law on each side of
//! a split point (e.g. "Body: 0–45 seconds — Weibull", "Tail: > 45 seconds —
//! Lognormal"). [`Truncated`] restricts any [`Continuous`] distribution to an
//! interval and renormalizes, which is exactly that conditional law.

use crate::dist::Continuous;
use crate::error::StatsError;

/// A continuous distribution restricted to `[lo, hi]` and renormalized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Truncated<D> {
    inner: D,
    lo: f64,
    hi: f64,
    // Cached normalizer: F(hi) − F(lo).
    mass: f64,
    cdf_lo: f64,
}

impl<D: Continuous> Truncated<D> {
    /// Restrict `inner` to `[lo, hi]`; `hi` may be `f64::INFINITY`.
    ///
    /// Fails if the interval is empty or carries (numerically) zero mass
    /// under `inner`.
    pub fn new(inner: D, lo: f64, hi: f64) -> Result<Self, StatsError> {
        if !(hi > lo) {
            return Err(StatsError::BadParameter {
                name: "hi",
                value: hi,
                constraint: "must be > lo",
            });
        }
        let cdf_lo = inner.cdf(lo);
        let cdf_hi = if hi.is_finite() { inner.cdf(hi) } else { 1.0 };
        let mass = cdf_hi - cdf_lo;
        if !(mass > 1e-12) {
            return Err(StatsError::BadParameter {
                name: "mass",
                value: mass,
                constraint: "interval must carry positive probability",
            });
        }
        Ok(Truncated {
            inner,
            lo,
            hi,
            mass,
            cdf_lo,
        })
    }

    /// Restrict to the upper tail `[lo, ∞)`.
    pub(crate) fn above(inner: D, lo: f64) -> Result<Self, StatsError> {
        Truncated::new(inner, lo, f64::INFINITY)
    }

    /// Restrict to the body `(−∞, hi]` — for positive-support distributions
    /// this is `[0, hi]`.
    pub(crate) fn below(inner: D, hi: f64) -> Result<Self, StatsError> {
        Truncated::new(inner, f64::NEG_INFINITY, hi)
    }
}

impl<D: Continuous> Continuous for Truncated<D> {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            0.0
        } else {
            self.inner.pdf(x) / self.mass
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            ((self.inner.cdf(x) - self.cdf_lo) / self.mass).clamp(0.0, 1.0)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let q = self.inner.quantile(self.cdf_lo + p * self.mass);
        // Numerical safety: keep the variate inside the truncation window.
        q.clamp(self.lo.max(f64::MIN), self.hi)
    }

    fn mean(&self) -> Option<f64> {
        // No closed form in general; callers needing the truncated mean
        // should integrate numerically or use sample estimates.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::test_util::check_continuous_invariants;
    use crate::dist::{Lognormal, Weibull};

    #[test]
    fn rejects_empty_or_massless_interval() {
        let d = Lognormal::new(0.0, 1.0).unwrap();
        assert!(Truncated::new(d, 5.0, 5.0).is_err());
        assert!(Truncated::new(d, 5.0, 4.0).is_err());
        // An interval far in the tail carries ~zero mass.
        assert!(Truncated::new(d, 1e300, f64::INFINITY).is_err());
    }

    #[test]
    fn invariants_body() {
        // Paper Table A.3 body: Weibull on 0–45 s.
        let w = Weibull::new(1.477, 0.005252).unwrap();
        let body = Truncated::new(w, 0.0, 45.0).unwrap();
        check_continuous_invariants(&body, &[0.0, 1.0, 10.0, 30.0, 45.0, 60.0]);
        assert_eq!(body.cdf(45.0), 1.0);
        assert_eq!(body.cdf(0.0), 0.0);
    }

    #[test]
    fn invariants_tail() {
        // Paper Table A.3 tail: Lognormal above 45 s.
        let ln = Lognormal::new(5.091, 2.905).unwrap();
        let tail = Truncated::above(ln, 45.0).unwrap();
        check_continuous_invariants(&tail, &[45.0, 100.0, 1_000.0, 80_000.0]);
        assert_eq!(tail.cdf(45.0), 0.0);
        assert!(tail.quantile(0.0001) >= 45.0);
    }

    #[test]
    fn samples_stay_in_window() {
        use rand::SeedableRng;
        let ln = Lognormal::new(2.0, 1.5).unwrap();
        let t = Truncated::new(ln, 3.0, 50.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for x in t.sample_n(&mut rng, 5_000) {
            assert!((3.0..=50.0).contains(&x), "sample {x} escaped window");
        }
    }

    #[test]
    fn conditional_law_matches_bayes() {
        // For x in the window, truncated cdf = (F(x) − F(lo)) / (F(hi) − F(lo)).
        let ln = Lognormal::new(1.0, 1.0).unwrap();
        let t = Truncated::new(ln, 2.0, 20.0).unwrap();
        let expected = (ln.cdf(7.0) - ln.cdf(2.0)) / (ln.cdf(20.0) - ln.cdf(2.0));
        assert!((t.cdf(7.0) - expected).abs() < 1e-12);
    }
}
