//! Pareto distribution (type I), as used for the interarrival-time tail.
//!
//! Table A.4 gives the query-interarrival tail as Pareto with shape `α` and
//! location `β` (the paper's tail split point, 103 s):
//!
//! ```text
//! F(x) = 1 − (β / x)ᵅ,   x ≥ β.
//! ```

use crate::dist::Continuous;
use crate::error::StatsError;

/// Pareto type-I distribution with shape `alpha` and minimum `beta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    alpha: f64,
    beta: f64,
}

impl Pareto {
    /// Construct a Pareto; both parameters must be finite and positive.
    pub fn new(alpha: f64, beta: f64) -> Result<Self, StatsError> {
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(StatsError::BadParameter {
                name: "alpha",
                value: alpha,
                constraint: "must be finite and > 0",
            });
        }
        if !(beta.is_finite() && beta > 0.0) {
            return Err(StatsError::BadParameter {
                name: "beta",
                value: beta,
                constraint: "must be finite and > 0",
            });
        }
        Ok(Pareto { alpha, beta })
    }

    /// Shape parameter α (tail index).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Location (minimum) parameter β.
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl Continuous for Pareto {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.beta {
            return 0.0;
        }
        self.alpha * self.beta.powf(self.alpha) / x.powf(self.alpha + 1.0)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.beta {
            return 0.0;
        }
        1.0 - (self.beta / x).powf(self.alpha)
    }

    fn quantile(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return self.beta;
        }
        if p >= 1.0 {
            return f64::INFINITY;
        }
        self.beta / (1.0 - p).powf(1.0 / self.alpha)
    }

    fn mean(&self) -> Option<f64> {
        // Finite only for α > 1 — notably the paper's peak-period tail
        // (α = 0.9041 < 1) has an *infinite* mean, which is exactly the
        // "heavy tail" observation of Section 4.5.
        if self.alpha > 1.0 {
            Some(self.alpha * self.beta / (self.alpha - 1.0))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::test_util::check_continuous_invariants;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Pareto::new(0.0, 1.0).is_err());
        assert!(Pareto::new(1.0, 0.0).is_err());
        assert!(Pareto::new(f64::INFINITY, 1.0).is_err());
        assert!(Pareto::new(1.0, 1.0).is_ok());
    }

    #[test]
    fn invariants() {
        // Table A.4, non-peak: α = 1.143, β = 103.
        let d = Pareto::new(1.143, 103.0).unwrap();
        check_continuous_invariants(&d, &[103.0, 150.0, 500.0, 5_000.0, 50_000.0]);
    }

    #[test]
    fn support_starts_at_beta() {
        let d = Pareto::new(2.0, 10.0).unwrap();
        assert_eq!(d.cdf(9.9), 0.0);
        assert_eq!(d.pdf(5.0), 0.0);
        assert_eq!(d.quantile(0.0), 10.0);
        assert!(d.cdf(10.01) > 0.0);
    }

    #[test]
    fn peak_period_tail_has_infinite_mean() {
        // The paper's peak-period fit: α = 0.9041 < 1 ⇒ no finite mean.
        let d = Pareto::new(0.9041, 103.0).unwrap();
        assert!(d.mean().is_none());
        // Non-peak fit: α = 1.143 > 1 ⇒ finite mean.
        let d2 = Pareto::new(1.143, 103.0).unwrap();
        let m = d2.mean().unwrap();
        assert!((m - 1.143 * 103.0 / 0.143).abs() < 1e-6);
    }

    #[test]
    fn quantile_closed_form() {
        let d = Pareto::new(1.0, 100.0).unwrap();
        // F(x) = 1 − 100/x ⇒ q(0.5) = 200, q(0.9) = 1000.
        assert!((d.quantile(0.5) - 200.0).abs() < 1e-9);
        assert!((d.quantile(0.9) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn heavy_tail_ccdf_decays_polynomially() {
        let d = Pareto::new(0.9041, 103.0).unwrap();
        // ccdf(10β)/ccdf(β·10²) = 10^α.
        let r = d.ccdf(1030.0) / d.ccdf(10_300.0);
        assert!((r - 10f64.powf(0.9041)).abs() < 1e-6);
    }
}
