//! Weibull distribution, in the paper's parameterization.
//!
//! Table A.3 gives time-until-first-query bodies as Weibull with shape `α`
//! and rate-like parameter `λ`, i.e.
//!
//! ```text
//! F(x) = 1 − exp(−λ xᵅ),   x ≥ 0.
//! ```
//!
//! The conventional scale parameterization `F(x) = 1 − exp(−(x/s)ᵅ)` relates
//! by `s = λ^(−1/α)`.

use crate::dist::Continuous;
use crate::error::StatsError;
use crate::special::ln_gamma;

/// Weibull distribution with shape `alpha` and rate `lambda`
/// (`F(x) = 1 − exp(−λ xᵅ)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    alpha: f64,
    lambda: f64,
}

impl Weibull {
    /// Construct from the paper's (shape `α`, rate `λ`) parameters.
    pub fn new(alpha: f64, lambda: f64) -> Result<Self, StatsError> {
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(StatsError::BadParameter {
                name: "alpha",
                value: alpha,
                constraint: "must be finite and > 0",
            });
        }
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(StatsError::BadParameter {
                name: "lambda",
                value: lambda,
                constraint: "must be finite and > 0",
            });
        }
        Ok(Weibull { alpha, lambda })
    }

    /// Shape parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Rate parameter λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Conventional scale parameter `s = λ^(−1/α)`.
    pub(crate) fn scale(&self) -> f64 {
        self.lambda.powf(-1.0 / self.alpha)
    }
}

impl Continuous for Weibull {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if x == 0.0 {
            // Density at the origin: finite only for α ≥ 1.
            return if self.alpha > 1.0 {
                0.0
            } else if self.alpha == 1.0 {
                self.lambda
            } else {
                f64::INFINITY
            };
        }
        self.lambda
            * self.alpha
            * x.powf(self.alpha - 1.0)
            * (-self.lambda * x.powf(self.alpha)).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        1.0 - (-self.lambda * x.powf(self.alpha)).exp()
    }

    fn quantile(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return f64::INFINITY;
        }
        (-(1.0 - p).ln() / self.lambda).powf(1.0 / self.alpha)
    }

    fn mean(&self) -> Option<f64> {
        // E[X] = s Γ(1 + 1/α) with s the conventional scale.
        Some(self.scale() * (ln_gamma(1.0 + 1.0 / self.alpha)).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::test_util::check_continuous_invariants;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, 0.0).is_err());
        assert!(Weibull::new(-1.0, 1.0).is_err());
        assert!(Weibull::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn invariants() {
        let d = Weibull::new(1.477, 0.005252).unwrap(); // Table A.3, NA peak, <3 queries.
        check_continuous_invariants(&d, &[0.1, 1.0, 10.0, 45.0, 100.0]);
    }

    #[test]
    fn shape_scale_round_trip() {
        // λ = s^(−α): α = 2, λ = 0.01 is scale 10.
        let d = Weibull::new(2.0, 0.01).unwrap();
        assert!((d.scale() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_special_case() {
        // α = 1 reduces to Exponential(λ): median = ln 2 / λ.
        let d = Weibull::new(1.0, 0.5).unwrap();
        assert!((d.quantile(0.5) - 2.0 * std::f64::consts::LN_2).abs() < 1e-9);
        assert!((d.mean().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn paper_body_covers_expected_mass() {
        // Table A.3, NA peak, <3 queries: body spans 0–45 s. The fitted body
        // should put most of its mass below 45 s.
        let d = Weibull::new(1.477, 0.005252).unwrap();
        let c = d.cdf(45.0);
        assert!(c > 0.6, "cdf(45) = {c}, body should be mostly below 45 s");
    }

    #[test]
    fn sample_mean_matches_analytic() {
        let d = Weibull::new(1.5, 0.02).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let xs = d.sample_n(&mut rng, 100_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let expect = d.mean().unwrap();
        assert!((mean - expect).abs() / expect < 0.02);
    }
}
