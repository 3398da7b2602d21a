//! Lognormal distribution.
//!
//! Parameterized as in the paper's appendix tables: if `X ~ Lognormal(μ, σ)`
//! then `ln X ~ Normal(μ, σ²)`. The paper uses this for passive session
//! durations (as the body and tail of a bimodal composite), the number of
//! queries per active session, the tail of the time-until-first-query model,
//! the body of the interarrival model, and the time after the last query.

use crate::dist::Continuous;
use crate::error::StatsError;
use crate::special::{norm_cdf, norm_quantile};

/// Lognormal distribution with log-mean `mu` and log-std-dev `sigma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lognormal {
    mu: f64,
    sigma: f64,
}

impl Lognormal {
    /// Create a lognormal; `sigma` must be strictly positive and both
    /// parameters finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, StatsError> {
        if !mu.is_finite() {
            return Err(StatsError::BadParameter {
                name: "mu",
                value: mu,
                constraint: "must be finite",
            });
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(StatsError::BadParameter {
                name: "sigma",
                value: sigma,
                constraint: "must be finite and > 0",
            });
        }
        Ok(Lognormal { mu, sigma })
    }

    /// Log-mean μ.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-standard-deviation σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Continuous for Lognormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        norm_cdf((x.ln() - self.mu) / self.sigma)
    }

    fn quantile(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return f64::INFINITY;
        }
        (self.mu + self.sigma * norm_quantile(p)).exp()
    }

    fn mean(&self) -> Option<f64> {
        Some((self.mu + 0.5 * self.sigma * self.sigma).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::test_util::check_continuous_invariants;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Lognormal::new(0.0, 0.0).is_err());
        assert!(Lognormal::new(0.0, -1.0).is_err());
        assert!(Lognormal::new(f64::NAN, 1.0).is_err());
        assert!(Lognormal::new(0.0, f64::INFINITY).is_err());
        assert!(Lognormal::new(0.0, 1.0).is_ok());
    }

    #[test]
    fn invariants() {
        let d = Lognormal::new(1.0, 0.8).unwrap();
        check_continuous_invariants(&d, &[0.01, 0.1, 1.0, 2.7, 10.0, 100.0]);
    }

    #[test]
    fn support_is_positive() {
        let d = Lognormal::new(0.0, 1.0).unwrap();
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.cdf(-5.0), 0.0);
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.quantile(0.0), 0.0);
    }

    #[test]
    fn median_and_mean() {
        let d = Lognormal::new(2.0, 0.5).unwrap();
        // The median is e^μ.
        let median = 2.0f64.exp();
        assert!((d.quantile(0.5) - median).abs() < 1e-9 * median);
        assert!((d.mean().unwrap() - (2.0f64 + 0.125).exp()).abs() < 1e-9);
    }

    #[test]
    fn sample_statistics_match_moments() {
        // Paper Table A.2 North America: σ = 1.360, μ = −0.0673.
        let d = Lognormal::new(-0.0673, 1.360).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let xs = d.sample_n(&mut rng, 200_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let expect = d.mean().unwrap();
        assert!(
            (mean - expect).abs() / expect < 0.03,
            "sample mean {mean} vs analytic {expect}"
        );
        // Median check — tighter, robust to the heavy tail.
        let mut sorted = xs;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = sorted[sorted.len() / 2];
        let median = d.mu().exp();
        assert!((med - median).abs() / median < 0.02);
    }

    #[test]
    fn paper_table_a5_tail_probability() {
        // Table A.5, NA peak, >7 queries: σ = 2.145, μ = 6.107.
        // Figure 9(a) reports ≈20% of sessions with time-after-last-query
        // > 1000 s for NA; the >7-query class should exceed that.
        let d = Lognormal::new(6.107, 2.145).unwrap();
        let p = d.ccdf(1000.0);
        assert!(p > 0.3 && p < 0.8, "ccdf(1000) = {p}");
    }
}
