//! Analytic probability distributions.
//!
//! All continuous distributions implement [`Continuous`], which provides
//! `pdf`, `cdf`, `ccdf`, `quantile`, `mean` and sampling. Sampling is
//! defined in terms of the quantile function (inverse-CDF method), so a
//! single `f64` uniform draw produces one variate; this makes streams
//! reproducible and lets property tests verify `cdf(quantile(p)) ≈ p`
//! directly.
//!
//! The paper's appendix models are composites of these primitives:
//!
//! * passive session duration — [`BodyTail`] of two [`Lognormal`]s
//!   (Table A.1);
//! * queries per active session — [`Lognormal`], discretized by the caller
//!   (Table A.2);
//! * time until first query — [`BodyTail`] of [`Weibull`] body and
//!   [`Lognormal`] tail (Table A.3);
//! * query interarrival time — [`BodyTail`] of [`Lognormal`] body and
//!   [`Pareto`] tail (Table A.4);
//! * time after last query — [`Lognormal`] (Table A.5);
//! * query popularity — [`Zipf`] / [`TwoPieceZipf`] (Figure 11).

mod bimodal;
mod lognormal;
mod pareto;
mod truncated;
mod weibull;
mod zipf;

pub use bimodal::BodyTail;
pub use lognormal::Lognormal;
pub use pareto::Pareto;
pub use truncated::Truncated;
pub use weibull::Weibull;
pub use zipf::{TwoPieceZipf, Zipf};

use rand::Rng;

/// A continuous, real-valued probability distribution.
pub trait Continuous {
    /// Probability density function at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function `P[X ≤ x]`.
    fn cdf(&self, x: f64) -> f64;

    /// Complementary CDF `P[X > x]` (the paper plots CCDFs throughout).
    fn ccdf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }

    /// Quantile (inverse CDF) for `p ∈ [0, 1]`.
    fn quantile(&self, p: f64) -> f64;

    /// Distribution mean, if finite.
    fn mean(&self) -> Option<f64>;

    /// Draw one variate by inverse-CDF sampling.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // `gen` yields u ∈ [0, 1); nudge away from exact 0 so distributions
        // with infinite left support never return −∞.
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        self.quantile(u)
    }

    /// Draw `n` variates.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// A discrete distribution over ranks / non-negative integers.
pub trait Discrete {
    /// Probability mass at `k`.
    fn pmf(&self, k: u64) -> f64;

    /// Cumulative probability `P[K ≤ k]`.
    fn cdf(&self, k: u64) -> f64;

    /// Draw one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64;

    /// Mean, if finite.
    fn mean(&self) -> Option<f64>;
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::Continuous;

    /// Shared invariant battery every continuous distribution must pass.
    pub(crate) fn check_continuous_invariants<D: Continuous>(dist: &D, probe_points: &[f64]) {
        // CDF is monotone nondecreasing over the probes.
        let mut prev = f64::NEG_INFINITY;
        let mut sorted = probe_points.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &x in &sorted {
            let c = dist.cdf(x);
            assert!(
                (0.0..=1.0 + 1e-12).contains(&c),
                "cdf({x}) = {c} out of range"
            );
            assert!(c >= prev - 1e-12, "cdf not monotone at {x}: {c} < {prev}");
            prev = c;
            // CCDF complements CDF.
            assert!((dist.ccdf(x) - (1.0 - c)).abs() < 1e-9);
            // pdf is non-negative.
            assert!(dist.pdf(x) >= 0.0, "pdf({x}) negative");
        }
        // Quantile inverts CDF on the open interval.
        for p in [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let x = dist.quantile(p);
            let c = dist.cdf(x);
            assert!(
                (c - p).abs() < 1e-6,
                "cdf(quantile({p})) = {c}, expected {p}"
            );
        }
    }
}
