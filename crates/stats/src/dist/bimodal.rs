//! Body‖tail bimodal composite distributions.
//!
//! Every appendix model in the paper has the form
//!
//! > Body: x < s (weight w) — distribution B; Tail: x ≥ s (weight 1 − w) —
//! > distribution T
//!
//! e.g. Table A.1 "Body: 1–2 minutes (75%) Lognormal …, Tail: > 2 minutes
//! (25%) Lognormal …". [`BodyTail`] composes two [`Continuous`]
//! distributions, truncating the body below the split and the tail above it,
//! and mixing with the body weight.

use crate::dist::{Continuous, Truncated};
use crate::error::StatsError;

/// Mixture of a body distribution (below `split`) and a tail distribution
/// (above `split`), with `body_weight` probability of drawing from the body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BodyTail<B, T> {
    body: Truncated<B>,
    tail: Truncated<T>,
    split: f64,
    body_weight: f64,
}

impl<B: Continuous, T: Continuous> BodyTail<B, T> {
    /// Compose `body` (restricted to `(−∞, split]`) and `tail` (restricted to
    /// `[split, ∞)`) with mixing weight `body_weight ∈ (0, 1)` on the body.
    pub fn new(body: B, tail: T, split: f64, body_weight: f64) -> Result<Self, StatsError> {
        if !(0.0..=1.0).contains(&body_weight) {
            return Err(StatsError::BadParameter {
                name: "body_weight",
                value: body_weight,
                constraint: "must lie in [0, 1]",
            });
        }
        if !split.is_finite() {
            return Err(StatsError::BadParameter {
                name: "split",
                value: split,
                constraint: "must be finite",
            });
        }
        Ok(BodyTail {
            body: Truncated::below(body, split)?,
            tail: Truncated::above(tail, split)?,
            split,
            body_weight,
        })
    }
}

impl<B: Continuous, T: Continuous> Continuous for BodyTail<B, T> {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.split {
            self.body_weight * self.body.pdf(x)
        } else {
            (1.0 - self.body_weight) * self.tail.pdf(x)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.split {
            self.body_weight * self.body.cdf(x)
        } else {
            self.body_weight + (1.0 - self.body_weight) * self.tail.cdf(x)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if p <= self.body_weight && self.body_weight > 0.0 {
            self.body.quantile(p / self.body_weight)
        } else {
            self.tail
                .quantile((p - self.body_weight) / (1.0 - self.body_weight))
        }
    }

    fn mean(&self) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::test_util::check_continuous_invariants;
    use crate::dist::{Lognormal, Pareto, Weibull};
    use rand::SeedableRng;

    /// Table A.1, peak period: 75% body Lognormal(2.108, 2.502) below 2 min
    /// (durations in seconds in our convention → split = 120 s), 25% tail
    /// Lognormal(6.397, 2.749).
    fn table_a1_peak() -> BodyTail<Lognormal, Lognormal> {
        BodyTail::new(
            Lognormal::new(2.108, 2.502).unwrap(),
            Lognormal::new(6.397, 2.749).unwrap(),
            120.0,
            0.75,
        )
        .unwrap()
    }

    #[test]
    fn rejects_bad_weight() {
        let b = Lognormal::new(0.0, 1.0).unwrap();
        let t = Lognormal::new(2.0, 1.0).unwrap();
        assert!(BodyTail::new(b, t, 10.0, -0.1).is_err());
        assert!(BodyTail::new(b, t, 10.0, 1.1).is_err());
        assert!(BodyTail::new(b, t, f64::NAN, 0.5).is_err());
    }

    #[test]
    fn invariants() {
        let d = table_a1_peak();
        check_continuous_invariants(&d, &[1.0, 30.0, 119.0, 120.0, 600.0, 100_000.0]);
    }

    #[test]
    fn cdf_hits_body_weight_at_split() {
        let d = table_a1_peak();
        assert!((d.cdf(120.0) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn sample_split_fraction_matches_weight() {
        let d = table_a1_peak();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let xs = d.sample_n(&mut rng, 50_000);
        let frac_body = xs.iter().filter(|&&x| x < 120.0).count() as f64 / xs.len() as f64;
        assert!(
            (frac_body - 0.75).abs() < 0.01,
            "body fraction {frac_body} vs 0.75"
        );
    }

    #[test]
    fn weibull_lognormal_composite() {
        // Table A.3 NA peak, <3 queries.
        let d = BodyTail::new(
            Weibull::new(1.477, 0.005252).unwrap(),
            Lognormal::new(5.091, 2.905).unwrap(),
            45.0,
            0.5,
        )
        .unwrap();
        check_continuous_invariants(&d, &[0.5, 10.0, 44.0, 45.0, 200.0, 80_000.0]);
    }

    #[test]
    fn lognormal_pareto_composite_heavy_tail() {
        // Table A.4 peak: Lognormal(3.353, 1.625) body ≤ 103 s,
        // Pareto(0.9041, 103) tail. The paper reports ~70–90% of
        // interarrivals below ~100 s depending on region.
        let d = BodyTail::new(
            Lognormal::new(3.353, 1.625).unwrap(),
            Pareto::new(0.9041, 103.0).unwrap(),
            103.0,
            0.7,
        )
        .unwrap();
        assert!((d.cdf(103.0) - 0.7).abs() < 1e-9);
        // Pareto tail decays polynomially: ccdf(1030)/ccdf(10300) = 10^α.
        let r = d.ccdf(1030.0) / d.ccdf(10_300.0);
        assert!((r - 10f64.powf(0.9041)).abs() < 1e-6);
    }

    #[test]
    fn degenerate_weights() {
        let b = Lognormal::new(0.0, 1.0).unwrap();
        let t = Lognormal::new(3.0, 1.0).unwrap();
        // All mass in the tail.
        let d = BodyTail::new(b, t, 5.0, 0.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for x in d.sample_n(&mut rng, 500) {
            assert!(x >= 5.0);
        }
        // All mass in the body.
        let d = BodyTail::new(b, t, 5.0, 1.0).unwrap();
        for x in d.sample_n(&mut rng, 500) {
            assert!(x <= 5.0);
        }
    }
}
