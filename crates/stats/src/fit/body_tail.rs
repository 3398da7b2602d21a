//! Split-fit of the paper's body‖tail bimodal models.
//!
//! The appendix reports, for each measure, a split point, the body weight,
//! and a fitted model on each side (each side fitted on the samples falling
//! in its half, i.e. the conditional law). [`fit_body_tail`] reproduces
//! that recipe generically: partition at the split, compute the weight, and
//! fit each side with a caller-supplied family.

use crate::dist::{Lognormal, Pareto, Weibull};
use crate::error::StatsError;
use crate::fit::{fit_lognormal_truncated, fit_pareto, fit_weibull};

/// Which analytic family to fit on a side of the split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Lognormal(μ, σ).
    Lognormal,
    /// Weibull(α, λ) in the paper's rate form.
    Weibull,
    /// Pareto(α, β) with β fixed to the split point.
    Pareto,
}

/// A fitted side (body or tail) of a bimodal model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SideFit {
    /// Fitted lognormal.
    Lognormal(Lognormal),
    /// Fitted Weibull.
    Weibull(Weibull),
    /// Fitted Pareto.
    Pareto(Pareto),
}

impl SideFit {
    /// Short human-readable parameter string, matching the appendix style.
    pub fn describe(&self) -> String {
        match self {
            SideFit::Lognormal(d) => format!("Lognormal σ = {:.4} µ = {:.4}", d.sigma(), d.mu()),
            SideFit::Weibull(d) => format!("Weibull α = {:.4} λ = {:.6}", d.alpha(), d.lambda()),
            SideFit::Pareto(d) => format!("Pareto α = {:.4} β = {:.1}", d.alpha(), d.beta()),
        }
    }
}

/// Result of a body‖tail split fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BodyTailFit {
    /// The split point used.
    pub split: f64,
    /// Fraction of samples below the split.
    pub body_weight: f64,
    /// Fit of the body side.
    pub body: SideFit,
    /// Fit of the tail side.
    pub tail: SideFit,
    /// Samples in the body / tail.
    pub n_body: usize,
    /// Number of tail samples.
    pub n_tail: usize,
}

/// Partition `samples` at `split`, compute the body weight, and fit each
/// side with the requested family. For a Pareto tail the location is fixed
/// to the split point (the paper's Table A.4 convention, β = 103).
pub fn fit_body_tail(
    samples: &[f64],
    split: f64,
    body_family: Family,
    tail_family: Family,
) -> Result<BodyTailFit, StatsError> {
    if !split.is_finite() || split <= 0.0 {
        return Err(StatsError::BadParameter {
            name: "split",
            value: split,
            constraint: "must be finite and > 0",
        });
    }
    let mut body = Vec::new();
    let mut tail = Vec::new();
    for &x in samples {
        if !x.is_finite() || x <= 0.0 {
            return Err(StatsError::BadSample {
                value: x,
                reason: "body/tail fit requires positive finite samples",
            });
        }
        if x < split {
            body.push(x);
        } else {
            tail.push(x);
        }
    }
    let n = body.len() + tail.len();
    if n < 4 {
        return Err(StatsError::NotEnoughData { needed: 4, got: n });
    }
    let body_fit = fit_family(&body, body_family, split, Side::Body)?;
    let tail_fit = fit_family(&tail, tail_family, split, Side::Tail)?;
    Ok(BodyTailFit {
        split,
        body_weight: body.len() as f64 / n as f64,
        body: body_fit,
        tail: tail_fit,
        n_body: body.len(),
        n_tail: tail.len(),
    })
}

#[derive(Clone, Copy)]
enum Side {
    Body,
    Tail,
}

fn fit_family(
    samples: &[f64],
    family: Family,
    split: f64,
    side: Side,
) -> Result<SideFit, StatsError> {
    match family {
        // Lognormal sides are fitted with the truncation window inverted,
        // so the reported parameters describe the *untruncated* component
        // (the appendix-table convention).
        Family::Lognormal => {
            let (lo, hi) = match side {
                Side::Body => (None, Some(split)),
                Side::Tail => (Some(split), None),
            };
            Ok(SideFit::Lognormal(fit_lognormal_truncated(
                samples, lo, hi,
            )?))
        }
        Family::Weibull => Ok(SideFit::Weibull(fit_weibull(samples)?)),
        Family::Pareto => Ok(SideFit::Pareto(fit_pareto(samples, split)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{BodyTail, Continuous};
    use rand::SeedableRng;

    #[test]
    fn recovers_table_a4_structure() {
        // Ground truth: Table A.4 peak model — Lognormal(3.353, 1.625) body
        // below 103 s (weight 0.8), Pareto(0.9041, 103) tail.
        let truth = BodyTail::new(
            Lognormal::new(3.353, 1.625).unwrap(),
            Pareto::new(0.9041, 103.0).unwrap(),
            103.0,
            0.8,
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let xs = truth.sample_n(&mut rng, 60_000);
        let fit = fit_body_tail(&xs, 103.0, Family::Lognormal, Family::Pareto).unwrap();

        assert!(
            (fit.body_weight - 0.8).abs() < 0.01,
            "w = {}",
            fit.body_weight
        );
        match fit.tail {
            SideFit::Pareto(p) => {
                assert!((p.alpha() - 0.9041).abs() < 0.05, "alpha = {}", p.alpha());
                assert_eq!(p.beta(), 103.0);
            }
            other => panic!("expected Pareto tail, got {other:?}"),
        }
        // The truncation-aware body fit recovers the generating component.
        match fit.body {
            SideFit::Lognormal(l) => {
                assert!((l.mu() - 3.353).abs() < 0.15, "body mu {}", l.mu());
                assert!((l.sigma() - 1.625).abs() < 0.12, "body sigma {}", l.sigma());
            }
            other => panic!("expected lognormal body, got {other:?}"),
        }
    }

    #[test]
    fn recovers_weibull_body() {
        // Table A.3-style model: Weibull body below 45 s, lognormal tail.
        let truth = BodyTail::new(
            Weibull::new(1.477, 0.005252).unwrap(),
            Lognormal::new(5.091, 2.905).unwrap(),
            45.0,
            0.5,
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let xs = truth.sample_n(&mut rng, 60_000);
        let fit = fit_body_tail(&xs, 45.0, Family::Weibull, Family::Lognormal).unwrap();
        assert!((fit.body_weight - 0.5).abs() < 0.01);
        match fit.body {
            SideFit::Weibull(w) => {
                // Truncation biases the shape upward slightly; allow slack.
                assert!(w.alpha() > 1.0 && w.alpha() < 2.5, "alpha = {}", w.alpha());
            }
            other => panic!("expected Weibull body, got {other:?}"),
        }
    }

    #[test]
    fn describe_strings() {
        let l = SideFit::Lognormal(Lognormal::new(2.108, 2.502).unwrap());
        assert!(l.describe().contains("Lognormal"));
        let w = SideFit::Weibull(Weibull::new(1.477, 0.005252).unwrap());
        assert!(w.describe().contains("Weibull"));
        let p = SideFit::Pareto(Pareto::new(0.9041, 103.0).unwrap());
        assert!(p.describe().contains("Pareto"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(
            fit_body_tail(&[1.0, 2.0, 3.0], 0.0, Family::Lognormal, Family::Lognormal).is_err()
        );
        assert!(fit_body_tail(
            &[1.0, -2.0, 3.0, 4.0],
            2.0,
            Family::Lognormal,
            Family::Lognormal
        )
        .is_err());
        assert!(fit_body_tail(&[1.0, 2.0], 1.5, Family::Lognormal, Family::Lognormal).is_err());
    }
}
