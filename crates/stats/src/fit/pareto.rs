//! Pareto tail-index fitting (Hill / conditional MLE).

use crate::dist::Pareto;
use crate::error::StatsError;

/// MLE of the Pareto shape given a known location `beta`
/// (`α̂ = n / Σ ln(xᵢ/β)`), the standard Hill estimator.
///
/// This matches the paper's procedure for Table A.4: the split point
/// (β = 103 s) is fixed by the body/tail partition and only the tail index
/// is estimated from the samples above it.
pub(crate) fn fit_pareto(samples: &[f64], beta: f64) -> Result<Pareto, StatsError> {
    if !(beta.is_finite() && beta > 0.0) {
        return Err(StatsError::BadParameter {
            name: "beta",
            value: beta,
            constraint: "must be finite and > 0",
        });
    }
    let mut sum_log = 0.0;
    let mut n = 0usize;
    for &x in samples {
        if !x.is_finite() {
            return Err(StatsError::BadSample {
                value: x,
                reason: "non-finite sample",
            });
        }
        if x < beta {
            return Err(StatsError::BadSample {
                value: x,
                reason: "sample below the Pareto location beta",
            });
        }
        // Guard the degenerate x == beta case (ln ratio = 0 contributes
        // nothing but is legal).
        sum_log += (x / beta).ln();
        n += 1;
    }
    if n < 2 {
        return Err(StatsError::NotEnoughData { needed: 2, got: n });
    }
    if sum_log <= 0.0 {
        return Err(StatsError::BadSample {
            value: sum_log,
            reason: "all samples equal beta; alpha undefined",
        });
    }
    Pareto::new(n as f64 / sum_log, beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Continuous;
    use rand::SeedableRng;

    #[test]
    fn recovers_paper_tail_index() {
        // Table A.4 peak: α = 0.9041, β = 103.
        let truth = Pareto::new(0.9041, 103.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        let xs = truth.sample_n(&mut rng, 50_000);
        let fitted = fit_pareto(&xs, 103.0).unwrap();
        assert!(
            (fitted.alpha() - 0.9041).abs() < 0.02,
            "alpha = {}",
            fitted.alpha()
        );
        assert_eq!(fitted.beta(), 103.0);
    }

    #[test]
    fn recovers_non_peak_index() {
        let truth = Pareto::new(1.143, 103.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let xs = truth.sample_n(&mut rng, 50_000);
        let fitted = fit_pareto(&xs, 103.0).unwrap();
        assert!((fitted.alpha() - 1.143).abs() < 0.02);
    }

    #[test]
    fn rejects_samples_below_beta() {
        assert!(fit_pareto(&[50.0, 200.0], 103.0).is_err());
    }

    #[test]
    fn rejects_degenerate() {
        assert!(fit_pareto(&[103.0], 103.0).is_err()); // too few
        assert!(fit_pareto(&[103.0, 103.0], 103.0).is_err()); // zero log-sum
        assert!(fit_pareto(&[200.0, f64::NAN], 103.0).is_err());
        assert!(fit_pareto(&[200.0, 300.0], 0.0).is_err());
    }
}
