//! Kolmogorov–Smirnov goodness-of-fit tests.
//!
//! Used to (a) validate that fitted appendix models reproduce the measured
//! CCDFs and (b) quantify the distance between generated and measured
//! workloads in the ablation benches.

use crate::dist::Continuous;
use crate::error::StatsError;

/// Result of a KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// Supremum distance between the two CDFs.
    pub statistic: f64,
    /// Asymptotic p-value (Kolmogorov distribution).
    pub(crate) p_value: f64,
    /// Effective sample size used for the p-value.
    pub(crate) n_effective: f64,
}

/// One-sample KS test of `samples` against an analytic distribution.
pub fn ks_one_sample<D: Continuous>(samples: &[f64], dist: &D) -> Result<KsResult, StatsError> {
    let mut xs: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in xs.iter().enumerate() {
        let f = dist.cdf(x);
        let lo = i as f64 / n;
        let hi = (i as f64 + 1.0) / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    Ok(KsResult {
        statistic: d,
        p_value: kolmogorov_sf(d * (n.sqrt() + 0.12 + 0.11 / n.sqrt())),
        n_effective: n,
    })
}

/// Two-sample KS test.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> Result<KsResult, StatsError> {
    let mut xa: Vec<f64> = a.iter().copied().filter(|x| x.is_finite()).collect();
    let mut xb: Vec<f64> = b.iter().copied().filter(|x| x.is_finite()).collect();
    if xa.is_empty() || xb.is_empty() {
        return Err(StatsError::NotEnoughData {
            needed: 1,
            got: xa.len().min(xb.len()),
        });
    }
    xa.sort_by(|p, q| p.partial_cmp(q).unwrap());
    xb.sort_by(|p, q| p.partial_cmp(q).unwrap());
    let (na, nb) = (xa.len() as f64, xb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d = 0.0f64;
    while i < xa.len() && j < xb.len() {
        let x = xa[i].min(xb[j]);
        while i < xa.len() && xa[i] <= x {
            i += 1;
        }
        while j < xb.len() && xb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    let ne = na * nb / (na + nb);
    Ok(KsResult {
        statistic: d,
        p_value: kolmogorov_sf(d * (ne.sqrt() + 0.12 + 0.11 / ne.sqrt())),
        n_effective: ne,
    })
}

/// Survival function of the Kolmogorov distribution,
/// `Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^(−2k²λ²)`.
fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Continuous, Lognormal, Weibull};
    use rand::SeedableRng;

    #[test]
    fn matching_distribution_accepted() {
        let d = Lognormal::new(1.0, 0.8).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let xs = d.sample_n(&mut rng, 5_000);
        let r = ks_one_sample(&xs, &d).unwrap();
        assert!(r.statistic < 0.03, "D = {}", r.statistic);
        assert!(r.p_value > 0.01, "p = {}", r.p_value);
    }

    #[test]
    fn mismatched_distribution_rejected() {
        let d = Lognormal::new(1.0, 0.8).unwrap();
        // Weibull with α = 1 is the exponential law with rate λ.
        let wrong = Weibull::new(1.0, 0.5).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let xs = d.sample_n(&mut rng, 5_000);
        let r = ks_one_sample(&xs, &wrong).unwrap();
        assert!(r.statistic > 0.05);
        assert!(r.p_value < 1e-6);
    }

    #[test]
    fn two_sample_same_source() {
        let d = Lognormal::new(0.0, 1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let a = d.sample_n(&mut rng, 3_000);
        let b = d.sample_n(&mut rng, 3_000);
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.p_value > 0.01, "p = {}", r.p_value);
    }

    #[test]
    fn two_sample_different_sources() {
        let d1 = Lognormal::new(0.0, 1.0).unwrap();
        let d2 = Lognormal::new(0.5, 1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let a = d1.sample_n(&mut rng, 3_000);
        let b = d2.sample_n(&mut rng, 3_000);
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
    }

    #[test]
    fn rejects_empty() {
        let d = Weibull::new(1.0, 1.0).unwrap();
        assert!(ks_one_sample(&[], &d).is_err());
        assert!(ks_two_sample(&[1.0], &[]).is_err());
    }

    #[test]
    fn kolmogorov_sf_bounds() {
        assert_eq!(kolmogorov_sf(0.0), 1.0);
        assert!(kolmogorov_sf(0.5) > 0.9);
        assert!(kolmogorov_sf(2.0) < 0.001);
    }
}
