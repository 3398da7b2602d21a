//! Property tests for the statistics substrate.

use proptest::prelude::*;
use stats::dist::{Continuous, Lognormal, Pareto, Truncated, Weibull};
use stats::histogram::Histogram;
use stats::rank::top_k;
use stats::rng::SeedSequence;
use stats::Ecdf;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    // ---- distribution laws --------------------------------------------

    #[test]
    fn lognormal_ccdf_complements_cdf(mu in -4.0f64..6.0, sigma in 0.1f64..3.5, x in 0.0f64..1e6) {
        let d = Lognormal::new(mu, sigma).unwrap();
        prop_assert!((d.cdf(x) + d.ccdf(x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pareto_tail_ratio_is_power_law(alpha in 0.2f64..4.0, beta in 1.0f64..500.0, k in 1.5f64..20.0) {
        let d = Pareto::new(alpha, beta).unwrap();
        let x = beta * 2.0;
        let ratio = d.ccdf(x) / d.ccdf(x * k);
        prop_assert!((ratio - k.powf(alpha)).abs() < 1e-6 * ratio.max(1.0));
    }

    #[test]
    fn truncated_stays_in_window(
        mu in 0.0f64..5.0,
        sigma in 0.3f64..2.5,
        lo in 1.0f64..50.0,
        width in 10.0f64..1000.0,
        p in 0.0f64..1.0,
    ) {
        let d = Lognormal::new(mu, sigma).unwrap();
        if let Ok(t) = Truncated::new(d, lo, lo + width) {
            let q = t.quantile(p);
            prop_assert!(q >= lo - 1e-9 && q <= lo + width + 1e-9, "q = {q}");
            prop_assert!(t.cdf(lo) == 0.0);
            prop_assert!((t.cdf(lo + width) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn weibull_cdf_monotone(alpha in 0.2f64..5.0, lambda in 1e-5f64..1.0, a in 0.0f64..1e4, b in 0.0f64..1e4) {
        let d = Weibull::new(alpha, lambda).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(d.cdf(lo) <= d.cdf(hi) + 1e-12);
    }

    // ---- empirical structures -----------------------------------------

    #[test]
    fn ecdf_bounds_and_monotonicity(mut xs in proptest::collection::vec(-1e4f64..1e4, 1..200)) {
        let e = Ecdf::new(xs.clone()).unwrap();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(e.ccdf(xs[0] - 1.0), 1.0);
        prop_assert_eq!(e.ccdf(xs[xs.len() - 1]), 0.0);
        // The CCDF never rises between consecutive samples.
        for w in xs.windows(2) {
            prop_assert!(e.ccdf(w[1]) <= e.ccdf(w[0]));
        }
    }

    #[test]
    fn histogram_conserves_observations(xs in proptest::collection::vec(-50.0f64..150.0, 0..300)) {
        let mut h = Histogram::new(0.0, 100.0, 10).unwrap();
        for &x in &xs {
            h.add(x);
        }
        let (under, over) = h.out_of_range();
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(binned + under + over, xs.len() as u64);
        prop_assert_eq!(h.total(), xs.len() as u64);
    }

    // ---- ranking --------------------------------------------------------

    /// Selection then a sort of the top `k` ranks exactly as a stable full
    /// sort by descending score does, ties included: the scores come from
    /// a handful of values, with −0.0 and +0.0 among them.
    #[test]
    fn top_k_matches_stable_full_sort(
        levels in proptest::collection::vec(0u8..6, 0..300),
        k in 0usize..320,
    ) {
        let scores: Vec<f64> = levels
            .iter()
            .map(|&l| match l {
                0 => -0.0,
                1 => 0.0,
                l => f64::from(l) * 0.75 - 2.0,
            })
            .collect();
        let mut reference: Vec<u32> = (0..scores.len() as u32).collect();
        reference.sort_by(|&a, &b| scores[b as usize].partial_cmp(&scores[a as usize]).unwrap());
        reference.truncate(k);
        prop_assert_eq!(top_k(&scores, k), reference);
    }

    // ---- RNG plumbing ---------------------------------------------------

    #[test]
    fn seed_sequence_deterministic_and_label_sensitive(root in any::<u64>(), label in "[a-z]{1,12}") {
        let a = SeedSequence::new(root);
        let b = SeedSequence::new(root);
        prop_assert_eq!(a.derive_seed(&label), b.derive_seed(&label));
        // A different label yields a different seed (collisions are 2^-64).
        let other = format!("{label}x");
        prop_assert_ne!(a.derive_seed(&label), a.derive_seed(&other));
    }
}
