//! Zipf-like rank distributions.
//!
//! Query popularity in the paper follows a Zipf-like law per day and per
//! geographic query class: `p(r) ∝ r^(−α)` over ranks `1..=n`, with the
//! paper's fitted exponents αNA = 0.386, αE = 0.223 (Figure 11 a, b). The
//! NA∩EU intersection class has a *flattened head* fit by two pieces
//! (α = 0.453 for ranks 1–45, α = 4.67 for ranks 46–100, Figure 11 c) —
//! [`TwoPieceZipf`] implements that.

use crate::dist::Discrete;
use crate::error::StatsError;
use rand::Rng;

/// Chen–Asau guide table over a cumulative table of `n` entries:
/// `guide[j]` is the first index with `cum ≥ j/n`, so a draw `u` starts
/// its search at `guide[⌊u·n⌋]` and is a step or two from its rank.
fn build_guide(cum: &[f64]) -> Vec<u32> {
    let n = cum.len();
    let mut i = 0;
    (0..n)
        .map(|j| {
            let at = j as f64 / n as f64;
            while i + 1 < n && cum[i] < at {
                i += 1;
            }
            i as u32
        })
        .collect()
}

/// Index of the rank a uniform draw `u` picks: the binary search's first
/// index with `cum ≥ u` (clamped to the last entry), any matching index
/// when `u` equals an entry.
fn search_rank(cum: &[f64], u: f64) -> usize {
    match cum.binary_search_by(|c| c.partial_cmp(&u).expect("no NaN in draws or tables")) {
        Ok(i) => i,
        Err(i) => i.min(cum.len() - 1),
    }
}

/// [`search_rank`] in expected O(1) steps through the guide table. Float
/// rounding in `⌊u·n⌋` can overshoot by a step, so the walk first steps
/// back. A draw equal to a table entry defers to the binary search, whose
/// pick within a run of equal entries is the rank these laws have always
/// drawn.
fn guided_rank(cum: &[f64], guide: &[u32], u: f64) -> usize {
    let n = cum.len();
    let mut i = guide[((u * n as f64) as usize).min(n - 1)] as usize;
    while i > 0 && cum[i - 1] >= u {
        i -= 1;
    }
    while i + 1 < n && cum[i] < u {
        i += 1;
    }
    if cum[i] == u {
        search_rank(cum, u)
    } else {
        i
    }
}

/// Zipf-like distribution over ranks `1..=n` with exponent `alpha ≥ 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    alpha: f64,
    n: u64,
    /// Cumulative probability table, `cum[k] = P[R ≤ k+1]`.
    cum: Vec<f64>,
    /// Guide table over `cum` (see [`build_guide`]), built with it.
    guide: Vec<u32>,
}

impl Zipf {
    /// Construct a Zipf-like law over `1..=n` ranks with exponent `alpha`.
    pub fn new(alpha: f64, n: u64) -> Result<Self, StatsError> {
        if !(alpha.is_finite() && alpha >= 0.0) {
            return Err(StatsError::BadParameter {
                name: "alpha",
                value: alpha,
                constraint: "must be finite and >= 0",
            });
        }
        if n == 0 {
            return Err(StatsError::BadParameter {
                name: "n",
                value: 0.0,
                constraint: "must be >= 1",
            });
        }
        let mut z = Zipf {
            alpha,
            n,
            cum: Vec::new(),
            guide: Vec::new(),
        };
        z.build_table();
        Ok(z)
    }

    fn build_table(&mut self) {
        let mut cum = Vec::with_capacity(self.n as usize);
        let mut total = 0.0;
        for r in 1..=self.n {
            total += (r as f64).powf(-self.alpha);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        self.guide = build_guide(&cum);
        self.cum = cum;
    }
}

impl Discrete for Zipf {
    fn pmf(&self, k: u64) -> f64 {
        if k == 0 || k > self.n {
            return 0.0;
        }
        let t = &self.cum;
        let i = (k - 1) as usize;
        if i == 0 {
            t[0]
        } else {
            t[i] - t[i - 1]
        }
    }

    fn cdf(&self, k: u64) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let t = &self.cum;
        let i = (k.min(self.n) - 1) as usize;
        t[i]
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        (guided_rank(&self.cum, &self.guide, u) + 1) as u64
    }

    fn mean(&self) -> Option<f64> {
        let t = &self.cum;
        let mut m = 0.0;
        let mut prev = 0.0;
        for (i, &c) in t.iter().enumerate() {
            m += (i as f64 + 1.0) * (c - prev);
            prev = c;
        }
        Some(m)
    }
}

/// Two-piece Zipf-like distribution: exponent `alpha_body` for ranks
/// `1..=break_rank` and `alpha_tail` beyond, with the tail piece scaled so
/// the pmf is continuous at the break (matching the paper's Figure 11(c)
/// fitting convention).
#[derive(Debug, Clone, PartialEq)]
pub struct TwoPieceZipf {
    alpha_body: f64,
    alpha_tail: f64,
    break_rank: u64,
    n: u64,
    cum: Vec<f64>,
    guide: Vec<u32>,
}

impl TwoPieceZipf {
    /// Construct over ranks `1..=n` with a break after `break_rank`.
    pub fn new(
        alpha_body: f64,
        alpha_tail: f64,
        break_rank: u64,
        n: u64,
    ) -> Result<Self, StatsError> {
        if !(alpha_body.is_finite() && alpha_body >= 0.0) {
            return Err(StatsError::BadParameter {
                name: "alpha_body",
                value: alpha_body,
                constraint: "must be finite and >= 0",
            });
        }
        if !(alpha_tail.is_finite() && alpha_tail >= 0.0) {
            return Err(StatsError::BadParameter {
                name: "alpha_tail",
                value: alpha_tail,
                constraint: "must be finite and >= 0",
            });
        }
        if break_rank == 0 || break_rank >= n {
            return Err(StatsError::BadParameter {
                name: "break_rank",
                value: break_rank as f64,
                constraint: "must satisfy 1 <= break_rank < n",
            });
        }
        let mut z = TwoPieceZipf {
            alpha_body,
            alpha_tail,
            break_rank,
            n,
            cum: Vec::new(),
            guide: Vec::new(),
        };
        z.build_table();
        Ok(z)
    }

    fn unnormalized_weight(&self, r: u64) -> f64 {
        if r <= self.break_rank {
            (r as f64).powf(-self.alpha_body)
        } else {
            // Continuity at the break: scale the tail so both pieces agree
            // at r = break_rank.
            let b = self.break_rank as f64;
            let scale = b.powf(-self.alpha_body) / b.powf(-self.alpha_tail);
            scale * (r as f64).powf(-self.alpha_tail)
        }
    }

    fn build_table(&mut self) {
        let mut cum = Vec::with_capacity(self.n as usize);
        let mut total = 0.0;
        for r in 1..=self.n {
            total += self.unnormalized_weight(r);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        self.guide = build_guide(&cum);
        self.cum = cum;
    }
}

impl Discrete for TwoPieceZipf {
    fn pmf(&self, k: u64) -> f64 {
        if k == 0 || k > self.n {
            return 0.0;
        }
        let t = &self.cum;
        let i = (k - 1) as usize;
        if i == 0 {
            t[0]
        } else {
            t[i] - t[i - 1]
        }
    }

    fn cdf(&self, k: u64) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let t = &self.cum;
        t[(k.min(self.n) - 1) as usize]
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        (guided_rank(&self.cum, &self.guide, u) + 1) as u64
    }

    fn mean(&self) -> Option<f64> {
        let t = &self.cum;
        let mut m = 0.0;
        let mut prev = 0.0;
        for (i, &c) in t.iter().enumerate() {
            m += (i as f64 + 1.0) * (c - prev);
            prev = c;
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Zipf::new(-0.1, 10).is_err());
        assert!(Zipf::new(1.0, 0).is_err());
        assert!(Zipf::new(f64::NAN, 10).is_err());
        assert!(TwoPieceZipf::new(0.453, 4.67, 0, 100).is_err());
        assert!(TwoPieceZipf::new(0.453, 4.67, 100, 100).is_err());
        assert!(TwoPieceZipf::new(-1.0, 4.67, 45, 100).is_err());
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(0.386, 100).unwrap();
        let total: f64 = (1..=100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((z.cdf(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_ratio_follows_power_law() {
        // p(1)/p(10) = 10^α.
        let z = Zipf::new(0.386, 1000).unwrap();
        let r = z.pmf(1) / z.pmf(10);
        assert!((r - 10f64.powf(0.386)).abs() < 1e-9);
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = Zipf::new(0.0, 50).unwrap();
        for r in 1..=50 {
            assert!((z.pmf(r) - 0.02).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_matches_pmf() {
        let z = Zipf::new(0.386, 100).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut counts = vec![0usize; 101];
        let n = 200_000;
        for _ in 0..n {
            let r = z.sample(&mut rng);
            assert!((1..=100).contains(&r));
            counts[r as usize] += 1;
        }
        for r in [1u64, 2, 10, 50, 100] {
            let emp = counts[r as usize] as f64 / n as f64;
            let theo = z.pmf(r);
            assert!(
                (emp - theo).abs() < 0.004,
                "rank {r}: empirical {emp} vs pmf {theo}"
            );
        }
    }

    #[test]
    fn two_piece_flattened_head_shape() {
        // Paper Fig 11(c): body α = 0.453 (ranks 1–45), tail α = 4.67.
        let z = TwoPieceZipf::new(0.453, 4.67, 45, 100).unwrap();
        let total: f64 = (1..=100).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Body obeys the body exponent.
        let r_body = z.pmf(1) / z.pmf(10);
        assert!((r_body - 10f64.powf(0.453)).abs() < 1e-9);
        // Tail decays much faster than the body.
        let r_tail = z.pmf(50) / z.pmf(100);
        assert!((r_tail - 2f64.powf(4.67)).abs() < 1e-6);
        // Continuity at the break: pmf(45) / pmf(46) close to the body ratio.
        let jump = z.pmf(45) / z.pmf(46);
        assert!(
            jump < 1.2,
            "pmf should be continuous at the break, got jump {jump}"
        );
    }

    #[test]
    fn two_piece_sampling_in_range() {
        let z = TwoPieceZipf::new(0.453, 4.67, 45, 100).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut tail_hits = 0usize;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!((1..=100).contains(&r));
            if r > 45 {
                tail_hits += 1;
            }
        }
        // The steep tail should capture a small but nonzero share.
        assert!(tail_hits > 0);
        assert!((tail_hits as f64 / 10_000.0) < 0.5);
    }

    #[test]
    fn mean_is_sane() {
        let z = Zipf::new(1.0, 10).unwrap();
        let m = z.mean().unwrap();
        assert!(m > 1.0 && m < 10.0);
    }

    /// The guided search picks the binary search's rank for each draw in
    /// `us`, and for every table entry and its two float neighbours, where
    /// rounding in `⌊u·n⌋` and runs of equal entries would show.
    fn assert_guided_is_binary(cum: &[f64], guide: &[u32], us: &[f64]) {
        let neighbours = cum.iter().flat_map(|&c| [c.next_down(), c, c.next_up()]);
        for u in us.iter().copied().chain(neighbours) {
            if (0.0..1.0).contains(&u) {
                assert_eq!(guided_rank(cum, guide, u), search_rank(cum, u), "u = {u:e}");
            }
        }
    }

    #[test]
    fn guided_rank_is_binary_on_fixed_tables() {
        // Runs of equal entries below 1.0, which rounding can make: a draw
        // equal to one takes the binary search's pick, not the run's head.
        let cum = [0.1, 0.25, 0.25, 0.25, 0.5, 0.5, 0.75, 1.0];
        assert_guided_is_binary(&cum, &build_guide(&cum), &[]);
        // An entry one ulp under 9/10, where `u·n` rounds up to 9: the
        // walk starts past it and must step back.
        let cum = [
            0.1,
            0.2,
            0.3,
            0.4,
            0.5,
            0.6,
            0.7,
            0.8,
            0.9f64.next_down(),
            1.0,
        ];
        assert_guided_is_binary(&cum, &build_guide(&cum), &[]);
        let z = Zipf::new(0.386, 1_931).unwrap();
        assert_guided_is_binary(&z.cum, &z.guide, &[]);
        let t = TwoPieceZipf::new(0.453, 4.67, 45, 54).unwrap();
        assert_guided_is_binary(&t.cum, &t.guide, &[]);
        // A steeper tail over more ranks saturates into a run of equal
        // entries at 1.0.
        let t = TwoPieceZipf::new(0.453, 12.0, 45, 1_931).unwrap();
        assert!(t.cum.windows(2).any(|w| w[0] == w[1]));
        assert_guided_is_binary(&t.cum, &t.guide, &[]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn zipf_guided_rank_is_binary(
            alpha in 0.0f64..6.0,
            n in 1u64..2_500,
            us in proptest::collection::vec(0.0f64..1.0, 0..256),
        ) {
            let z = Zipf::new(alpha, n).unwrap();
            assert_guided_is_binary(&z.cum, &z.guide, &us);
        }

        #[test]
        fn two_piece_guided_rank_is_binary(
            alpha_body in 0.0f64..3.0,
            alpha_tail in 0.0f64..12.0,
            n in 2u64..2_500,
            break_at in 0.0f64..1.0,
            us in proptest::collection::vec(0.0f64..1.0, 0..256),
        ) {
            let break_rank = ((break_at * n as f64) as u64).clamp(1, n - 1);
            let z = TwoPieceZipf::new(alpha_body, alpha_tail, break_rank, n).unwrap();
            assert_guided_is_binary(&z.cum, &z.guide, &us);
        }
    }
}
