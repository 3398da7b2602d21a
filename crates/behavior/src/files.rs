//! Shared-files model (Figure 2).
//!
//! PONG messages advertise each peer's shared-library size; the paper
//! plots the fraction of peers sharing 0–100 files on a log scale
//! (Figure 2) and cites the free-rider phenomenon (Adar & Huberman): a
//! large fraction of peers share nothing.

use rand::rngs::StdRng;
use rand::Rng;

/// Mixture model for a peer's advertised shared-file count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedFilesModel {
    /// Probability of a free rider (0 shared files). Adar & Huberman
    /// measured a substantial fraction; we default to 0.25.
    pub(crate) free_rider_prob: f64,
    /// Probability of a small library (1–10 files, uniform).
    pub(crate) small_prob: f64,
    /// Probability of a medium library (11–100, log-uniform).
    pub(crate) medium_prob: f64,
    // Remainder: large library (101–1000, log-uniform).
}

impl Default for SharedFilesModel {
    fn default() -> Self {
        SharedFilesModel {
            free_rider_prob: 0.25,
            small_prob: 0.25,
            medium_prob: 0.35,
        }
    }
}

impl SharedFilesModel {
    /// Draw a shared-file count.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen();
        if u < self.free_rider_prob {
            0
        } else if u < self.free_rider_prob + self.small_prob {
            rng.gen_range(1..=10)
        } else if u < self.free_rider_prob + self.small_prob + self.medium_prob {
            log_uniform(rng, 11, 100)
        } else {
            log_uniform(rng, 101, 1000)
        }
    }

    /// Approximate shared kilobytes for a library of `files` files
    /// (≈4 MB median per file — 2004 MP3s).
    pub(crate) fn kb_for(&self, files: u32, rng: &mut StdRng) -> u32 {
        if files == 0 {
            return 0;
        }
        let per_file = rng.gen_range(2_000..=6_000);
        files.saturating_mul(per_file)
    }
}

fn log_uniform(rng: &mut StdRng, lo: u32, hi: u32) -> u32 {
    let l = (lo as f64).ln();
    let h = (hi as f64).ln();
    let x = (l + rng.gen::<f64>() * (h - l)).exp();
    (x.round() as u32).clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn free_rider_fraction() {
        let m = SharedFilesModel::default();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let zeros = (0..n).filter(|_| m.sample(&mut rng) == 0).count();
        let frac = zeros as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "free riders {frac}");
    }

    #[test]
    fn counts_within_bounds_and_decreasing_density() {
        let m = SharedFilesModel::default();
        let mut rng = StdRng::seed_from_u64(2);
        let mut small = 0;
        let mut large = 0;
        for _ in 0..50_000 {
            let f = m.sample(&mut rng);
            assert!(f <= 1000);
            if (1..=10).contains(&f) {
                small += 1;
            }
            if f > 100 {
                large += 1;
            }
        }
        // Per-file density decreases: 10 small bins hold ~25 %, the 900
        // large bins hold ~15 %.
        assert!(small > large);
    }

    #[test]
    fn kb_scales_with_files() {
        let m = SharedFilesModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(m.kb_for(0, &mut rng), 0);
        let kb = m.kb_for(100, &mut rng);
        assert!((200_000..=600_000).contains(&kb));
    }
}
