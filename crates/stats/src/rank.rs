//! Top-k ranking, and the daily hot-set ranking built on it.
//!
//! §4.6 of the paper finds that the set of popular queries drifts from
//! day to day (Figure 10). Both the ground-truth vocabulary and the
//! fitted generator model that drift the same way: each day, every pool
//! item gets a Zipf-like base score plus Gaussian noise, and the day's
//! hot set is the top of the pool by that score ([`drifted_hot_set`]).

use crate::rng::gaussian;
use rand::rngs::StdRng;

/// Indices of the `k` highest `scores`, best first. Equal scores rank by
/// ascending index, which is the order a stable sort by descending score
/// gives; the scores must not be NaN.
///
/// Selects the top `k` first and sorts only those, so ranking a few
/// thousand items out of a pool five times larger skips most of a full
/// sort. Both steps compare plain `(u64, u32)` keys (see `rank_key`).
pub fn top_k(scores: &[f64], k: usize) -> Vec<u32> {
    let mut keyed: Vec<(u64, u32)> = scores.iter().zip(0u32..).map(rank_key).collect();
    let k = k.min(keyed.len());
    if k < keyed.len() {
        keyed.select_nth_unstable(k);
        keyed.truncate(k);
    }
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// The ascending sort key of score `s` at index `i`: higher scores get
/// lower keys, and equal scores order by index. The score's bits map to
/// an integer whose order is the order of the floats (sign bit flipped
/// for positives, every bit for negatives), then complemented for
/// best-first; −0.0 is folded onto 0.0 first, so the two tie.
fn rank_key((&s, i): (&f64, u32)) -> (u64, u32) {
    assert!(!s.is_nan(), "scores are not NaN");
    let bits = (s + 0.0).to_bits(); // −0.0 + 0.0 is 0.0
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (!ascending, i)
}

/// One day's hot set over a pool of `pool` items: item `i` scores
/// `−ln(i + 1) + sigma · z_i`, with the standard normals `z_i` drawn from
/// `rng` in index order, and the result is the top `daily` item indices
/// by that score (see [`top_k`]).
pub fn drifted_hot_set(pool: usize, daily: usize, sigma: f64, rng: &mut StdRng) -> Vec<u32> {
    let scores: Vec<f64> = (0..pool)
        .map(|i| -((i + 1) as f64).ln() + sigma * gaussian(rng))
        .collect();
    top_k(&scores, daily)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn top_k_orders_best_first_and_breaks_ties_by_index() {
        let scores = [1.0, 3.0, 2.0, 3.0, -0.0, 0.0];
        assert_eq!(top_k(&scores, 4), [1, 3, 2, 0]);
        assert_eq!(top_k(&scores, 6), [1, 3, 2, 0, 4, 5]);
        assert_eq!(top_k(&scores, 10), [1, 3, 2, 0, 4, 5]);
        assert!(top_k(&scores, 0).is_empty());
        assert!(top_k(&[], 3).is_empty());
        let extremes = [
            f64::MIN,
            f64::NEG_INFINITY,
            -1e-300,
            f64::INFINITY,
            1e-300,
            f64::MAX,
        ];
        assert_eq!(top_k(&extremes, 6), [3, 5, 4, 2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "scores are not NaN")]
    fn top_k_rejects_nan() {
        top_k(&[1.0, f64::NAN, 2.0], 1);
    }

    #[test]
    fn hot_set_has_daily_size_and_distinct_items() {
        let mut rng = StdRng::seed_from_u64(1);
        let set = drifted_hot_set(500, 100, 2.3, &mut rng);
        assert_eq!(set.len(), 100);
        let mut sorted = set.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
        assert!(sorted.iter().all(|&i| i < 500));
    }

    #[test]
    fn hot_set_without_drift_is_the_base_order() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(drifted_hot_set(50, 5, 0.0, &mut rng), [0, 1, 2, 3, 4]);
    }
}
