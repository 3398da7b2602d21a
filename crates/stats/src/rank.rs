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
/// sort.
pub fn top_k(scores: &[f64], k: usize) -> Vec<u32> {
    let better = |a: &(f64, u32), b: &(f64, u32)| {
        b.0.partial_cmp(&a.0)
            .expect("scores are not NaN")
            .then(a.1.cmp(&b.1))
    };
    let mut scored: Vec<(f64, u32)> = scores.iter().zip(0u32..).map(|(&s, i)| (s, i)).collect();
    let k = k.min(scored.len());
    if k < scored.len() {
        scored.select_nth_unstable_by(k, better);
        scored.truncate(k);
    }
    scored.sort_unstable_by(better);
    scored.into_iter().map(|(_, i)| i).collect()
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
