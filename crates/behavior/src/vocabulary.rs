//! Query vocabulary with geographic classes and daily hot-set drift.
//!
//! §4.6 divides each day's queries into seven disjoint classes: one per
//! single region, one per region pair, and one issued from all three
//! regions; Table 3 gives the class cardinalities. Popularity within a
//! class follows a Zipf-like law per day (Figure 11), and the set of
//! popular queries drifts substantially from day to day (Figure 10).
//!
//! The generative model here:
//!
//! * each class owns a pool of unique query strings (several times larger
//!   than its daily active set);
//! * every item has a static base weight (its long-run popularity);
//! * each day, every item's score is its log base weight plus Gaussian
//!   noise (`drift_sigma`); the top `daily_size` items by score form the
//!   day's active set, ranked by score — this produces partial
//!   persistence of popular items with heavy churn, the Figure 10 shape;
//! * queries are drawn by sampling a rank from the class's Zipf-like law
//!   (two-piece for the NA∩EU class, Figure 11(c)) and mapping it through
//!   the day's ranking.
//!
//! Query strings are unique keyword *sets* across the whole vocabulary
//! (pairs of distinct words from a 256-word lexicon), so the
//! keyword-set identity of §3.2 cannot collide across classes.

use geoip::Region;
use gnutella::QueryId;
use model::{QueryClass, RankLaw};
use rand::rngs::StdRng;
use rand::Rng;
use stats::dist::{TwoPieceZipf, Zipf};
use stats::rank::drifted_hot_set;
use stats::rng::SeedSequence;
use std::sync::OnceLock;

/// Vocabulary construction parameters.
#[derive(Debug, Clone)]
pub struct VocabularyConfig {
    /// Daily active-set size per class (Table 3, 1-day column, made
    /// disjoint: NA-only 1931, EU-only 1875, AS-only 145, NA∩EU 54,
    /// NA∩AS 3, EU∩AS 3, triple 2).
    pub daily_sizes: [usize; 7],
    /// Pool size multiplier over the daily size (how much long-tail
    /// vocabulary exists to churn in).
    pub pool_multiplier: usize,
    /// Zipf exponents per class. Figure 11: NA-only 0.386, EU-only 0.223.
    pub alphas: [f64; 7],
    /// Two-piece parameters for the NA∩EU class (Figure 11(c)):
    /// (body α, tail α, break rank).
    pub na_eu_two_piece: (f64, f64, u64),
    /// Day-to-day drift noise (log-score σ). Larger ⇒ faster hot-set
    /// churn (Figure 10).
    pub drift_sigma: f64,
    /// Number of distinct daily rankings: day `d` uses ranking
    /// `d % n_days`, computed the first time a query is drawn from it.
    pub n_days: usize,
    /// Probability that a query from each region falls in each class
    /// (§4.7: "for North American peers, a query is in the set of North
    /// American queries with probability 0.97, and with probability 0.03
    /// in the intersection set"). Rows: NA, EU, AS, Other; columns: the
    /// classes that region participates in, see `Vocabulary::pick_class`.
    pub class_mix: ClassMix,
}

/// Per-region class-selection probabilities.
#[derive(Debug, Clone, Copy)]
pub struct ClassMix {
    /// NA: (NaOnly, NaEu, NaAs, All).
    pub(crate) na: (f64, f64, f64, f64),
    /// EU: (EuOnly, NaEu, EuAs, All).
    pub(crate) eu: (f64, f64, f64, f64),
    /// AS: (AsOnly, NaAs, EuAs, All).
    pub(crate) asia: (f64, f64, f64, f64),
}

impl Default for VocabularyConfig {
    fn default() -> Self {
        VocabularyConfig {
            daily_sizes: [1931, 1875, 145, 54, 3, 3, 2],
            pool_multiplier: 5,
            alphas: [0.386, 0.223, 0.30, 0.453, 0.30, 0.30, 0.30],
            na_eu_two_piece: (0.453, 4.67, 45),
            drift_sigma: 2.3,
            n_days: 40,
            class_mix: ClassMix {
                na: (0.970, 0.025, 0.003, 0.002),
                eu: (0.965, 0.030, 0.003, 0.002),
                asia: (0.930, 0.030, 0.030, 0.010),
            },
        }
    }
}

/// One class's pool and its daily rankings, each filled on first use.
#[derive(Debug, Clone)]
struct ClassPool {
    /// Pool item texts, interned once at build time.
    ids: Vec<QueryId>,
    /// `rankings[day][rank-1]` = pool index of the day's rank-`rank` item.
    rankings: Vec<OnceLock<Vec<u32>>>,
    law: RankLaw,
    daily_size: usize,
}

/// The full query vocabulary.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    classes: Vec<ClassPool>,
    config: VocabularyConfig,
    seq: SeedSequence,
}

/// 16 × 16 syllable lexicon → 256 distinct keywords.
fn lexicon() -> Vec<String> {
    const A: [&str; 16] = [
        "dark", "blue", "fire", "moon", "star", "gold", "wild", "free", "lost", "last", "love",
        "rock", "rain", "sun", "night", "heart",
    ];
    const B: [&str; 16] = [
        "song", "road", "line", "side", "light", "dance", "dream", "rider", "town", "girl", "man",
        "wave", "time", "day", "fall", "fly",
    ];
    let mut out = Vec::with_capacity(256);
    for a in A {
        for b in B {
            out.push(format!("{a}{b}"));
        }
    }
    out
}

/// Map a global item index to a unique unordered word pair `(i < j)` from
/// a 256-word lexicon — C(256,2) = 32 640 unique keyword sets.
fn pair_for(global: usize) -> (usize, usize) {
    // Enumerate pairs (i, j) with i < j in row-major order.
    let mut g = global;
    for i in 0..256 {
        let row = 255 - i;
        if g < row {
            return (i, i + 1 + g);
        }
        g -= row;
    }
    panic!("vocabulary exceeds unique pair capacity (32 640 items)");
}

impl Vocabulary {
    /// Build the vocabulary: allocate pools and assign unique texts. A
    /// day's ranking is computed when a query is first drawn from it, so
    /// a campaign pays only for the days it touches.
    pub fn build(seed: u64, config: VocabularyConfig) -> Vocabulary {
        let words = lexicon();
        let seq = SeedSequence::new(seed).child("vocabulary");
        let mut classes = Vec::with_capacity(7);
        let mut global = 0usize;
        for class in QueryClass::ALL7 {
            let ci = class.index();
            let daily = config.daily_sizes[ci];
            let pool = (daily * config.pool_multiplier).max(daily + 1);
            let mut ids = Vec::with_capacity(pool);
            for _ in 0..pool {
                let (i, j) = pair_for(global);
                global += 1;
                ids.push(QueryId::intern(&format!("{} {}", words[i], words[j])));
            }
            let law = if class == QueryClass::NaEu {
                let (ab, at, brk) = config.na_eu_two_piece;
                RankLaw::TwoPiece(
                    TwoPieceZipf::new(ab, at, brk.min(daily as u64 - 1).max(1), daily as u64)
                        .expect("two-piece params valid"),
                )
            } else {
                RankLaw::Zipf(Zipf::new(config.alphas[ci], daily as u64).expect("zipf valid"))
            };
            classes.push(ClassPool {
                ids,
                rankings: (0..config.n_days).map(|_| OnceLock::new()).collect(),
                law,
                daily_size: daily,
            });
        }
        Vocabulary {
            classes,
            config,
            seq,
        }
    }

    /// The class pool and its ranking for `day` (wrapped to the ranking
    /// horizon), ranking the day on first use: pool item `i` scores its
    /// log base weight `−ln(i + 1)` plus drift, from the class's stream
    /// for that day.
    fn ranked(&self, class: QueryClass, day: usize) -> (&ClassPool, &[u32]) {
        let pool = &self.classes[class.index()];
        let day = day % pool.rankings.len();
        let ranking = pool.rankings[day].get_or_init(|| {
            let mut rng = self.seq.rng_indexed(class.label(), day as u64);
            drifted_hot_set(
                pool.ids.len(),
                pool.daily_size,
                self.config.drift_sigma,
                &mut rng,
            )
        });
        (pool, ranking)
    }

    /// Pick the class for a query issued by a peer in `region`.
    pub(crate) fn pick_class(&self, region: Region, rng: &mut StdRng) -> QueryClass {
        let mix = &self.config.class_mix;
        let (own, pair_a, pair_b, all, classes): (f64, f64, f64, f64, [QueryClass; 4]) =
            match region {
                Region::NorthAmerica | Region::Other => (
                    mix.na.0,
                    mix.na.1,
                    mix.na.2,
                    mix.na.3,
                    [
                        QueryClass::NaOnly,
                        QueryClass::NaEu,
                        QueryClass::NaAs,
                        QueryClass::All,
                    ],
                ),
                Region::Europe => (
                    mix.eu.0,
                    mix.eu.1,
                    mix.eu.2,
                    mix.eu.3,
                    [
                        QueryClass::EuOnly,
                        QueryClass::NaEu,
                        QueryClass::EuAs,
                        QueryClass::All,
                    ],
                ),
                Region::Asia => (
                    mix.asia.0,
                    mix.asia.1,
                    mix.asia.2,
                    mix.asia.3,
                    [
                        QueryClass::AsOnly,
                        QueryClass::NaAs,
                        QueryClass::EuAs,
                        QueryClass::All,
                    ],
                ),
            };
        let u: f64 = rng.gen();
        if u < own {
            classes[0]
        } else if u < own + pair_a {
            classes[1]
        } else if u < own + pair_a + pair_b {
            classes[2]
        } else {
            let _ = all;
            classes[3]
        }
    }

    /// Draw a query for `region` on `day` (an interned id — no allocation).
    pub fn sample_query(&self, region: Region, day: usize, rng: &mut StdRng) -> QueryId {
        let class = self.pick_class(region, rng);
        self.sample_from_class(class, day, rng)
    }

    /// Draw a query from a specific class on `day`.
    pub(crate) fn sample_from_class(
        &self,
        class: QueryClass,
        day: usize,
        rng: &mut StdRng,
    ) -> QueryId {
        let (pool, ranking) = self.ranked(class, day);
        let rank = pool.law.sample(rng) as usize; // 1-based
        let idx = ranking[(rank - 1).min(pool.daily_size - 1)];
        pool.ids[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashSet;

    /// The day's active set (rank order) as text references.
    fn day_set(v: &Vocabulary, class: QueryClass, day: usize) -> Vec<&'static str> {
        let (pool, ranking) = v.ranked(class, day);
        ranking
            .iter()
            .map(|&i| pool.ids[i as usize].resolve())
            .collect()
    }

    fn small_config() -> VocabularyConfig {
        VocabularyConfig {
            daily_sizes: [200, 180, 50, 30, 3, 3, 2],
            pool_multiplier: 5,
            n_days: 6,
            ..VocabularyConfig::default()
        }
    }

    #[test]
    fn texts_are_unique_keyword_sets_across_classes() {
        let v = Vocabulary::build(1, small_config());
        let mut seen = HashSet::new();
        for class in QueryClass::ALL7 {
            let pool = &v.classes[class.index()];
            for t in &pool.ids {
                assert!(seen.insert(t.canonical()), "duplicate keyword set: {t}");
            }
        }
    }

    #[test]
    fn day_sets_have_configured_sizes() {
        let v = Vocabulary::build(2, small_config());
        assert_eq!(day_set(&v, QueryClass::NaOnly, 0).len(), 200);
        assert_eq!(day_set(&v, QueryClass::All, 3).len(), 2);
        assert_eq!(v.classes[QueryClass::EuOnly.index()].daily_size, 180);
        // A day's set never repeats a query.
        let set = day_set(&v, QueryClass::NaOnly, 1);
        let uniq: HashSet<&str> = set.iter().copied().collect();
        assert_eq!(uniq.len(), set.len());
    }

    #[test]
    fn hot_set_drifts_but_persists_partially() {
        // Figure 10 qualitative check: consecutive-day top sets overlap a
        // little but churn a lot.
        let v = Vocabulary::build(3, small_config());
        let mut overlaps = Vec::new();
        for day in 0..5 {
            let top10: HashSet<&str> = day_set(&v, QueryClass::NaOnly, day)
                .into_iter()
                .take(10)
                .collect();
            let top100: HashSet<&str> = day_set(&v, QueryClass::NaOnly, day + 1)
                .into_iter()
                .take(100)
                .collect();
            overlaps.push(top10.intersection(&top100).count());
        }
        let mean = overlaps.iter().sum::<usize>() as f64 / overlaps.len() as f64;
        assert!(mean < 8.0, "hot set too sticky: mean overlap {mean}");
        assert!(
            overlaps.iter().any(|&o| o > 0),
            "hot set should not churn completely"
        );
    }

    #[test]
    fn class_mix_probabilities() {
        let v = Vocabulary::build(4, small_config());
        let mut rng = StdRng::seed_from_u64(99);
        let mut counts = [0usize; 7];
        let n = 50_000;
        for _ in 0..n {
            counts[v.pick_class(Region::NorthAmerica, &mut rng).index()] += 1;
        }
        let frac_own = counts[QueryClass::NaOnly.index()] as f64 / n as f64;
        assert!(
            (frac_own - 0.97).abs() < 0.01,
            "NA-only fraction {frac_own}"
        );
        // NA peers never draw from EU-only / AS-only / EU∩AS.
        assert_eq!(counts[QueryClass::EuOnly.index()], 0);
        assert_eq!(counts[QueryClass::AsOnly.index()], 0);
        assert_eq!(counts[QueryClass::EuAs.index()], 0);
    }

    #[test]
    fn sampling_respects_daily_set_and_zipf_head() {
        let v = Vocabulary::build(5, small_config());
        let mut rng = StdRng::seed_from_u64(7);
        let in_set: HashSet<&str> = day_set(&v, QueryClass::NaOnly, 2).into_iter().collect();
        let mut head_hits = 0;
        let top1 = day_set(&v, QueryClass::NaOnly, 2)[0];
        for _ in 0..5_000 {
            let q = v
                .sample_from_class(QueryClass::NaOnly, 2, &mut rng)
                .resolve();
            assert!(in_set.contains(q), "query {q} outside day set");
            if q == top1 {
                head_hits += 1;
            }
        }
        // Rank 1 under Zipf(0.386, 200) has pmf ≈ 0.024; uniform would be
        // 0.005. The head must be visibly hotter than uniform.
        assert!(head_hits > 50, "rank-1 hits {head_hits}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Vocabulary::build(8, small_config());
        let b = Vocabulary::build(8, small_config());
        assert_eq!(
            day_set(&a, QueryClass::EuOnly, 1),
            day_set(&b, QueryClass::EuOnly, 1)
        );
        let c = Vocabulary::build(9, small_config());
        assert_ne!(
            day_set(&a, QueryClass::EuOnly, 1),
            day_set(&c, QueryClass::EuOnly, 1)
        );
    }

    #[test]
    fn pair_enumeration_is_injective() {
        let mut seen = HashSet::new();
        for g in 0..5_000 {
            let (i, j) = pair_for(g);
            assert!(i < j && j < 256);
            assert!(seen.insert((i, j)));
        }
    }

    #[test]
    fn day_wraps_beyond_horizon() {
        let v = Vocabulary::build(10, small_config());
        assert_eq!(
            day_set(&v, QueryClass::NaOnly, 0),
            day_set(&v, QueryClass::NaOnly, 6)
        );
    }
}
