//! Query vocabulary with geographic classes and daily hot-set drift.
//!
//! §4.6 divides each day's queries into seven disjoint classes: one per
//! single region, one per region pair, and one issued from all three
//! regions; Table 3 gives the class cardinalities. Popularity within a
//! class follows a Zipf-like law per day (Figure 11), and the set of
//! popular queries drifts substantially from day to day (Figure 10).
//!
//! A query's class and rank come from the model's one popularity draw,
//! [`PopularityLaws::draw_query`], the draw the Figure 12 generator
//! (`p2pq::generator`) makes too; campaigns build the laws from
//! `WorkloadModel::paper_default()`'s popularity. What the vocabulary
//! keeps is its own:
//!
//! * each class owns a pool of unique query strings (several times larger
//!   than its daily active set), interned once at build time;
//! * every item has a static base weight (its long-run popularity);
//! * each day, every item's score is its log base weight plus Gaussian
//!   noise (`drift_sigma`); the top `daily_size` items by score form the
//!   day's active set, ranked by score — this produces partial
//!   persistence of popular items with heavy churn, the Figure 10 shape.
//!   A day is ranked the first time a query is drawn from it, from the
//!   vocabulary's stream for that class and day, over a fixed horizon of
//!   `RANKING_DAYS` = 40 days, the paper's trace length: day `d` uses
//!   ranking `d % 40`;
//! * a drawn rank names the item at that rank in the day's ranking.
//!
//! Query strings are unique keyword *sets* across the whole vocabulary
//! (pairs of distinct words from a 256-word lexicon), so the
//! keyword-set identity of §3.2 cannot collide across classes.

use geoip::Region;
use gnutella::QueryId;
use model::{PopularityLaws, QueryClass};
use rand::rngs::StdRng;
use stats::rank::drifted_hot_set;
use stats::rng::SeedSequence;
use std::sync::OnceLock;

/// Distinct daily rankings (the paper's 40-day trace); later days wrap.
const RANKING_DAYS: usize = 40;

/// One class's pool and its daily rankings, each filled on first use.
#[derive(Debug, Clone)]
struct ClassPool {
    /// Pool item texts, interned once at build time.
    ids: Vec<QueryId>,
    /// `rankings[day][rank-1]` = pool index of the day's rank-`rank` item.
    rankings: Vec<OnceLock<Vec<u32>>>,
}

/// The full query vocabulary.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    laws: PopularityLaws,
    /// Indexed by [`QueryClass::index`].
    classes: Vec<ClassPool>,
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
    /// Build the vocabulary over `laws`: allocate pools and assign unique
    /// texts. A day's ranking is computed when a query is first drawn
    /// from it, so a campaign pays only for the days it touches.
    pub fn build(seed: u64, laws: PopularityLaws) -> Vocabulary {
        let words = lexicon();
        let seq = SeedSequence::new(seed).child("vocabulary");
        let mut classes = Vec::with_capacity(7);
        let mut global = 0usize;
        for class in QueryClass::ALL7 {
            let pool = laws.pool_size(class);
            let mut ids = Vec::with_capacity(pool);
            for _ in 0..pool {
                let (i, j) = pair_for(global);
                global += 1;
                ids.push(QueryId::intern(&format!("{} {}", words[i], words[j])));
            }
            classes.push(ClassPool {
                ids,
                rankings: (0..RANKING_DAYS).map(|_| OnceLock::new()).collect(),
            });
        }
        Vocabulary { laws, classes, seq }
    }

    /// The class pool and its ranking for `day` (wrapped to the ranking
    /// horizon), ranking the day on first use: pool item `i` scores its
    /// log base weight `−ln(i + 1)` plus drift, from the class's stream
    /// for that day.
    fn ranked(&self, class: QueryClass, day: usize) -> (&ClassPool, &[u32]) {
        let pool = &self.classes[class.index()];
        let day = day % RANKING_DAYS;
        let ranking = pool.rankings[day].get_or_init(|| {
            let mut rng = self.seq.rng_indexed(class.label(), day as u64);
            drifted_hot_set(
                pool.ids.len(),
                self.laws.daily_size(class),
                self.laws.drift_sigma(),
                &mut rng,
            )
        });
        (pool, ranking)
    }

    /// Draw a query for `region` on `day` (an interned id — no allocation).
    pub fn sample_query(&self, region: Region, day: usize, rng: &mut StdRng) -> QueryId {
        let (class, rank) = self.laws.draw_query(region, rng);
        let (pool, ranking) = self.ranked(class, day);
        pool.ids[ranking[(rank as usize - 1).min(ranking.len() - 1)] as usize]
    }

    /// A vocabulary over the paper's popularity with day sets of `sizes`
    /// (indexed by [`QueryClass::index`]), for tests that want a small
    /// one.
    #[cfg(test)]
    pub(crate) fn with_daily_sizes(seed: u64, sizes: [u64; 7]) -> Vocabulary {
        let mut popularity = model::WorkloadModel::paper_default().popularity;
        for (class, size) in popularity.classes.iter_mut().zip(sizes) {
            class.daily_size = size;
        }
        Vocabulary::build(seed, popularity.laws().expect("valid day-set sizes"))
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

    fn small(seed: u64) -> Vocabulary {
        Vocabulary::with_daily_sizes(seed, [200, 180, 50, 30, 3, 3, 2])
    }

    #[test]
    fn texts_are_unique_keyword_sets_across_classes() {
        let v = small(1);
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
        let v = small(2);
        assert_eq!(day_set(&v, QueryClass::NaOnly, 0).len(), 200);
        assert_eq!(day_set(&v, QueryClass::EuOnly, 0).len(), 180);
        assert_eq!(day_set(&v, QueryClass::All, 3).len(), 2);
        // A day's set never repeats a query.
        let set = day_set(&v, QueryClass::NaOnly, 1);
        let uniq: HashSet<&str> = set.iter().copied().collect();
        assert_eq!(uniq.len(), set.len());
    }

    #[test]
    fn hot_set_drifts_but_persists_partially() {
        // Figure 10 qualitative check: consecutive-day top sets overlap a
        // little but churn a lot.
        let v = small(3);
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
    fn sampling_respects_daily_set_and_zipf_head() {
        // A North American query lies in the day's set of one of its
        // region's classes, and the NA-only rank-1 item is hot.
        let v = small(5);
        let mut rng = StdRng::seed_from_u64(7);
        let in_set: HashSet<&str> = model::PopularityModel::region_classes(Region::NorthAmerica)
            .into_iter()
            .flat_map(|class| day_set(&v, class, 2))
            .collect();
        let top1 = day_set(&v, QueryClass::NaOnly, 2)[0];
        let mut head_hits = 0;
        for _ in 0..5_000 {
            let q = v.sample_query(Region::NorthAmerica, 2, &mut rng).resolve();
            assert!(in_set.contains(q), "query {q} outside the day's sets");
            if q == top1 {
                head_hits += 1;
            }
        }
        // Rank 1 under Zipf(0.386, 200) has pmf ≈ 0.024 (× 0.97 for the
        // NA-only class); uniform would be 0.005. The head must be
        // visibly hotter than uniform.
        assert!(head_hits > 50, "rank-1 hits {head_hits}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small(8);
        let b = small(8);
        assert_eq!(
            day_set(&a, QueryClass::EuOnly, 1),
            day_set(&b, QueryClass::EuOnly, 1)
        );
        let c = small(9);
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
        let v = small(10);
        assert_eq!(
            day_set(&v, QueryClass::NaOnly, 0),
            day_set(&v, QueryClass::NaOnly, 40)
        );
        assert_ne!(
            day_set(&v, QueryClass::NaOnly, 0),
            day_set(&v, QueryClass::NaOnly, 39)
        );
    }
}
