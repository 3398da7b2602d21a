//! Query popularity analysis (§4.6, Table 3, Figures 10 and 11).
//!
//! Popularity uses the queries surviving rules 1–2 *including* those
//! flagged by rules 4/5 — automated re-sends of pre-connect searches still
//! reflect user interest (§3.3). Within a session, rule 2 already
//! deduplicated keyword sets, so each observation is one (day, region,
//! keyword-set) event per session.

use crate::filter::{FilteredSession, FilteredTrace};
use geoip::Region;
use gnutella::QueryId;
use stats::fit::{fit_two_piece_zipf_auto, TwoPieceZipfFit, ZipfFit};
use stats::Series;
use std::collections::{HashMap, HashSet};

/// Disjoint geographic query classes, recomputed from the data per
/// period (§4.6: one per region, one per pair, one for all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeoClass {
    /// Only North American peers issued it.
    NaOnly,
    /// Only European peers.
    EuOnly,
    /// Only Asian peers.
    AsOnly,
    /// North American and European peers (not Asian).
    NaEu,
    /// North American and Asian peers (not European).
    NaAs,
    /// European and Asian peers (not North American).
    EuAs,
    /// Peers from all three regions.
    All,
}

impl GeoClass {
    /// Classify by the set of regions that issued the query.
    pub(crate) fn of(na: bool, eu: bool, asia: bool) -> Option<GeoClass> {
        match (na, eu, asia) {
            (true, false, false) => Some(GeoClass::NaOnly),
            (false, true, false) => Some(GeoClass::EuOnly),
            (false, false, true) => Some(GeoClass::AsOnly),
            (true, true, false) => Some(GeoClass::NaEu),
            (true, false, true) => Some(GeoClass::NaAs),
            (false, true, true) => Some(GeoClass::EuAs),
            (true, true, true) => Some(GeoClass::All),
            (false, false, false) => None,
        }
    }

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            GeoClass::NaOnly => "NA-only",
            GeoClass::EuOnly => "EU-only",
            GeoClass::AsOnly => "AS-only",
            GeoClass::NaEu => "NA∩EU",
            GeoClass::NaAs => "NA∩AS",
            GeoClass::EuAs => "EU∩AS",
            GeoClass::All => "NA∩EU∩AS",
        }
    }
}

/// Per-day query observations: `counts[day][region][key] = issue count`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DailyObservations {
    /// Per day, per region (index), counts per keyword set.
    days: Vec<[HashMap<QueryId, u64>; 4]>,
}

impl DailyObservations {
    /// Collect observations from a filtered trace (each query is binned by
    /// its own arrival day).
    pub fn collect(ft: &FilteredTrace) -> DailyObservations {
        let mut obs = DailyObservations::default();
        for s in &ft.sessions {
            obs.add_session(s);
        }
        obs
    }

    /// Add one session's queries (the streaming path; [`Self::collect`]
    /// is this applied to every session). All queries count, including
    /// rule-4/5-flagged ones (§3.3: automated re-sends still reflect
    /// user interest).
    pub(crate) fn add_session(&mut self, s: &FilteredSession) {
        for q in &s.queries {
            let day = q.at.day() as usize;
            while self.days.len() <= day {
                self.days.push(Default::default());
            }
            *self.days[day][s.region.index()].entry(q.key).or_insert(0) += 1;
        }
    }

    /// Absorb another observation set, summing per-(day, region, key)
    /// counts. Counts are order-independent sums, so merging per-shard
    /// observations equals collecting the union of their sessions.
    pub(crate) fn merge(&mut self, other: &DailyObservations) {
        while self.days.len() < other.days.len() {
            self.days.push(Default::default());
        }
        for (mine, theirs) in self.days.iter_mut().zip(&other.days) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                for (k, c) in t {
                    *m.entry(*k).or_insert(0) += c;
                }
            }
        }
    }

    /// Number of observed days.
    pub fn n_days(&self) -> usize {
        self.days.len()
    }

    /// Estimated heap footprint in bytes (hash-map capacity based).
    pub(crate) fn mem_bytes(&self) -> u64 {
        // ~17 bytes per swiss-table slot: 12-byte (QueryId, u64) pair
        // padded to 16 plus one control byte.
        let per_slot = (std::mem::size_of::<(QueryId, u64)>() + 1) as u64;
        self.days
            .iter()
            .flat_map(|d| d.iter())
            .map(|m| m.capacity() as u64 * per_slot)
            .sum()
    }

    /// Distinct keys issued by `region` during days `[start, start + len)`.
    pub(crate) fn distinct_in_period(
        &self,
        region: Region,
        start: usize,
        len: usize,
    ) -> HashSet<QueryId> {
        let mut out = HashSet::new();
        for d in start..(start + len).min(self.days.len()) {
            out.extend(self.days[d][region.index()].keys().copied());
        }
        out
    }

    /// Per-key counts for a region on one day.
    pub fn day_counts(&self, region: Region, day: usize) -> Option<&HashMap<QueryId, u64>> {
        self.days.get(day).map(|d| &d[region.index()])
    }

    /// Classify every key observed on `day` into its [`GeoClass`].
    pub fn classify_day(&self, day: usize) -> HashMap<QueryId, GeoClass> {
        let Some(d) = self.days.get(day) else {
            return HashMap::new();
        };
        let mut out = HashMap::new();
        let mut keys: HashSet<&QueryId> = HashSet::new();
        for r in [Region::NorthAmerica, Region::Europe, Region::Asia] {
            keys.extend(d[r.index()].keys());
        }
        for k in keys {
            let na = d[Region::NorthAmerica.index()].contains_key(k);
            let eu = d[Region::Europe.index()].contains_key(k);
            let asia = d[Region::Asia.index()].contains_key(k);
            if let Some(c) = GeoClass::of(na, eu, asia) {
                out.insert(*k, c);
            }
        }
        out
    }
}

/// Table 3 row set: distinct-query counts for one period length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassSizes {
    /// Period length in days.
    pub(crate) period_days: usize,
    /// Distinct queries from North American peers.
    pub na: usize,
    /// Distinct queries from European peers.
    pub eu: usize,
    /// Distinct queries from Asian peers.
    pub asia: usize,
    /// |NA ∩ EU|.
    pub na_eu: usize,
    /// |NA ∩ AS|.
    pub na_as: usize,
    /// |EU ∩ AS|.
    pub eu_as: usize,
    /// |NA ∩ EU ∩ AS|.
    pub all: usize,
}

/// Compute Table 3 class sizes for a period starting at `start_day`.
pub fn class_sizes(obs: &DailyObservations, start_day: usize, period_days: usize) -> ClassSizes {
    let na = obs.distinct_in_period(Region::NorthAmerica, start_day, period_days);
    let eu = obs.distinct_in_period(Region::Europe, start_day, period_days);
    let asia = obs.distinct_in_period(Region::Asia, start_day, period_days);
    let na_eu = na.intersection(&eu).count();
    let na_as = na.intersection(&asia).count();
    let eu_as = eu.intersection(&asia).count();
    let all = na
        .iter()
        .filter(|k| eu.contains(*k) && asia.contains(*k))
        .count();
    ClassSizes {
        period_days,
        na: na.len(),
        eu: eu.len(),
        asia: asia.len(),
        na_eu,
        na_as,
        eu_as,
        all,
    }
}

/// Render Table 3 rows for the standard 4/2/1-day periods.
pub fn render_table3(rows: &[ClassSizes]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<58}", "Measure"));
    for r in rows {
        out.push_str(&format!(" | {:>2}-Day", r.period_days));
    }
    out.push('\n');
    let line = |label: &str, vals: Vec<usize>| {
        let mut s = format!("{:<58}", label);
        for v in vals {
            s.push_str(&format!(" | {:>6}", v));
        }
        s.push('\n');
        s
    };
    out.push_str(&line(
        "Different queries from North American peers",
        rows.iter().map(|r| r.na).collect(),
    ));
    out.push_str(&line(
        "Different queries from European peers",
        rows.iter().map(|r| r.eu).collect(),
    ));
    out.push_str(&line(
        "Different queries from Asian peers",
        rows.iter().map(|r| r.asia).collect(),
    ));
    out.push_str(&line(
        "Intersection North American and European",
        rows.iter().map(|r| r.na_eu).collect(),
    ));
    out.push_str(&line(
        "Intersection North American and Asian",
        rows.iter().map(|r| r.na_as).collect(),
    ));
    out.push_str(&line(
        "Intersection European and Asian",
        rows.iter().map(|r| r.eu_as).collect(),
    ));
    out.push_str(&line(
        "Intersection of all three",
        rows.iter().map(|r| r.all).collect(),
    ));
    out
}

/// The day-`n` ranking (most frequent first) of a region's queries.
pub(crate) fn day_ranking(obs: &DailyObservations, region: Region, day: usize) -> Vec<QueryId> {
    let Some(counts) = obs.day_counts(region, day) else {
        return Vec::new();
    };
    let mut v: Vec<(&QueryId, &u64)> = counts.iter().collect();
    // Deterministic order: by count desc, then key asc.
    v.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
    v.into_iter().map(|(k, _)| *k).collect()
}

/// Hot-set drift (Figure 10): for queries in `rank_range` (1-based,
/// inclusive) on day n, how many appear in the top `n_next` on day n+1?
/// Returns the CCDF over day pairs: `(x, fraction of days with > x)`.
pub fn hot_set_drift(
    obs: &DailyObservations,
    region: Region,
    rank_range: (usize, usize),
    n_next: usize,
) -> Series {
    let mut counts = Vec::new();
    // Volume guard: a trailing partial day cannot rank a meaningful hot
    // set; require both days to carry at least a quarter of the busiest
    // day's distinct queries.
    let day_sizes: Vec<usize> = (0..obs.n_days())
        .map(|d| day_ranking(obs, region, d).len())
        .collect();
    let min_size = day_sizes.iter().copied().max().unwrap_or(0) / 4;
    for day in 0..obs.n_days().saturating_sub(1) {
        if day_sizes[day] < min_size.max(1) || day_sizes[day + 1] < min_size.max(1) {
            continue;
        }
        let today = day_ranking(obs, region, day);
        let tomorrow = day_ranking(obs, region, day + 1);
        if today.is_empty() || tomorrow.is_empty() {
            continue;
        }
        let lo = rank_range.0.saturating_sub(1);
        let hi = rank_range.1.min(today.len());
        if lo >= hi {
            continue;
        }
        let group: HashSet<&QueryId> = today[lo..hi].iter().collect();
        let top_next: HashSet<&QueryId> = tomorrow.iter().take(n_next).collect();
        counts.push(group.intersection(&top_next).count() as f64);
    }
    let n = counts.len().max(1) as f64;
    let max_x = rank_range.1 - rank_range.0 + 1;
    let xs: Vec<f64> = (0..=max_x.min(20)).map(|x| x as f64).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|&x| counts.iter().filter(|&&c| c > x).count() as f64 / n)
        .collect();
    Series::labeled(format!("N={n_next}"), xs, ys)
}

/// Per-day average rank-frequency distribution for one [`GeoClass`]
/// (Figure 11): queries are ranked per day *within the class*, relative
/// frequencies are averaged across days at each rank.
pub fn per_day_popularity(obs: &DailyObservations, class: GeoClass, max_rank: usize) -> Series {
    per_day_popularity_with_volume(obs, class, max_rank).0
}

/// As [`per_day_popularity`], additionally returning the mean number of
/// class queries per contributing day (the volume that sets the 1-count
/// noise floor of the rank-frequency curve).
pub fn per_day_popularity_with_volume(
    obs: &DailyObservations,
    class: GeoClass,
    max_rank: usize,
) -> (Series, f64) {
    // Traces rarely end exactly on a day boundary; a trailing partial
    // "day" with a handful of queries would contribute rank-1 frequencies
    // near 0.1 and flatten the averaged head. Skip days whose class
    // volume is far below the busiest day's.
    let mut day_totals = vec![0u64; obs.n_days()];
    for (day, total) in day_totals.iter_mut().enumerate() {
        let classes = obs.classify_day(day);
        for (key, c) in &classes {
            if *c != class {
                continue;
            }
            for r in [Region::NorthAmerica, Region::Europe, Region::Asia] {
                if let Some(m) = obs.day_counts(r, day) {
                    *total += m.get(key).copied().unwrap_or(0);
                }
            }
        }
    }
    let max_total = day_totals.iter().copied().max().unwrap_or(0);
    let min_volume = max_total / 4;

    let mut sums = vec![0.0f64; max_rank];
    let mut day_count = 0usize;
    let mut grand_total = 0.0f64;
    for (day, &day_total) in day_totals.iter().enumerate() {
        if day_total < min_volume.max(1) {
            continue;
        }
        let classes = obs.classify_day(day);
        // Count per key: sum over the participating regions.
        let mut counts: Vec<(QueryId, u64)> = Vec::new();
        let mut total = 0u64;
        for (key, c) in &classes {
            if *c != class {
                continue;
            }
            let mut n = 0u64;
            for r in [Region::NorthAmerica, Region::Europe, Region::Asia] {
                if let Some(m) = obs.day_counts(r, day) {
                    n += m.get(key).copied().unwrap_or(0);
                }
            }
            total += n;
            counts.push((*key, n));
        }
        if counts.is_empty() || total == 0 {
            continue;
        }
        day_count += 1;
        grand_total += total as f64;
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (rank, (_, n)) in counts.iter().take(max_rank).enumerate() {
            sums[rank] += *n as f64 / total as f64;
        }
    }
    let d = day_count.max(1) as f64;
    let xs: Vec<f64> = (1..=max_rank).map(|r| r as f64).collect();
    let ys: Vec<f64> = sums.iter().map(|s| s / d).collect();
    (Series::labeled(class.label(), xs, ys), grand_total / d)
}

/// Zipf fit of a per-day popularity series.
///
/// The regression is performed on log-spaced ranks (1, 2, 3, … 10, 13,
/// 16, 20, …) rather than every rank: on a linear rank grid 60 % of the
/// points sit in the noisy count-quantized tail and dominate the
/// least-squares fit, badly biasing the exponent at realistic per-day
/// volumes. Log-spacing weights each decade of rank equally — matching
/// how the paper's log-log plots are read.
pub fn fit_popularity(series: &Series) -> Result<ZipfFit, stats::StatsError> {
    fit_popularity_above_floor(series, 0.0)
}

/// As [`fit_popularity`], dropping ranks whose averaged frequency falls
/// below `floor`. Pass `k / mean_daily_volume` (k ≈ 2–3) to exclude the
/// count-quantization regime: ranks whose expected per-day count is ~1
/// carry no slope information, only sampling noise.
pub fn fit_popularity_above_floor(
    series: &Series,
    floor: f64,
) -> Result<ZipfFit, stats::StatsError> {
    let ys = series.ys();
    let mut ranks = Vec::new();
    let mut freqs = Vec::new();
    let mut r = 1usize;
    while r <= ys.len() {
        if ys[r - 1] > floor {
            ranks.push(r as f64);
            freqs.push(ys[r - 1]);
        }
        r = ((r as f64 * 1.25).ceil() as usize).max(r + 1);
    }
    let (slope, scale, r2) = stats::regression::power_law_fit(&ranks, &freqs)?;
    Ok(ZipfFit {
        alpha: -slope,
        scale,
        r_squared: r2,
    })
}

/// Two-piece Zipf fit (for the flattened-head intersection class),
/// searching break ranks between 10 and 80 % of the populated ranks.
pub fn fit_popularity_two_piece(series: &Series) -> Result<TwoPieceZipfFit, stats::StatsError> {
    let populated = series.ys().iter().filter(|&&y| y > 0.0).count();
    if populated < 6 {
        return Err(stats::StatsError::NotEnoughData {
            needed: 6,
            got: populated,
        });
    }
    let lo = (populated / 10).max(2);
    let hi = populated * 8 / 10;
    let candidates: Vec<usize> = (lo..=hi).collect();
    fit_two_piece_zipf_auto(&series.ys()[..populated], &candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{FilterReport, FilteredQuery, FilteredSession};
    use simnet::SimTime;

    fn session_with_keys(region: Region, day: u64, keys: &[&str]) -> FilteredSession {
        FilteredSession {
            region,
            ultrapeer: false,
            user_agent: "T/1".into(),
            start: SimTime::from_secs(day * 86_400 + 3_600),
            end: SimTime::from_secs(day * 86_400 + 7_200),
            queries: keys
                .iter()
                .enumerate()
                .map(|(i, k)| FilteredQuery {
                    at: SimTime::from_secs(day * 86_400 + 3_700 + i as u64 * 30),
                    key: QueryId::intern(k).canonical(),
                    flagged45: false,
                })
                .collect(),
        }
    }

    fn ft(sessions: Vec<FilteredSession>) -> FilteredTrace {
        FilteredTrace {
            sessions,
            report: FilterReport::default(),
        }
    }

    #[test]
    fn geo_class_of() {
        assert_eq!(GeoClass::of(true, false, false), Some(GeoClass::NaOnly));
        assert_eq!(GeoClass::of(true, true, false), Some(GeoClass::NaEu));
        assert_eq!(GeoClass::of(true, true, true), Some(GeoClass::All));
        assert_eq!(GeoClass::of(false, false, false), None);
    }

    #[test]
    fn class_sizes_and_intersections() {
        let t = ft(vec![
            session_with_keys(Region::NorthAmerica, 0, &["a one", "b two", "shared x"]),
            session_with_keys(Region::Europe, 0, &["c three", "shared x", "triple z"]),
            session_with_keys(Region::Asia, 0, &["d four", "triple z"]),
            session_with_keys(Region::NorthAmerica, 0, &["triple z"]),
        ]);
        let obs = DailyObservations::collect(&t);
        let s = class_sizes(&obs, 0, 1);
        assert_eq!(s.na, 4); // a, b, shared, triple
        assert_eq!(s.eu, 3);
        assert_eq!(s.asia, 2);
        assert_eq!(s.na_eu, 2); // shared + triple
        assert_eq!(s.na_as, 1); // triple
        assert_eq!(s.eu_as, 1); // triple
        assert_eq!(s.all, 1); // triple
        let rendered = render_table3(&[s]);
        assert!(rendered.contains("North American"));
    }

    #[test]
    fn classify_day_disjoint() {
        let t = ft(vec![
            session_with_keys(Region::NorthAmerica, 0, &["only na", "both q"]),
            session_with_keys(Region::Europe, 0, &["both q", "only eu"]),
        ]);
        let obs = DailyObservations::collect(&t);
        let classes = obs.classify_day(0);
        assert_eq!(
            classes[&QueryId::intern("only na").canonical()],
            GeoClass::NaOnly
        );
        assert_eq!(
            classes[&QueryId::intern("only eu").canonical()],
            GeoClass::EuOnly
        );
        assert_eq!(
            classes[&QueryId::intern("both q").canonical()],
            GeoClass::NaEu
        );
    }

    #[test]
    fn multi_day_periods_union() {
        let t = ft(vec![
            session_with_keys(Region::NorthAmerica, 0, &["day0 q"]),
            session_with_keys(Region::NorthAmerica, 1, &["day1 q"]),
        ]);
        let obs = DailyObservations::collect(&t);
        assert_eq!(class_sizes(&obs, 0, 1).na, 1);
        assert_eq!(class_sizes(&obs, 0, 2).na, 2);
        assert_eq!(obs.n_days(), 2);
    }

    #[test]
    fn merge_equals_collect_of_union() {
        let sessions = vec![
            session_with_keys(Region::NorthAmerica, 0, &["a one", "shared x"]),
            session_with_keys(Region::Europe, 0, &["shared x"]),
            session_with_keys(Region::Asia, 1, &["late q"]),
            session_with_keys(Region::NorthAmerica, 2, &["a one"]),
        ];
        let whole = DailyObservations::collect(&ft(sessions.clone()));
        let mut a = DailyObservations::default();
        let mut b = DailyObservations::default();
        for (i, s) in sessions.iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.add_session(s);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn day_ranking_by_frequency() {
        let t = ft(vec![
            session_with_keys(Region::NorthAmerica, 0, &["hot q"]),
            session_with_keys(Region::NorthAmerica, 0, &["hot q", "cold q"]),
            session_with_keys(Region::NorthAmerica, 0, &["hot q"]),
        ]);
        let obs = DailyObservations::collect(&t);
        let ranking = day_ranking(&obs, Region::NorthAmerica, 0);
        assert_eq!(ranking[0], QueryId::intern("hot q").canonical());
        assert_eq!(ranking.len(), 2);
    }

    #[test]
    fn drift_full_persistence_and_full_churn() {
        // Same hot set both days → count = 10 for every pair → CCDF at
        // x=9 is 1, at x=10 is 0.
        let keys: Vec<String> = (0..10).map(|i| format!("q{i} w{i}")).collect();
        let refs: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
        let t = ft(vec![
            session_with_keys(Region::NorthAmerica, 0, &refs),
            session_with_keys(Region::NorthAmerica, 1, &refs),
        ]);
        let obs = DailyObservations::collect(&t);
        let s = hot_set_drift(&obs, Region::NorthAmerica, (1, 10), 10);
        assert_eq!(s.ys()[9], 1.0);
        assert_eq!(s.ys()[10], 0.0);

        // Disjoint sets → count = 0 → CCDF at x=0 is 0.
        let other: Vec<String> = (0..10).map(|i| format!("z{i} y{i}")).collect();
        let orefs: Vec<&str> = other.iter().map(|s| s.as_str()).collect();
        let t2 = ft(vec![
            session_with_keys(Region::NorthAmerica, 0, &refs),
            session_with_keys(Region::NorthAmerica, 1, &orefs),
        ]);
        let obs2 = DailyObservations::collect(&t2);
        let s2 = hot_set_drift(&obs2, Region::NorthAmerica, (1, 10), 100);
        assert_eq!(s2.ys()[0], 0.0);
    }

    #[test]
    fn per_day_popularity_zipf_shape() {
        // Construct a day where the class frequencies follow an exact
        // Zipf(1.0) over 5 queries: counts 60, 30, 20, 15, 12.
        let mut sessions = Vec::new();
        let counts = [60usize, 30, 20, 15, 12];
        for (i, &c) in counts.iter().enumerate() {
            for k in 0..c {
                // One query per session so rule-2 dedup can't interfere.
                let key = format!("na{i} x{i}");
                let mut s = session_with_keys(Region::NorthAmerica, 0, &[key.as_str()]);
                s.start = SimTime::from_secs(3600 + (i * 1000 + k) as u64);
                sessions.push(s);
            }
        }
        let obs = DailyObservations::collect(&ft(sessions));
        let series = per_day_popularity(&obs, GeoClass::NaOnly, 5);
        let total: f64 = series.ys().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((series.ys()[0] - 60.0 / 137.0).abs() < 1e-9);
        let fit = fit_popularity(&series).unwrap();
        assert!(fit.alpha > 0.5 && fit.alpha < 1.5, "alpha {}", fit.alpha);
    }

    #[test]
    fn two_piece_fit_needs_enough_ranks() {
        let s = Series::labeled("x", vec![1.0, 2.0], vec![0.6, 0.4]);
        assert!(fit_popularity_two_piece(&s).is_err());
    }
}
