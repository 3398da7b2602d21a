//! Ablation experiments for the design choices DESIGN.md calls out.

use crate::render::compare;
use crate::ExperimentContext;
use analysis::popularity::{self, GeoClass};
use geoip::{GeoDb, Region};
use gnutella::QueryId;
use simnet::SimTime;
use stats::fit::fit_zipf;
use stats::ks::ks_two_sample;
use std::collections::HashMap;
use trace::{ConnectionRecord, MessageRecord, RecordedPayload, SessionId, TraceSink};

/// Ranks averaged in the unfiltered popularity curve.
const MAX_RANK: usize = 100;

/// Folds the raw hop-1 queries of North American peers — no filter
/// rule applied, so repeats, SHA1-with-keywords and quick-session
/// traffic are all counted — into per-day counts per query string: the
/// unfiltered half of [`filters_onoff`].
pub(crate) struct RawNaQueries {
    db: GeoDb,
    /// Whether each session's peer is North American, by session id.
    na: Vec<bool>,
    per_day: Vec<HashMap<QueryId, u64>>,
}

impl RawNaQueries {
    /// An empty fold resolving regions with `db`.
    pub(crate) fn new(db: GeoDb) -> RawNaQueries {
        RawNaQueries {
            db,
            na: Vec::new(),
            per_day: Vec::new(),
        }
    }

    /// Each day's query shares by rank (top 100), averaged over the
    /// days with queries — the same curve Figure 11 fits.
    pub(crate) fn finish(self) -> Vec<f64> {
        let mut sums = vec![0.0f64; MAX_RANK];
        let mut days = 0usize;
        for counts in &self.per_day {
            if counts.is_empty() {
                continue;
            }
            days += 1;
            let total: u64 = counts.values().sum();
            let mut v: Vec<(&QueryId, &u64)> = counts.iter().collect();
            v.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
            for (rank, (_, n)) in v.into_iter().take(MAX_RANK).enumerate() {
                sums[rank] += *n as f64 / total as f64;
            }
        }
        sums.iter().map(|s| s / days.max(1) as f64).collect()
    }
}

impl TraceSink for RawNaQueries {
    fn on_connect(&mut self, rec: ConnectionRecord) {
        debug_assert_eq!(rec.id.0 as usize, self.na.len());
        self.na
            .push(self.db.lookup(rec.addr) == Region::NorthAmerica);
    }

    fn on_batch(&mut self, records: &[MessageRecord], _wire_lens: &[u32]) {
        for m in records {
            let RecordedPayload::Query { text, .. } = m.payload else {
                continue;
            };
            if m.hops != 1 || !self.na.get(m.session.0 as usize).copied().unwrap_or(false) {
                continue;
            }
            let key = text.canonical();
            if key.is_empty() {
                continue;
            }
            let day = (m.at.as_millis() / 86_400_000) as usize;
            if self.per_day.len() <= day {
                self.per_day.resize_with(day + 1, HashMap::new);
            }
            *self.per_day[day].entry(key).or_insert(0) += 1;
        }
    }

    fn on_close(&mut self, _id: SessionId, _end: SimTime, _by_probe: bool) {}
}

/// Ablation 1 — what happens to the popularity exponent if the filter
/// rules are NOT applied (the paper's headline claim: automated re-queries
/// inflate Zipf exponents; prior unfiltered work measured α ≈ 1).
pub(crate) fn filters_onoff(ctx: &ExperimentContext) -> String {
    let mut out = String::new();

    // Filtered: the standard per-day NA-only popularity fit.
    let filtered = popularity::per_day_popularity(&ctx.obs, GeoClass::NaOnly, 100);
    let filtered_fit = popularity::fit_popularity(&filtered);

    // Unfiltered: popularity recounted from *raw* hop-1 queries of NA
    // peers, per day, then averaged by rank like Fig 11.
    let unfiltered_fit = fit_zipf(&ctx.raw_na_popularity);

    match (filtered_fit, unfiltered_fit) {
        (Ok(f), Ok(u)) => {
            out.push_str(&compare(
                "Zipf α, filtered user queries (NA-only class)",
                "0.386",
                &format!("{:.3}", f.alpha),
            ));
            out.push_str(&compare(
                "Zipf α, raw unfiltered hop-1 queries (NA)",
                "larger (≈1 in unfiltered prior work)",
                &format!("{:.3}", u.alpha),
            ));
            out.push_str(&compare(
                "automation inflates the exponent",
                "yes (the paper's claim)",
                if u.alpha > f.alpha { "yes" } else { "no" },
            ));
        }
        _ => out.push_str("fit unavailable at this scale\n"),
    }
    out.push_str(
        "\n(automated repeats concentrate on the same strings a user already\n\
         issued, steepening the measured popularity head — which is why the\n\
         paper filters before characterizing user behavior)\n",
    );
    out
}

/// Ablation 2 — full conditional model vs a region-aggregate model.
pub(crate) fn conditional_vs_aggregate(ctx: &ExperimentContext) -> String {
    use p2pq::{collect_sessions, GeneratorConfig, WorkloadGenerator, WorkloadModel};
    let mut out = String::new();

    // Full conditional model (paper defaults) vs an "aggregate" model in
    // which every region gets the population-weighted NA parameters —
    // exactly the kind of mixture model the paper argues against.
    let full = WorkloadModel::paper_default();
    let mut aggregate = full.clone();
    let na = full.queries_per_session[Region::NorthAmerica.index()];
    let na_pd = full.passive_duration[Region::NorthAmerica.index()];
    let na_w = full.interarrival.body_weight[Region::NorthAmerica.index()];
    for region in Region::ALL {
        aggregate.queries_per_session[region.index()] = na;
        aggregate.passive_duration[region.index()] = na_pd;
        aggregate.interarrival.body_weight[region.index()] = na_w;
        aggregate.interarrival.mu_shift[region.index()] = 0.0;
    }
    aggregate.interarrival.eu_count_shift = [0.0; 3];

    let gen_sessions = |model: &WorkloadModel, seed: u64| {
        let mut g = WorkloadGenerator::new(
            model,
            GeneratorConfig {
                n_peers: 250,
                seed,
                fixed_hour: Some(20),
                ..GeneratorConfig::default()
            },
        );
        let events = g.events_until(SimTime::from_secs(8 * 3600));
        collect_sessions(events.iter().copied())
    };
    let full_sessions = gen_sessions(&full, 5);
    let agg_sessions = gen_sessions(&aggregate, 5);

    // Reference: the *measured* per-region distributions from the context.
    for region in [Region::Europe, Region::Asia] {
        let measured: Vec<f64> = ctx
            .ft
            .sessions
            .iter()
            .filter(|s| s.region == region && !s.is_passive())
            .map(|s| f64::from(s.n_queries()))
            .collect();
        let counts = |sessions: &[p2pq::SessionSummary]| -> Vec<f64> {
            sessions
                .iter()
                .filter(|s| s.region == region && !s.is_passive())
                .map(|s| s.query_times.len() as f64)
                .collect()
        };
        let fc = counts(&full_sessions);
        let ac = counts(&agg_sessions);
        if measured.len() > 20 && fc.len() > 20 && ac.len() > 20 {
            let d_full = ks_two_sample(&measured, &fc)
                .map(|k| k.statistic)
                .unwrap_or(f64::NAN);
            let d_agg = ks_two_sample(&measured, &ac)
                .map(|k| k.statistic)
                .unwrap_or(f64::NAN);
            out.push_str(&compare(
                &format!("#queries KS vs measured, {} ", region.code()),
                "conditional < aggregate",
                &format!("conditional {d_full:.3} vs aggregate {d_agg:.3}"),
            ));
        }
    }
    out.push_str(
        "\n(replacing the region-conditioned distributions with one aggregate\n\
         mixture visibly degrades per-region fidelity — the paper's drawback\n\
         (2) of prior aggregate workload models)\n",
    );
    out
}

/// Ablation 3 — per-day ranking vs whole-trace ranking: the flattened head.
pub(crate) fn hotset_onoff(ctx: &ExperimentContext) -> String {
    let mut out = String::new();

    // Per-day averaged rank-frequency (the paper's method).
    let per_day = popularity::per_day_popularity(&ctx.obs, GeoClass::NaOnly, 100);
    let per_day_fit = popularity::fit_popularity(&per_day);

    // Whole-trace ranking: pool all days of NA-only queries, rank once.
    let mut pooled: HashMap<QueryId, u64> = HashMap::new();
    for day in 0..ctx.obs.n_days() {
        let classes = ctx.obs.classify_day(day);
        if let Some(counts) = ctx.obs.day_counts(Region::NorthAmerica, day) {
            for (key, n) in counts {
                if classes.get(key) == Some(&GeoClass::NaOnly) {
                    *pooled.entry(*key).or_insert(0) += n;
                }
            }
        }
    }
    let total: u64 = pooled.values().sum();
    let mut v: Vec<u64> = pooled.into_values().collect();
    v.sort_unstable_by(|a, b| b.cmp(a));
    let pooled_freqs: Vec<f64> = v
        .iter()
        .take(100)
        .map(|&n| n as f64 / total.max(1) as f64)
        .collect();
    let pooled_fit = fit_zipf(&pooled_freqs);

    // Head flatness: freq(1)/freq(10) — smaller means flatter.
    let head = |ys: &[f64]| ys.first().copied().unwrap_or(0.0) / ys.get(9).copied().unwrap_or(1e-9);
    match (per_day_fit, pooled_fit) {
        (Ok(d), Ok(p)) => {
            out.push_str(&compare(
                "Zipf α, per-day ranking (paper's method)",
                "0.386",
                &format!("{:.3}", d.alpha),
            ));
            out.push_str(&compare(
                "Zipf α, whole-trace pooled ranking",
                "flattened head (Gummadi et al.)",
                &format!("{:.3}", p.alpha),
            ));
            out.push_str(&compare(
                "head ratio freq(1)/freq(10), per-day vs pooled",
                "pooled is flatter",
                &format!("{:.2} vs {:.2}", head(per_day.ys()), head(&pooled_freqs)),
            ));
        }
        _ => out.push_str("fit unavailable at this scale\n"),
    }
    out.push_str(
        "\n(aggregating over days mixes different hot sets that were each popular\n\
         on different days — the multi-day distribution's head flattens, which\n\
         is why §4.6 ranks queries per day before averaging)\n",
    );
    out
}
