//! Number of queries per active session (§4.5, Figure 6, Table A.2).

use crate::characterize::{ccdf_series, in_period, in_region};
use crate::filter::FilteredTrace;
use geoip::{Region, KEY_PERIODS};
use stats::dist::Lognormal;
use stats::fit::fit_lognormal;
use stats::Series;

const LO: f64 = 1.0;
const HI: f64 = 1_000.0;
const POINTS: usize = 40;

/// Per-active-session query counts for a region (rules 1–5 applied).
pub fn query_counts(ft: &FilteredTrace, region: Region) -> Vec<f64> {
    in_region(&ft.sessions, region)
        .filter(|s| !s.is_passive())
        .map(|s| f64::from(s.n_queries()))
        .collect()
}

/// Per-session query counts with rules 4/5 NOT applied (Figure 6(c));
/// sessions are "active" here if they have any post-rule-2 query.
pub(crate) fn query_counts_unfiltered45(ft: &FilteredTrace, region: Region) -> Vec<f64> {
    in_region(&ft.sessions, region)
        .filter(|s| s.n_queries_unflagged45() > 0)
        .map(|s| f64::from(s.n_queries_unflagged45()))
        .collect()
}

/// Figure 6(a): CCDF of queries per active session, per region.
pub fn ccdf_by_region(ft: &FilteredTrace) -> Vec<Series> {
    Region::CHARACTERIZED
        .iter()
        .filter_map(|&r| ccdf_series(r.name(), query_counts(ft, r), LO, HI, POINTS))
        .collect()
}

/// Figure 6(b): CCDF per key period, one region (the paper shows Europe).
pub fn ccdf_by_period(ft: &FilteredTrace, region: Region) -> Vec<Series> {
    KEY_PERIODS
        .iter()
        .filter_map(|p| {
            let samples: Vec<f64> = in_period(&ft.sessions, region, p.start_hour)
                .filter(|s| !s.is_passive())
                .map(|s| f64::from(s.n_queries()))
                .collect();
            ccdf_series(
                &format!("Start at {:02}:00-{:02}:00", p.start_hour, p.start_hour + 1),
                samples,
                LO,
                HI,
                POINTS,
            )
        })
        .collect()
}

/// Figure 6(c): CCDF without rules 4/5, per region.
pub fn ccdf_by_region_unfiltered45(ft: &FilteredTrace) -> Vec<Series> {
    Region::CHARACTERIZED
        .iter()
        .filter_map(|&r| ccdf_series(r.name(), query_counts_unfiltered45(ft, r), LO, HI, POINTS))
        .collect()
}

/// Table A.2: lognormal fit of queries per active session for a region.
///
/// Counts are integers produced by rounding a continuous law up
/// (a session with 0 < X ≤ 1 "intensity" issues one query), so the fit
/// applies a midpoint continuity correction (n − ½) before the log-MLE;
/// without it the atom at n = 1 (ln = 0) badly compresses σ.
pub fn fit_queries(ft: &FilteredTrace, region: Region) -> Result<Lognormal, stats::StatsError> {
    let corrected: Vec<f64> = query_counts(ft, region).iter().map(|&n| n - 0.5).collect();
    fit_lognormal(&corrected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::test_util::session;
    use crate::filter::{FilterReport, FilteredTrace};

    fn ft_with_counts(region: Region, counts: &[u32]) -> FilteredTrace {
        let sessions = counts
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let offsets: Vec<u64> = (0..n).map(|k| 10 + u64::from(k) * 20).collect();
                session(region, i as u64 * 4000, 4000, &offsets)
            })
            .collect();
        FilteredTrace {
            sessions,
            report: FilterReport::default(),
        }
    }

    #[test]
    fn counts_exclude_passive() {
        let ft = ft_with_counts(Region::Europe, &[0, 1, 3, 5]);
        let c = query_counts(&ft, Region::Europe);
        assert_eq!(c, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ccdf_reflects_counts() {
        let ft = ft_with_counts(Region::Asia, &[1, 1, 1, 1, 1, 1, 1, 1, 1, 10]);
        let s = ccdf_by_region(&ft);
        assert_eq!(s.len(), 1);
        // 10 % of sessions exceed 5 queries.
        let y = s[0].interpolate(5.0).unwrap();
        assert!((y - 0.1).abs() < 0.02, "ccdf(5) = {y}");
    }

    #[test]
    fn fit_recovers_lognormal() {
        use rand::SeedableRng;
        use stats::dist::Continuous;
        // Europe Table A.2: σ = 1.306, µ = 0.520 — generate counts, fit.
        let truth = Lognormal::new(0.520, 1.306).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let counts: Vec<u32> = truth
            .sample_n(&mut rng, 30_000)
            .into_iter()
            .map(|x| (x.ceil() as u32).clamp(1, 500))
            .collect();
        let ft = ft_with_counts(Region::Europe, &counts);
        let fit = fit_queries(&ft, Region::Europe).unwrap();
        // Counts are integers: the ceil() discretization shifts the
        // log-mean up by E[ln⌈X⌉ − ln X] ≈ 0.4 for these parameters (the
        // paper fitted CCDF curves, which hides the same effect). Accept
        // the documented bias band.
        assert!((fit.mu() - 0.520).abs() < 0.50, "mu {}", fit.mu());
        assert!((fit.sigma() - 1.306).abs() < 0.30, "sigma {}", fit.sigma());
    }

    #[test]
    fn unfiltered_variant_counts_flagged_queries() {
        use crate::filter::FilteredQuery;
        use gnutella::QueryId;
        use simnet::SimTime;
        let mut s = session(Region::Asia, 0, 4000, &[10]);
        // Add 5 flagged queries.
        for i in 0..5 {
            s.queries.push(FilteredQuery {
                at: SimTime::from_millis(20_000 + i * 500),
                key: QueryId::intern(&format!("f{i}")).canonical(),
                flagged45: true,
            });
        }
        let ft = FilteredTrace {
            sessions: vec![s],
            report: FilterReport::default(),
        };
        assert_eq!(query_counts(&ft, Region::Asia), vec![1.0]);
        assert_eq!(query_counts_unfiltered45(&ft, Region::Asia), vec![6.0]);
        let with = ccdf_by_region_unfiltered45(&ft);
        assert_eq!(with.len(), 1);
    }
}
