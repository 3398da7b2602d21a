//! Time until the first query (§4.5, Figure 7, Table A.3).

use crate::characterize::{ccdf_series, in_period, in_region};
use crate::filter::FilteredTrace;
use geoip::{DiurnalModel, Region, KEY_PERIODS};
use stats::fit::BodyTailFit;
use stats::Series;

const LO: f64 = 1.0;
const HI: f64 = 100_000.0;
const POINTS: usize = 60;

/// Query-count class of Table A.3 / Figure 7(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountClass {
    /// Fewer than 3 queries.
    Lt3,
    /// Exactly 3 queries.
    Eq3,
    /// More than 3 queries.
    Gt3,
}

impl CountClass {
    /// All classes.
    pub const ALL: [CountClass; 3] = [CountClass::Lt3, CountClass::Eq3, CountClass::Gt3];

    /// Classify a count.
    pub(crate) fn of(n: u32) -> CountClass {
        match n {
            0..=2 => CountClass::Lt3,
            3 => CountClass::Eq3,
            _ => CountClass::Gt3,
        }
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            CountClass::Lt3 => "< 3 Queries",
            CountClass::Eq3 => "= 3 Queries",
            CountClass::Gt3 => "> 3 Queries",
        }
    }
}

/// Time-to-first-query samples (seconds) for active sessions of a region.
pub(crate) fn first_query_delays(ft: &FilteredTrace, region: Region) -> Vec<f64> {
    in_region(&ft.sessions, region)
        .filter_map(|s| s.time_to_first_query())
        .filter(|&t| t > 0.0)
        .collect()
}

/// Figure 7(a): CCDF by region.
pub fn ccdf_by_region(ft: &FilteredTrace) -> Vec<Series> {
    Region::CHARACTERIZED
        .iter()
        .filter_map(|&r| ccdf_series(r.name(), first_query_delays(ft, r), LO, HI, POINTS))
        .collect()
}

/// Figure 7(b): CCDF conditioned on the session's query count, one region
/// (the paper shows North America).
pub fn ccdf_by_count_class(ft: &FilteredTrace, region: Region) -> Vec<Series> {
    CountClass::ALL
        .iter()
        .filter_map(|&c| {
            let samples: Vec<f64> = in_region(&ft.sessions, region)
                .filter(|s| !s.is_passive() && CountClass::of(s.n_queries()) == c)
                .filter_map(|s| s.time_to_first_query())
                .filter(|&t| t > 0.0)
                .collect();
            ccdf_series(c.label(), samples, LO, HI, POINTS)
        })
        .collect()
}

/// Figure 7(c): CCDF per key period, one region (the paper shows Europe).
pub fn ccdf_by_period(ft: &FilteredTrace, region: Region) -> Vec<Series> {
    KEY_PERIODS
        .iter()
        .filter_map(|p| {
            let samples: Vec<f64> = in_period(&ft.sessions, region, p.start_hour)
                .filter_map(|s| s.time_to_first_query())
                .filter(|&t| t > 0.0)
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

/// Observation cap for tail fitting (seconds): delays beyond this sit in
/// sessions long enough to be right-censored at the trace boundary.
pub(crate) const TAIL_FIT_WINDOW_SECS: f64 = 86_400.0;

/// Table A.3: Weibull body ‖ lognormal tail fit, conditioned on period and
/// query-count class, for a region. The split point follows the paper:
/// 45 s for peak periods, 120 s for non-peak. Both sides are fitted with
/// truncation-aware MLEs over their observation windows, so the reported
/// parameters describe the untruncated components (the appendix
/// convention).
pub fn fit_first_query(
    ft: &FilteredTrace,
    region: Region,
    peak: bool,
    class: CountClass,
    diurnal: &DiurnalModel,
) -> Result<BodyTailFit, stats::StatsError> {
    use stats::fit::{fit_lognormal_truncated, fit_weibull_truncated, SideFit};
    let split = if peak { 45.0 } else { 120.0 };
    let samples: Vec<f64> = in_region(&ft.sessions, region)
        .filter(|s| {
            !s.is_passive()
                && CountClass::of(s.n_queries()) == class
                && diurnal.is_peak(region, s.start_hour()) == peak
        })
        .filter_map(|s| s.time_to_first_query())
        .filter(|&t| t > 0.0)
        .collect();
    let (body, tail): (Vec<f64>, Vec<f64>) = samples.iter().partition(|&&x| x < split);
    let n = body.len() + tail.len();
    if n < 4 {
        return Err(stats::StatsError::NotEnoughData { needed: 4, got: n });
    }
    let tail_windowed: Vec<f64> = tail
        .iter()
        .copied()
        .filter(|&x| x < TAIL_FIT_WINDOW_SECS)
        .collect();
    let body_fit = fit_weibull_truncated(&body, None, Some(split))?;
    let tail_fit =
        fit_lognormal_truncated(&tail_windowed, Some(split), Some(TAIL_FIT_WINDOW_SECS))?;
    Ok(BodyTailFit {
        split,
        body_weight: body.len() as f64 / n as f64,
        body: SideFit::Weibull(body_fit),
        tail: SideFit::Lognormal(tail_fit),
        n_body: body.len(),
        n_tail: tail.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::test_util::session;
    use crate::filter::{FilterReport, FilteredTrace};
    use rand::SeedableRng;
    use stats::dist::{BodyTail, Continuous, Lognormal, Weibull};

    #[test]
    fn count_classes() {
        assert_eq!(CountClass::of(1), CountClass::Lt3);
        assert_eq!(CountClass::of(3), CountClass::Eq3);
        assert_eq!(CountClass::of(9), CountClass::Gt3);
    }

    fn ft_from_delays(region: Region, hour: u32, delays: &[f64], n_queries: u32) -> FilteredTrace {
        let sessions = delays
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                // First query at delay d, remaining queries spaced 30 s.
                let offsets: Vec<u64> = (0..n_queries)
                    .map(|k| d as u64 + u64::from(k) * 30)
                    .collect();
                session(
                    region,
                    u64::from(hour) * 3600 + (i as u64 % 60) * 60,
                    200_000,
                    &offsets,
                )
            })
            .collect();
        FilteredTrace {
            sessions,
            report: FilterReport::default(),
        }
    }

    #[test]
    fn fit_recovers_table_a3_peak_lt3() {
        // Ground truth: Table A.3, NA peak, <3 queries.
        let truth = BodyTail::new(
            Weibull::new(1.477, 0.005252).unwrap(),
            Lognormal::new(5.091, 2.905).unwrap(),
            45.0,
            0.5,
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let delays: Vec<f64> = truth
            .sample_n(&mut rng, 20_000)
            .into_iter()
            .map(|x| x.max(1.0))
            .collect();
        // Hour 3 is NA peak.
        let ft = ft_from_delays(Region::NorthAmerica, 3, &delays, 2);
        let diurnal = DiurnalModel::paper_default();
        let fit =
            fit_first_query(&ft, Region::NorthAmerica, true, CountClass::Lt3, &diurnal).unwrap();
        assert!(
            (fit.body_weight - 0.5).abs() < 0.03,
            "w {}",
            fit.body_weight
        );
        match fit.body {
            stats::fit::SideFit::Weibull(w) => {
                assert!(w.alpha() > 1.1 && w.alpha() < 2.2, "alpha {}", w.alpha());
            }
            other => panic!("unexpected body {other:?}"),
        }
        match fit.tail {
            stats::fit::SideFit::Lognormal(l) => {
                assert!((l.mu() - 5.091).abs() < 0.35, "tail mu {}", l.mu());
                assert!((l.sigma() - 2.905).abs() < 0.30, "tail sigma {}", l.sigma());
            }
            other => panic!("unexpected tail {other:?}"),
        }
    }

    #[test]
    fn ccdf_variants_produce_series() {
        let ft = ft_from_delays(Region::Europe, 11, &[5.0, 20.0, 100.0, 400.0, 2_000.0], 4);
        assert_eq!(ccdf_by_region(&ft).len(), 1);
        let by_class = ccdf_by_count_class(&ft, Region::Europe);
        assert_eq!(by_class.len(), 1); // all sessions have 4 queries (>3)
        assert_eq!(by_class[0].label, "> 3 Queries");
        let by_period = ccdf_by_period(&ft, Region::Europe);
        assert_eq!(by_period.len(), 1);
        assert!(by_period[0].label.contains("11:00"));
    }

    #[test]
    fn passive_sessions_contribute_nothing() {
        let ft = FilteredTrace {
            sessions: vec![session(Region::Asia, 0, 1_000, &[])],
            report: FilterReport::default(),
        };
        assert!(first_query_delays(&ft, Region::Asia).is_empty());
        assert!(ccdf_by_region(&ft).is_empty());
    }
}
