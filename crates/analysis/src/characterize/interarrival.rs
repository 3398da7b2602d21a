//! Query interarrival time (§4.5, Figure 8, Table A.4).

use crate::characterize::{ccdf_series, in_period, in_region};
use crate::filter::FilteredTrace;
use geoip::{DiurnalModel, Region, KEY_PERIODS};
use stats::fit::{fit_body_tail, BodyTailFit, Family};
use stats::Series;

const LO: f64 = 1.0;
const HI: f64 = 10_000.0;
const POINTS: usize = 50;

/// Query-count class of Figure 8(b): `= 2`, `3–7`, `> 7` queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CountClass {
    /// Exactly two queries (one gap).
    Two,
    /// Three to seven queries.
    ThreeToSeven,
    /// More than seven.
    Gt7,
}

impl CountClass {
    /// All classes.
    pub(crate) const ALL: [CountClass; 3] =
        [CountClass::Two, CountClass::ThreeToSeven, CountClass::Gt7];

    /// Classify a session's query count (sessions with < 2 queries have no
    /// interarrival samples).
    pub(crate) fn of(n: u32) -> Option<CountClass> {
        match n {
            0 | 1 => None,
            2 => Some(CountClass::Two),
            3..=7 => Some(CountClass::ThreeToSeven),
            _ => Some(CountClass::Gt7),
        }
    }

    /// Figure label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            CountClass::Two => "= 2 Queries",
            CountClass::ThreeToSeven => "3-7 Queries",
            CountClass::Gt7 => "> 7 Queries",
        }
    }
}

/// All interarrival samples (seconds) for a region.
pub fn interarrival_samples(ft: &FilteredTrace, region: Region) -> Vec<f64> {
    in_region(&ft.sessions, region)
        .flat_map(|s| s.interarrival_samples())
        .filter(|&g| g > 0.0)
        .collect()
}

/// Figure 8(a): CCDF by region.
pub fn ccdf_by_region(ft: &FilteredTrace) -> Vec<Series> {
    Region::CHARACTERIZED
        .iter()
        .filter_map(|&r| ccdf_series(r.name(), interarrival_samples(ft, r), LO, HI, POINTS))
        .collect()
}

/// Figure 8(b): CCDF conditioned on session query count, one region
/// (the paper shows Europe).
pub fn ccdf_by_count_class(ft: &FilteredTrace, region: Region) -> Vec<Series> {
    CountClass::ALL
        .iter()
        .filter_map(|&c| {
            let samples: Vec<f64> = in_region(&ft.sessions, region)
                .filter(|s| CountClass::of(s.n_queries()) == Some(c))
                .flat_map(|s| s.interarrival_samples())
                .filter(|&g| g > 0.0)
                .collect();
            ccdf_series(c.label(), samples, LO, HI, POINTS)
        })
        .collect()
}

/// Figure 8(c): CCDF per key period (by session start), one region.
pub fn ccdf_by_period(ft: &FilteredTrace, region: Region) -> Vec<Series> {
    KEY_PERIODS
        .iter()
        .filter_map(|p| {
            let samples: Vec<f64> = in_period(&ft.sessions, region, p.start_hour)
                .flat_map(|s| s.interarrival_samples())
                .filter(|&g| g > 0.0)
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

/// Table A.4: lognormal body ‖ Pareto tail fit at the paper's 103 s split,
/// conditioned on peak/non-peak (by session start hour).
pub fn fit_interarrival(
    ft: &FilteredTrace,
    region: Region,
    peak: bool,
    diurnal: &DiurnalModel,
) -> Result<BodyTailFit, stats::StatsError> {
    let samples: Vec<f64> = in_region(&ft.sessions, region)
        .filter(|s| diurnal.is_peak(region, s.start_hour()) == peak)
        .flat_map(|s| s.interarrival_samples())
        .filter(|&g| g > 0.0)
        .collect();
    fit_body_tail(&samples, 103.0, Family::Lognormal, Family::Pareto)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::test_util::session;
    use crate::filter::{FilterReport, FilteredTrace};
    use rand::SeedableRng;
    use stats::dist::{BodyTail, Continuous, Lognormal, Pareto};

    #[test]
    fn count_classes() {
        assert_eq!(CountClass::of(1), None);
        assert_eq!(CountClass::of(2), Some(CountClass::Two));
        assert_eq!(CountClass::of(5), Some(CountClass::ThreeToSeven));
        assert_eq!(CountClass::of(12), Some(CountClass::Gt7));
    }

    /// Build sessions whose gaps are drawn from the Table A.4 peak model.
    fn ft_from_model(region: Region, hour: u32, n_sessions: usize) -> FilteredTrace {
        let truth = BodyTail::new(
            Lognormal::new(3.353, 1.625).unwrap(),
            Pareto::new(0.9041, 103.0).unwrap(),
            103.0,
            0.70,
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(55);
        let sessions = (0..n_sessions)
            .map(|i| {
                let mut offsets = vec![10u64];
                let mut t = 10.0f64;
                for _ in 0..6 {
                    t += truth.sample(&mut rng).clamp(1.5, 50_000.0);
                    offsets.push(t as u64);
                }
                session(
                    region,
                    u64::from(hour) * 3600 + (i as u64 % 50) * 70,
                    (t as u64) + 500,
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
    fn fit_recovers_table_a4() {
        // Hour 3 = NA peak.
        let ft = ft_from_model(Region::NorthAmerica, 3, 6_000);
        let diurnal = DiurnalModel::paper_default();
        let fit = fit_interarrival(&ft, Region::NorthAmerica, true, &diurnal).unwrap();
        assert!(
            (fit.body_weight - 0.70).abs() < 0.05,
            "w {}",
            fit.body_weight
        );
        match fit.tail {
            stats::fit::SideFit::Pareto(p) => {
                assert!((p.alpha() - 0.9041).abs() < 0.12, "alpha {}", p.alpha());
                assert_eq!(p.beta(), 103.0);
            }
            other => panic!("unexpected tail {other:?}"),
        }
    }

    #[test]
    fn ccdf_variants() {
        let ft = ft_from_model(Region::Europe, 11, 300);
        assert_eq!(ccdf_by_region(&ft).len(), 1);
        let by_class = ccdf_by_count_class(&ft, Region::Europe);
        assert_eq!(by_class.len(), 1); // all sessions have 7 queries
        assert_eq!(by_class[0].label, "3-7 Queries");
        let by_period = ccdf_by_period(&ft, Region::Europe);
        assert_eq!(by_period.len(), 1);
    }

    #[test]
    fn single_query_sessions_have_no_samples() {
        let ft = FilteredTrace {
            sessions: vec![session(Region::Asia, 0, 1_000, &[100])],
            report: FilterReport::default(),
        };
        assert!(interarrival_samples(&ft, Region::Asia).is_empty());
    }
}
