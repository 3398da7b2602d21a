//! Time after the last query (§4.5, Figure 9, Table A.5).

use crate::characterize::{ccdf_series, in_region};
use crate::filter::FilteredTrace;
use geoip::{DiurnalModel, Region, KEY_PERIODS};
use stats::dist::Lognormal;
use stats::fit::fit_lognormal;
use stats::Series;

const LO: f64 = 1.0;
const HI: f64 = 100_000.0;
const POINTS: usize = 60;

/// Query-count class of Figure 9(b): 1, 2, 3–7, 8, > 8 queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FigureClass {
    /// One query.
    One,
    /// Two queries.
    Two,
    /// Three to seven.
    ThreeToSeven,
    /// Exactly eight.
    Eight,
    /// More than eight.
    Gt8,
}

impl FigureClass {
    /// All figure classes.
    pub(crate) const ALL: [FigureClass; 5] = [
        FigureClass::One,
        FigureClass::Two,
        FigureClass::ThreeToSeven,
        FigureClass::Eight,
        FigureClass::Gt8,
    ];

    /// Classify.
    pub(crate) fn of(n: u32) -> Option<FigureClass> {
        match n {
            0 => None,
            1 => Some(FigureClass::One),
            2 => Some(FigureClass::Two),
            3..=7 => Some(FigureClass::ThreeToSeven),
            8 => Some(FigureClass::Eight),
            _ => Some(FigureClass::Gt8),
        }
    }

    /// Figure label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            FigureClass::One => "1 Query",
            FigureClass::Two => "2 Queries",
            FigureClass::ThreeToSeven => "3-7 Queries",
            FigureClass::Eight => "8 Queries",
            FigureClass::Gt8 => ">8 Queries",
        }
    }
}

/// Table A.5 model class: 1, 2–7, > 7 queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelClass {
    /// One query.
    One,
    /// Two to seven queries.
    TwoToSeven,
    /// More than seven.
    Gt7,
}

impl ModelClass {
    /// All model classes.
    pub const ALL: [ModelClass; 3] = [ModelClass::One, ModelClass::TwoToSeven, ModelClass::Gt7];

    /// Classify.
    pub(crate) fn of(n: u32) -> Option<ModelClass> {
        match n {
            0 => None,
            1 => Some(ModelClass::One),
            2..=7 => Some(ModelClass::TwoToSeven),
            _ => Some(ModelClass::Gt7),
        }
    }

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            ModelClass::One => "1 query",
            ModelClass::TwoToSeven => "2-7 queries",
            ModelClass::Gt7 => "> 7 queries",
        }
    }
}

/// Time-after-last-query samples (seconds) for a region.
pub(crate) fn time_after_last_samples(ft: &FilteredTrace, region: Region) -> Vec<f64> {
    in_region(&ft.sessions, region)
        .filter_map(|s| s.time_after_last_query())
        .filter(|&t| t > 0.0)
        .collect()
}

/// Figure 9(a): CCDF by region.
pub fn ccdf_by_region(ft: &FilteredTrace) -> Vec<Series> {
    Region::CHARACTERIZED
        .iter()
        .filter_map(|&r| ccdf_series(r.name(), time_after_last_samples(ft, r), LO, HI, POINTS))
        .collect()
}

/// Figure 9(b): CCDF conditioned on query count, one region.
pub fn ccdf_by_count_class(ft: &FilteredTrace, region: Region) -> Vec<Series> {
    FigureClass::ALL
        .iter()
        .filter_map(|&c| {
            let samples: Vec<f64> = in_region(&ft.sessions, region)
                .filter(|s| FigureClass::of(s.n_queries()) == Some(c))
                .filter_map(|s| s.time_after_last_query())
                .filter(|&t| t > 0.0)
                .collect();
            ccdf_series(c.label(), samples, LO, HI, POINTS)
        })
        .collect()
}

/// Figure 9(c): CCDF per key period of the *last query* time, one region.
pub fn ccdf_by_last_query_period(ft: &FilteredTrace, region: Region) -> Vec<Series> {
    KEY_PERIODS
        .iter()
        .filter_map(|p| {
            let samples: Vec<f64> = in_region(&ft.sessions, region)
                .filter(|s| s.last_query_hour() == Some(p.start_hour))
                .filter_map(|s| s.time_after_last_query())
                .filter(|&t| t > 0.0)
                .collect();
            ccdf_series(
                &format!(
                    "Last Query at {:02}:00-{:02}:00",
                    p.start_hour,
                    p.start_hour + 1
                ),
                samples,
                LO,
                HI,
                POINTS,
            )
        })
        .collect()
}

/// Table A.5: lognormal fit conditioned on period and query-count class.
pub fn fit_time_after_last(
    ft: &FilteredTrace,
    region: Region,
    peak: bool,
    class: ModelClass,
    diurnal: &DiurnalModel,
) -> Result<Lognormal, stats::StatsError> {
    let samples: Vec<f64> = in_region(&ft.sessions, region)
        .filter(|s| {
            ModelClass::of(s.n_queries()) == Some(class)
                && s.last_query_hour()
                    .map(|h| diurnal.is_peak(region, h) == peak)
                    .unwrap_or(false)
        })
        .filter_map(|s| s.time_after_last_query())
        .filter(|&t| t > 0.0)
        .collect();
    fit_lognormal(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::test_util::session;
    use crate::filter::{FilterReport, FilteredTrace};
    use rand::SeedableRng;
    use stats::dist::Continuous;

    #[test]
    fn classes() {
        assert_eq!(FigureClass::of(0), None);
        assert_eq!(FigureClass::of(8), Some(FigureClass::Eight));
        assert_eq!(FigureClass::of(9), Some(FigureClass::Gt8));
        assert_eq!(ModelClass::of(5), Some(ModelClass::TwoToSeven));
        assert_eq!(ModelClass::of(20), Some(ModelClass::Gt7));
    }

    fn ft_with_tail_times(
        region: Region,
        hour: u32,
        tails: &[f64],
        n_queries: u32,
    ) -> FilteredTrace {
        let sessions = tails
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                // Queries at 100, 130, …; session ends `t` after the last.
                let offsets: Vec<u64> = (0..n_queries).map(|k| 100 + u64::from(k) * 30).collect();
                let last = *offsets.last().unwrap();
                session(
                    region,
                    u64::from(hour) * 3600 + (i as u64 % 50) * 60,
                    last + t as u64,
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
    fn fit_recovers_table_a5() {
        // Table A.5 NA peak, 2–7 queries: σ = 2.259, µ = 5.686.
        let truth = Lognormal::new(5.686, 2.259).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(66);
        let tails: Vec<f64> = truth
            .sample_n(&mut rng, 20_000)
            .into_iter()
            .map(|x| x.clamp(1.0, 500_000.0))
            .collect();
        let ft = ft_with_tail_times(Region::NorthAmerica, 3, &tails, 4);
        let diurnal = DiurnalModel::paper_default();
        let fit = fit_time_after_last(
            &ft,
            Region::NorthAmerica,
            true,
            ModelClass::TwoToSeven,
            &diurnal,
        )
        .unwrap();
        assert!((fit.mu() - 5.686).abs() < 0.1, "mu {}", fit.mu());
        assert!((fit.sigma() - 2.259).abs() < 0.1, "sigma {}", fit.sigma());
        // The wrong class has no samples.
        assert!(
            fit_time_after_last(&ft, Region::NorthAmerica, true, ModelClass::One, &diurnal)
                .is_err()
        );
    }

    #[test]
    fn ccdf_variants() {
        let ft = ft_with_tail_times(Region::Europe, 19, &[10.0, 100.0, 1_000.0, 10_000.0], 2);
        assert_eq!(ccdf_by_region(&ft).len(), 1);
        let by_class = ccdf_by_count_class(&ft, Region::Europe);
        assert_eq!(by_class.len(), 1);
        assert_eq!(by_class[0].label, "2 Queries");
        // Last query at 19:00 hour + 130 s → still hour 19.
        let by_period = ccdf_by_last_query_period(&ft, Region::Europe);
        assert_eq!(by_period.len(), 1);
        assert!(by_period[0].label.contains("19:00"));
    }
}
