//! Cross-measure correlations (§4.5's explicit findings and §1's summary).
//!
//! The paper's introduction calls out two correlation results verbatim:
//!
//! > "We also find a significant correlation between session duration and
//! > the number of queries issued during the session, but not between
//! > query interarrival time and number of queries issued."
//!
//! (the latter holds for North America; Figure 8(b) shows Europe *is*
//! correlated). This module quantifies both with Spearman rank
//! correlation over the filtered sessions.

use crate::filter::FilteredTrace;
use geoip::Region;
use stats::correlation::spearman;

/// Correlation findings for one region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelationFindings {
    /// Spearman(session duration, #queries) over active sessions.
    pub duration_vs_queries: Option<f64>,
    /// Spearman(interarrival gap, #queries of its session), computed over
    /// individual gaps. Using per-gap pairs avoids the small-sample bias
    /// of per-session median gaps (for right-skewed laws the median of 1–2
    /// gaps overestimates the law's median, which would manufacture a
    /// negative correlation out of nothing).
    pub interarrival_vs_queries: Option<f64>,
    /// Active sessions contributing to the first measure.
    pub n_active: usize,
    /// Individual gaps contributing to the second measure.
    pub n_gaps: usize,
}

/// Compute the §4.5 correlations for `region`.
pub fn correlations(ft: &FilteredTrace, region: Region) -> CorrelationFindings {
    let mut dur = Vec::new();
    let mut dur_q = Vec::new();
    let mut ia_med = Vec::new();
    let mut ia_q = Vec::new();
    for s in ft.sessions.iter().filter(|s| s.region == region) {
        let n = s.n_queries();
        if n == 0 {
            continue;
        }
        dur.push(s.duration_secs());
        dur_q.push(f64::from(n));
        for g in s.interarrival_samples() {
            ia_med.push(g);
            ia_q.push(f64::from(n));
        }
    }
    let duration_vs_queries = if dur.len() >= 30 {
        spearman(&dur_q, &dur).ok()
    } else {
        None
    };
    let interarrival_vs_queries = if ia_med.len() >= 30 {
        spearman(&ia_q, &ia_med).ok()
    } else {
        None
    };
    CorrelationFindings {
        duration_vs_queries,
        interarrival_vs_queries,
        n_active: dur.len(),
        n_gaps: ia_med.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{FilterReport, FilteredQuery, FilteredSession};
    use gnutella::QueryId;
    use simnet::SimTime;

    /// Synthetic sessions where duration grows with query count but the
    /// gap size is independent of it.
    fn synthetic_ft() -> FilteredTrace {
        let mut sessions = Vec::new();
        for i in 0..200u64 {
            let n = 1 + (i % 12) as u32;
            let gap = 20 + (i * 7919 % 90); // pseudo-random, count-independent
            let queries = (0..n)
                .map(|k| FilteredQuery {
                    at: SimTime::from_secs(i * 100_000 + 100 + u64::from(k) * gap),
                    key: QueryId::intern(&format!("q{i} k{k}")).canonical(),
                    flagged45: false,
                })
                .collect::<Vec<_>>();
            let last = queries.last().unwrap().at;
            sessions.push(FilteredSession {
                region: Region::NorthAmerica,
                ultrapeer: false,
                user_agent: "T/1".into(),
                start: SimTime::from_secs(i * 100_000),
                end: SimTime::from_millis(last.as_millis() + 200_000),
                queries,
            });
        }
        FilteredTrace {
            sessions,
            report: FilterReport::default(),
        }
    }

    #[test]
    fn detects_duration_correlation_and_gap_independence() {
        let ft = synthetic_ft();
        let c = correlations(&ft, Region::NorthAmerica);
        let d = c.duration_vs_queries.unwrap();
        assert!(d > 0.4, "duration correlation {d}");
        let g = c.interarrival_vs_queries.unwrap();
        assert!(g.abs() < 0.2, "gap correlation {g} should be near zero");
        assert_eq!(c.n_active, 200);
        assert!(c.n_gaps > 400);
    }

    #[test]
    fn too_few_sessions_yield_none() {
        let ft = FilteredTrace {
            sessions: vec![],
            report: FilterReport::default(),
        };
        let c = correlations(&ft, Region::Europe);
        assert!(c.duration_vs_queries.is_none());
        assert!(c.interarrival_vs_queries.is_none());
    }
}
