//! Conditional characterization of session behavior (§4.3–§4.5).
//!
//! Each submodule reproduces one measure family, in both forms the paper
//! uses: CCDF series for the figures and fitted appendix models for the
//! tables. All CCDFs are evaluated on log-spaced grids matching the
//! paper's log-log axes.

pub mod first_query;
pub mod histograms;
pub mod interarrival;
pub mod last_query;
pub mod passive;
pub mod passive_fraction;
pub mod queries;

use crate::filter::FilteredSession;
use geoip::Region;
use stats::{Ecdf, Series};

/// Build a labeled CCDF series over `samples` (log-spaced, `points`
/// evaluation points between `lo` and `hi`). Returns `None` when there
/// are no samples.
pub(crate) fn ccdf_series(
    label: &str,
    samples: Vec<f64>,
    lo: f64,
    hi: f64,
    points: usize,
) -> Option<Series> {
    let ecdf = Ecdf::new(samples).ok()?;
    let mut s = ecdf.ccdf_series_log(lo, hi, points).ok()?;
    s.label = label.to_string();
    Some(s)
}

/// Filter sessions belonging to `region`.
pub(crate) fn in_region(
    sessions: &[FilteredSession],
    region: Region,
) -> impl Iterator<Item = &FilteredSession> {
    sessions.iter().filter(move |s| s.region == region)
}

/// Filter sessions starting within the 1-hour key period at `start_hour`.
pub(crate) fn in_period(
    sessions: &[FilteredSession],
    region: Region,
    start_hour: u32,
) -> impl Iterator<Item = &FilteredSession> {
    sessions
        .iter()
        .filter(move |s| s.region == region && s.start_hour() == start_hour)
}

#[cfg(test)]
pub(crate) mod test_util {
    use crate::filter::{FilteredQuery, FilteredSession};
    use geoip::Region;
    use gnutella::QueryId;
    use simnet::SimTime;

    /// Build a synthetic filtered session.
    pub(crate) fn session(
        region: Region,
        start_s: u64,
        dur_s: u64,
        query_offsets: &[u64],
    ) -> FilteredSession {
        FilteredSession {
            region,
            ultrapeer: false,
            user_agent: "T/1".into(),
            start: SimTime::from_secs(start_s),
            end: SimTime::from_secs(start_s + dur_s),
            queries: query_offsets
                .iter()
                .enumerate()
                .map(|(i, &off)| FilteredQuery {
                    at: SimTime::from_secs(start_s + off),
                    key: QueryId::intern(&format!("q{i} word{i}")).canonical(),
                    flagged45: false,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ccdf_series_handles_empty() {
        assert!(ccdf_series("x", vec![], 1.0, 10.0, 5).is_none());
        let s = ccdf_series("lbl", vec![1.0, 5.0, 50.0], 1.0, 100.0, 10).unwrap();
        assert_eq!(s.label, "lbl");
        assert_eq!(s.ys().len(), 10);
    }

    #[test]
    fn region_and_period_filters() {
        use test_util::session;
        let sessions = vec![
            session(Region::Europe, 11 * 3600, 100, &[]),
            session(Region::Europe, 12 * 3600, 100, &[]),
            session(Region::Asia, 11 * 3600 + 60, 100, &[]),
        ];
        assert_eq!(in_region(&sessions, Region::Europe).count(), 2);
        assert_eq!(in_period(&sessions, Region::Europe, 11).count(), 1);
        assert_eq!(in_period(&sessions, Region::Asia, 11).count(), 1);
        assert_eq!(in_period(&sessions, Region::NorthAmerica, 11).count(), 0);
    }
}
