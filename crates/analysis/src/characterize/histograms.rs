//! Incremental per-region session histograms (§4.3–§4.5, streaming form).
//!
//! The figure-path CCDFs ([`crate::characterize`] submodules) evaluate an
//! empirical CDF over the raw per-session samples, which requires the
//! whole filtered trace in memory. Streaming campaigns instead fold each
//! session into fixed-size log-binned histograms the moment it closes:
//! one [`LogHistogram`] per characterized region for each §4.3–§4.5
//! measure. Histogram bin counts are order-independent sums, so the
//! streaming accumulation is bit-identical to a batch pass over the same
//! filtered sessions — a property the equivalence tests enforce.

use crate::filter::{FilteredSession, FilteredTrace};
use geoip::Region;
use stats::histogram::LogHistogram;

/// Log-grid lower bound shared by all measures (seconds / minutes /
/// counts ≥ 1; smaller samples land in the underflow bin).
pub(crate) const HIST_LO: f64 = 1.0;
/// Log-grid upper bound (100k covers 40 days of minutes and the longest
/// interarrival gaps; larger samples land in the overflow bin).
pub(crate) const HIST_HI: f64 = 100_000.0;
/// Bins per histogram (12 per decade, matching the paper's log axes).
pub(crate) const HIST_POINTS: usize = 60;

fn empty() -> [LogHistogram; 3] {
    std::array::from_fn(|_| {
        LogHistogram::new(HIST_LO, HIST_HI, HIST_POINTS).expect("valid static range")
    })
}

/// Per-region (indexed by position in [`Region::CHARACTERIZED`])
/// log-histograms of the conditional session measures.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionHistograms {
    /// Passive session durations, minutes (§4.3, Figure 5).
    pub(crate) passive_duration_min: [LogHistogram; 3],
    /// Active session durations, minutes (§4.3).
    pub(crate) active_duration_min: [LogHistogram; 3],
    /// Queries per active session (§4.4, Figure 6).
    pub(crate) queries_per_active: [LogHistogram; 3],
    /// Seconds from session start to first query (§4.5, Figure 7).
    pub(crate) time_to_first_s: [LogHistogram; 3],
    /// Seconds between consecutive unflagged queries (§4.5, Figure 8).
    pub(crate) interarrival_s: [LogHistogram; 3],
    /// Seconds from last query to session end (§4.5, Figure 9).
    pub(crate) time_after_last_s: [LogHistogram; 3],
    /// Sessions folded in, per region (passive + active).
    pub(crate) sessions: [u64; 3],
}

impl Default for SessionHistograms {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionHistograms {
    /// Empty histogram set.
    pub(crate) fn new() -> SessionHistograms {
        SessionHistograms {
            passive_duration_min: empty(),
            active_duration_min: empty(),
            queries_per_active: empty(),
            time_to_first_s: empty(),
            interarrival_s: empty(),
            time_after_last_s: empty(),
            sessions: [0; 3],
        }
    }

    /// Fold one filtered session in. Sessions from [`Region::Other`] are
    /// skipped — the paper characterizes the three major regions only.
    pub(crate) fn add_session(&mut self, s: &FilteredSession) {
        let Some(i) = Region::CHARACTERIZED.iter().position(|r| *r == s.region) else {
            return;
        };
        self.sessions[i] += 1;
        if s.is_passive() {
            self.passive_duration_min[i].add(s.duration_secs() / 60.0);
            return;
        }
        self.active_duration_min[i].add(s.duration_secs() / 60.0);
        self.queries_per_active[i].add(f64::from(s.n_queries()));
        if let Some(t) = s.time_to_first_query() {
            self.time_to_first_s[i].add(t);
        }
        if let Some(t) = s.time_after_last_query() {
            self.time_after_last_s[i].add(t);
        }
        for gap in s.interarrival_samples() {
            self.interarrival_s[i].add(gap);
        }
    }

    /// Batch form: fold every session of a filtered trace.
    pub fn from_filtered(ft: &FilteredTrace) -> SessionHistograms {
        let mut h = SessionHistograms::new();
        for s in &ft.sessions {
            h.add_session(s);
        }
        h
    }

    /// Absorb another histogram set (shard merge).
    pub(crate) fn merge(&mut self, other: &SessionHistograms) {
        let pairs = [
            (&mut self.passive_duration_min, &other.passive_duration_min),
            (&mut self.active_duration_min, &other.active_duration_min),
            (&mut self.queries_per_active, &other.queries_per_active),
            (&mut self.time_to_first_s, &other.time_to_first_s),
            (&mut self.interarrival_s, &other.interarrival_s),
            (&mut self.time_after_last_s, &other.time_after_last_s),
        ];
        for (mine, theirs) in pairs {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.merge(b).expect("identical static ranges");
            }
        }
        for (a, b) in self.sessions.iter_mut().zip(&other.sessions) {
            *a += b;
        }
    }

    /// Total sessions folded in across the characterized regions.
    pub fn total_sessions(&self) -> u64 {
        self.sessions.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::test_util::session;
    use crate::filter::FilterReport;

    fn trace() -> FilteredTrace {
        FilteredTrace {
            sessions: vec![
                session(Region::Europe, 1_000, 5_000, &[120, 240, 1_200]),
                session(Region::Europe, 9_000, 300, &[]), // passive
                session(Region::NorthAmerica, 2_000, 900, &[30]),
                session(Region::Asia, 4_000, 86_400 * 2, &[7_200]),
                session(Region::Other, 5_000, 600, &[60]), // skipped
            ],
            report: FilterReport::default(),
        }
    }

    #[test]
    fn folds_measures_by_region() {
        let h = SessionHistograms::from_filtered(&trace());
        assert_eq!(h.sessions, [1, 2, 1]);
        assert_eq!(h.total_sessions(), 4);
        // Europe: one active + one passive session.
        assert_eq!(h.active_duration_min[1].total(), 1);
        assert_eq!(h.passive_duration_min[1].total(), 1);
        // The active Europe session had 3 unflagged queries → 2 gaps.
        assert_eq!(h.queries_per_active[1].total(), 1);
        assert_eq!(h.interarrival_s[1].total(), 2);
        assert_eq!(h.time_to_first_s[1].total(), 1);
        assert_eq!(h.time_after_last_s[1].total(), 1);
        // Other-region session contributes nowhere.
        assert_eq!(
            h.sessions.iter().sum::<u64>(),
            trace()
                .sessions
                .iter()
                .filter(|s| s.region != Region::Other)
                .count() as u64
        );
    }

    #[test]
    fn merge_equals_single_pass() {
        let t = trace();
        let whole = SessionHistograms::from_filtered(&t);
        let mut a = SessionHistograms::new();
        let mut b = SessionHistograms::new();
        for (i, s) in t.sessions.iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.add_session(s);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }
}
