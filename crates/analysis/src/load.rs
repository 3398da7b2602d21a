//! Query load vs time of day (§4.2, Figure 3).
//!
//! The number of (filtered, unflagged) queries received from each region
//! in 30-minute bins, averaged over days, with min/max across days.

use crate::filter::{FilteredSession, FilteredTrace};
use geoip::Region;
use stats::histogram::TimeOfDayBins;
use stats::Series;

/// The three curves of one Figure 3 panel.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPanel {
    /// Per-bin average across days.
    pub average: Series,
    /// Per-bin minimum across days.
    pub(crate) min: Series,
    /// Per-bin maximum across days.
    pub(crate) max: Series,
    /// Total query count for the region.
    pub total: u64,
}

/// Incremental query-load accumulator: per-region 30-minute time-of-day
/// bins plus totals, fed one filtered session at a time. The batch
/// [`query_load_by_time`] and the streaming pipeline both accumulate
/// through `LoadAccumulator::add_session`, so their panels are
/// bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadAccumulator {
    /// Per [`Region::index`], the binned unflagged-query counts.
    bins: [TimeOfDayBins; 4],
    /// Per [`Region::index`], the total unflagged-query count.
    totals: [u64; 4],
}

impl Default for LoadAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl LoadAccumulator {
    /// Empty accumulator with the Figure 3 bin width (30 minutes).
    pub(crate) fn new() -> LoadAccumulator {
        LoadAccumulator {
            bins: std::array::from_fn(|_| TimeOfDayBins::new(1_800).expect("1800 s divides a day")),
            totals: [0; 4],
        }
    }

    /// Count one session's unflagged queries into its region's bins.
    pub(crate) fn add_session(&mut self, s: &FilteredSession) {
        let i = s.region.index();
        for q in s.queries.iter().filter(|q| !q.flagged45) {
            self.bins[i].count_at(q.at.as_secs());
            self.totals[i] += 1;
        }
    }

    /// Absorb another accumulator (shard merge).
    pub(crate) fn merge(&mut self, other: &LoadAccumulator) {
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            mine.merge(theirs).expect("identical bin widths");
        }
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            *a += b;
        }
    }

    /// Render one region's Figure 3 panel.
    pub fn panel(&self, region: Region) -> LoadPanel {
        let bins = &self.bins[region.index()];
        let mut average = bins.average_series();
        average.label = "Average".into();
        let mut min = bins.min_series();
        min.label = "Min".into();
        let mut max = bins.max_series();
        max.label = "Max".into();
        LoadPanel {
            average,
            min,
            max,
            total: self.totals[region.index()],
        }
    }

    /// Estimated heap footprint in bytes.
    pub(crate) fn mem_bytes(&self) -> u64 {
        self.bins.iter().map(|b| b.mem_bytes()).sum()
    }
}

/// Compute the Figure 3 panel for one region (30-minute bins).
pub fn query_load_by_time(ft: &FilteredTrace, region: Region) -> LoadPanel {
    let mut acc = LoadAccumulator::new();
    for s in ft.sessions.iter().filter(|s| s.region == region) {
        acc.add_session(s);
    }
    acc.panel(region)
}

/// Identify the peak bin (hour-of-day of the highest average load).
pub fn peak_hour(panel: &LoadPanel) -> f64 {
    let mut best = (0.0, f64::NEG_INFINITY);
    for (x, y) in panel.average.points() {
        if y > best.1 {
            best = (x, y);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::test_util::session;
    use crate::filter::{FilterReport, FilteredTrace};

    #[test]
    fn bins_count_queries_by_arrival_time() {
        // Day 0: 3 queries at 13:10; day 1: 1 query at 13:10.
        let sessions = vec![
            session(Region::Europe, 13 * 3600, 4_000, &[600, 700, 800]),
            session(Region::Europe, 86_400 + 13 * 3600, 4_000, &[600]),
        ];
        let ft = FilteredTrace {
            sessions,
            report: FilterReport::default(),
        };
        let p = query_load_by_time(&ft, Region::Europe);
        assert_eq!(p.total, 4);
        // Bin 13:00–13:30 is index 26; average (3+1)/2 = 2.
        let avg_1310 = p.average.ys()[26];
        assert!((avg_1310 - 2.0).abs() < 1e-12, "avg {avg_1310}");
        assert_eq!(p.min.ys()[26], 1.0);
        assert_eq!(p.max.ys()[26], 3.0);
        assert!((peak_hour(&p) - 13.25).abs() < 1e-9);
    }

    #[test]
    fn accumulator_merge_matches_batch_panel() {
        let sessions = vec![
            session(Region::Europe, 13 * 3600, 4_000, &[600, 700, 800]),
            session(Region::Europe, 86_400 + 13 * 3600, 4_000, &[600]),
            session(Region::Asia, 9 * 3600, 1_000, &[100]),
        ];
        let ft = FilteredTrace {
            sessions: sessions.clone(),
            report: FilterReport::default(),
        };
        let mut a = LoadAccumulator::new();
        let mut b = LoadAccumulator::new();
        for (i, s) in sessions.iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.add_session(s);
        }
        a.merge(&b);
        for r in [Region::Europe, Region::Asia, Region::NorthAmerica] {
            assert_eq!(a.panel(r), query_load_by_time(&ft, r));
        }
    }

    #[test]
    fn other_regions_excluded() {
        let sessions = vec![session(Region::Asia, 9 * 3600, 1_000, &[100])];
        let ft = FilteredTrace {
            sessions,
            report: FilterReport::default(),
        };
        let p = query_load_by_time(&ft, Region::Europe);
        assert_eq!(p.total, 0);
    }
}
