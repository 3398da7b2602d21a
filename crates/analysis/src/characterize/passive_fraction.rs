//! Fraction of connected peers that are passive (§4.3, Figure 4).
//!
//! For each 1-hour bin: the ratio of sessions starting in that hour that
//! issue no (unflagged) queries to all sessions starting in that hour —
//! averaged over days, with the min/max across days.

use crate::filter::FilteredTrace;
use geoip::Region;
use stats::Series;

/// The three curves of one Figure 4 panel.
#[derive(Debug, Clone, PartialEq)]
pub struct PassiveFractionPanel {
    /// Per-hour average across days.
    pub average: Series,
    /// Per-hour minimum across days.
    pub(crate) min: Series,
    /// Per-hour maximum across days.
    pub(crate) max: Series,
    /// Overall passive fraction (all hours pooled).
    pub overall: f64,
}

/// Compute the Figure 4 panel for one region.
pub fn passive_fraction_by_hour(ft: &FilteredTrace, region: Region) -> PassiveFractionPanel {
    // counts[day][hour] = (passive, total)
    let mut counts: Vec<[[u64; 2]; 24]> = Vec::new();
    let mut pooled_passive = 0u64;
    let mut pooled_total = 0u64;
    for s in ft.sessions.iter().filter(|s| s.region == region) {
        let day = s.start_day() as usize;
        let hour = s.start_hour() as usize;
        while counts.len() <= day {
            counts.push([[0; 2]; 24]);
        }
        counts[day][hour][1] += 1;
        pooled_total += 1;
        if s.is_passive() {
            counts[day][hour][0] += 1;
            pooled_passive += 1;
        }
    }
    let hours: Vec<f64> = (0..24).map(|h| h as f64 + 0.5).collect();
    let mut avg = vec![0.0; 24];
    let mut min = vec![f64::INFINITY; 24];
    let mut max = vec![f64::NEG_INFINITY; 24];
    for h in 0..24 {
        let mut ratios = Vec::new();
        for day in &counts {
            let [p, t] = day[h];
            if t > 0 {
                ratios.push(p as f64 / t as f64);
            }
        }
        if ratios.is_empty() {
            min[h] = 0.0;
            max[h] = 0.0;
        } else {
            avg[h] = ratios.iter().sum::<f64>() / ratios.len() as f64;
            min[h] = ratios.iter().copied().fold(f64::INFINITY, f64::min);
            max[h] = ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        }
    }
    PassiveFractionPanel {
        average: Series::labeled("Average", hours.clone(), avg),
        min: Series::labeled("Min", hours.clone(), min),
        max: Series::labeled("Max", hours, max),
        overall: if pooled_total == 0 {
            0.0
        } else {
            pooled_passive as f64 / pooled_total as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::test_util::session;
    use crate::filter::{FilterReport, FilteredTrace};

    fn ft(sessions: Vec<crate::filter::FilteredSession>) -> FilteredTrace {
        FilteredTrace {
            sessions,
            report: FilterReport::default(),
        }
    }

    #[test]
    fn ratios_per_hour_and_day() {
        // Day 0 hour 2: 1 passive of 2. Day 1 hour 2: 2 passive of 2.
        let t = ft(vec![
            session(Region::Europe, 2 * 3600, 100, &[]),
            session(Region::Europe, 2 * 3600 + 60, 100, &[10]),
            session(Region::Europe, 86_400 + 2 * 3600, 100, &[]),
            session(Region::Europe, 86_400 + 2 * 3600 + 60, 100, &[]),
        ]);
        let p = passive_fraction_by_hour(&t, Region::Europe);
        assert!((p.average.ys()[2] - 0.75).abs() < 1e-12); // (0.5 + 1.0)/2
        assert_eq!(p.min.ys()[2], 0.5);
        assert_eq!(p.max.ys()[2], 1.0);
        assert!((p.overall - 0.75).abs() < 1e-12);
        // Hour with no sessions: all zeros.
        assert_eq!(p.average.ys()[10], 0.0);
        assert_eq!(p.min.ys()[10], 0.0);
    }

    #[test]
    fn other_regions_ignored() {
        let t = ft(vec![session(Region::Asia, 3 * 3600, 100, &[])]);
        let p = passive_fraction_by_hour(&t, Region::Europe);
        assert_eq!(p.overall, 0.0);
        let p_as = passive_fraction_by_hour(&t, Region::Asia);
        assert_eq!(p_as.overall, 1.0);
    }
}
