//! Histograms and time-of-day binning.
//!
//! Two binning schemes appear in the paper:
//!
//! * linear bins ([`Histogram`]) — e.g. the shared-file counts of Figure 2;
//! * time-of-day bins ([`TimeOfDayBins`]) — Figures 1, 3 and 4 aggregate a
//!   multi-day trace into 24 one-hour or 48 thirty-minute bins and report
//!   per-bin average plus the min/max across days.

use crate::error::StatsError;
use crate::series::Series;

/// Fixed-width linear histogram over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if !(hi > lo) || !lo.is_finite() || !hi.is_finite() {
            return Err(StatsError::BadParameter {
                name: "hi",
                value: hi,
                constraint: "must be finite and > lo",
            });
        }
        if bins == 0 {
            return Err(StatsError::BadParameter {
                name: "bins",
                value: 0.0,
                constraint: "must be >= 1",
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        })
    }

    /// Insert an observation.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let i = (((x - self.lo) / w) as usize).min(self.counts.len() - 1);
            self.counts[i] += 1;
        }
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below `lo` / at-or-above `hi`.
    pub fn out_of_range(&self) -> (u64, u64) {
        (self.underflow, self.overflow)
    }

    /// Total number of observations (including out of range).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Center of bin `i`.
    pub(crate) fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Export `(bin center, fraction of total)` — the Figure 2 form.
    pub fn fraction_series(&self) -> Series {
        let n = self.total.max(1) as f64;
        let xs = (0..self.counts.len()).map(|i| self.bin_center(i)).collect();
        let ys = self.counts.iter().map(|&c| c as f64 / n).collect();
        Series::new(xs, ys)
    }
}

/// Aggregates a multi-day trace into fixed time-of-day bins, tracking the
/// per-bin average, minimum and maximum across days (the three curves in
/// Figures 3 and 4).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeOfDayBins {
    /// Bin width in seconds (3600 for Fig 1/4, 1800 for Fig 3).
    bin_seconds: u32,
    /// Per-day, per-bin accumulated values: `days[d][b]`.
    days: Vec<Vec<f64>>,
}

/// Seconds in a day.
pub(crate) const DAY_SECONDS: u32 = 86_400;

impl TimeOfDayBins {
    /// Create with the given bin width; must divide 24 h evenly.
    pub fn new(bin_seconds: u32) -> Result<Self, StatsError> {
        if bin_seconds == 0 || !DAY_SECONDS.is_multiple_of(bin_seconds) {
            return Err(StatsError::BadParameter {
                name: "bin_seconds",
                value: bin_seconds as f64,
                constraint: "must divide 86400 evenly",
            });
        }
        Ok(TimeOfDayBins {
            bin_seconds,
            days: Vec::new(),
        })
    }

    /// Number of bins per day.
    pub(crate) fn bins_per_day(&self) -> usize {
        (DAY_SECONDS / self.bin_seconds) as usize
    }

    fn slot(&mut self, day: usize, bin: usize) -> &mut f64 {
        let bins = self.bins_per_day();
        while self.days.len() <= day {
            self.days.push(vec![0.0; bins]);
        }
        &mut self.days[day][bin]
    }

    /// Add `value` at absolute trace time `t_seconds` (day 0 starts at 0).
    pub(crate) fn add_at(&mut self, t_seconds: u64, value: f64) {
        let day = (t_seconds / u64::from(DAY_SECONDS)) as usize;
        let bin = ((t_seconds % u64::from(DAY_SECONDS)) / u64::from(self.bin_seconds)) as usize;
        *self.slot(day, bin) += value;
    }

    /// Increment the count at absolute trace time `t_seconds`.
    pub fn count_at(&mut self, t_seconds: u64) {
        self.add_at(t_seconds, 1.0);
    }

    /// Per-bin average across days.
    pub(crate) fn averages(&self) -> Vec<f64> {
        self.reduce(|acc, v| acc + v)
            .into_iter()
            .map(|s| s / self.days.len().max(1) as f64)
            .collect()
    }

    /// Per-bin minimum across days.
    pub(crate) fn minima(&self) -> Vec<f64> {
        let bins = self.bins_per_day();
        let mut out = vec![f64::INFINITY; bins];
        for day in &self.days {
            for (o, &v) in out.iter_mut().zip(day) {
                *o = o.min(v);
            }
        }
        if self.days.is_empty() {
            out.fill(0.0);
        }
        out
    }

    /// Per-bin maximum across days.
    pub(crate) fn maxima(&self) -> Vec<f64> {
        let bins = self.bins_per_day();
        let mut out = vec![f64::NEG_INFINITY; bins];
        for day in &self.days {
            for (o, &v) in out.iter_mut().zip(day) {
                *o = o.max(v);
            }
        }
        if self.days.is_empty() {
            out.fill(0.0);
        }
        out
    }

    fn reduce(&self, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        let bins = self.bins_per_day();
        let mut out = vec![0.0; bins];
        for day in &self.days {
            for (o, &v) in out.iter_mut().zip(day) {
                *o = f(*o, v);
            }
        }
        out
    }

    /// Hour-of-day x coordinates for each bin center.
    pub(crate) fn bin_hours(&self) -> Vec<f64> {
        let w = self.bin_seconds as f64 / 3600.0;
        (0..self.bins_per_day())
            .map(|i| (i as f64 + 0.5) * w)
            .collect()
    }

    /// `(hour, average)` series — the "Average" curve of Figures 3/4.
    pub fn average_series(&self) -> Series {
        Series::new(self.bin_hours(), self.averages())
    }

    /// `(hour, min)` series.
    pub fn min_series(&self) -> Series {
        Series::new(self.bin_hours(), self.minima())
    }

    /// `(hour, max)` series.
    pub fn max_series(&self) -> Series {
        Series::new(self.bin_hours(), self.maxima())
    }

    /// Absorb another accumulator with the same bin width, adding the
    /// per-day, per-bin values elementwise. Days are aligned by absolute
    /// day index, so merging per-shard accumulators equals counting every
    /// event in one accumulator.
    pub fn merge(&mut self, other: &TimeOfDayBins) -> Result<(), StatsError> {
        if self.bin_seconds != other.bin_seconds {
            return Err(StatsError::BadParameter {
                name: "other",
                value: other.bin_seconds as f64,
                constraint: "bin widths must match",
            });
        }
        let bins = self.bins_per_day();
        while self.days.len() < other.days.len() {
            self.days.push(vec![0.0; bins]);
        }
        for (mine, theirs) in self.days.iter_mut().zip(&other.days) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        Ok(())
    }

    /// Estimated heap footprint in bytes.
    pub fn mem_bytes(&self) -> u64 {
        (self.days.capacity() * std::mem::size_of::<Vec<f64>>()) as u64
            + self
                .days
                .iter()
                .map(|d| (d.capacity() * std::mem::size_of::<f64>()) as u64)
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basic() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        for x in [0.5, 1.5, 1.6, 9.9, -1.0, 10.0, 25.0] {
            h.add(x);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.out_of_range(), (1, 2));
        assert!((h.bin_center(0) - 0.5).abs() < 1e-12);
        let s = h.fraction_series();
        assert!((s.ys()[1] - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_rejects_bad_construction() {
        assert!(Histogram::new(1.0, 1.0, 10).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(TimeOfDayBins::new(7).is_err());
        assert!(TimeOfDayBins::new(0).is_err());
    }

    #[test]
    fn time_of_day_min_avg_max() {
        let mut b = TimeOfDayBins::new(3600).unwrap();
        // Day 0: 2 events in hour 3. Day 1: 4 events in hour 3.
        for _ in 0..2 {
            b.count_at(3 * 3600 + 10);
        }
        for _ in 0..4 {
            b.count_at(86_400 + 3 * 3600 + 500);
        }
        assert_eq!(b.days.len(), 2);
        assert_eq!(b.bins_per_day(), 24);
        assert_eq!(b.averages()[3], 3.0);
        assert_eq!(b.minima()[3], 2.0); // min across days = 2
        assert_eq!(b.maxima()[3], 4.0);
        // An hour with no events: avg/min/max all 0.
        assert_eq!(b.averages()[5], 0.0);
        assert_eq!(b.minima()[5], 0.0);
        assert_eq!(b.maxima()[5], 0.0);
        // Bin center x coordinates are mid-hour.
        assert!((b.bin_hours()[3] - 3.5).abs() < 1e-12);
    }

    #[test]
    fn half_hour_bins() {
        let b = TimeOfDayBins::new(1800).unwrap();
        assert_eq!(b.bins_per_day(), 48);
    }

    #[test]
    fn time_of_day_merge_aligns_days() {
        let mut whole = TimeOfDayBins::new(3600).unwrap();
        let mut a = TimeOfDayBins::new(3600).unwrap();
        let mut b = TimeOfDayBins::new(3600).unwrap();
        let events: [u64; 5] = [
            3 * 3600 + 10,
            86_400 + 3 * 3600,
            86_400 + 5 * 3600,
            2 * 86_400 + 100,
            40,
        ];
        for (i, &t) in events.iter().enumerate() {
            whole.count_at(t);
            if i % 2 == 0 { &mut a } else { &mut b }.count_at(t);
        }
        a.merge(&b).unwrap();
        assert_eq!(a, whole);
        assert_eq!(a.days.len(), 3);
        assert!(a.merge(&TimeOfDayBins::new(1800).unwrap()).is_err());
    }

    #[test]
    fn empty_bins_are_zero() {
        let b = TimeOfDayBins::new(3600).unwrap();
        assert_eq!(b.averages(), vec![0.0; 24]);
        assert_eq!(b.minima(), vec![0.0; 24]);
        assert_eq!(b.maxima(), vec![0.0; 24]);
    }
}
