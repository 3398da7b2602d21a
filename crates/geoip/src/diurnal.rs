//! Diurnal region-mix model (paper Figure 1 and §4.2).
//!
//! The model is a 24-entry per-region table of connected-peer fractions,
//! hand-anchored to the paper's Figure 1 narrative:
//!
//! * North America: ~80 % of peers, dipping to ~60 % while North America
//!   sleeps (22:00–06:00 NA-local = 05:00–13:00 at the measurement node);
//! * Europe: close to 20 % from noon to midnight Dortmund time, ~6 % around
//!   06:00;
//! * Asia: up to ~13 % during Asian afternoon/evening (≈07:00–15:00 at the
//!   measurement node), ~4 % otherwise;
//! * Other/unknown: the 5–10 % residual.
//!
//! All hours in this module are **measurement-local** (Dortmund, CET),
//! matching the x-axes of the paper's figures.

use crate::region::Region;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Fractions of connected peers by measurement-local hour.
/// Columns: NA, EU, Asia (Other is the residual to 1.0).
const FRACTIONS: [[f64; 3]; 24] = [
    [0.78, 0.130, 0.045], // 00
    [0.79, 0.120, 0.040], // 01
    [0.80, 0.100, 0.040], // 02
    [0.81, 0.075, 0.045], // 03
    [0.81, 0.065, 0.050], // 04
    [0.80, 0.060, 0.060], // 05
    [0.78, 0.060, 0.070], // 06
    [0.75, 0.070, 0.090], // 07
    [0.72, 0.080, 0.100], // 08
    [0.69, 0.090, 0.110], // 09
    [0.66, 0.110, 0.120], // 10
    [0.63, 0.140, 0.125], // 11
    [0.61, 0.160, 0.130], // 12
    [0.60, 0.170, 0.130], // 13
    [0.61, 0.180, 0.120], // 14
    [0.63, 0.190, 0.100], // 15
    [0.65, 0.190, 0.085], // 16
    [0.67, 0.190, 0.070], // 17
    [0.69, 0.190, 0.060], // 18
    [0.70, 0.190, 0.050], // 19
    [0.71, 0.180, 0.045], // 20
    [0.72, 0.170, 0.040], // 21
    [0.74, 0.160, 0.040], // 22
    [0.76, 0.145, 0.040], // 23
];

/// One of the paper's §4.2 "key periods" of the day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyPeriod {
    /// Measurement-local start hour (the period spans one hour).
    pub start_hour: u32,
    /// The paper's description of the period.
    pub description: &'static str,
}

/// The four key periods identified in §4.2 / Figure 3.
pub const KEY_PERIODS: [KeyPeriod; 4] = [
    KeyPeriod {
        start_hour: 3,
        description: "peak in North America, sink for Europe",
    },
    KeyPeriod {
        start_hour: 11,
        description: "sink for North America, peak for Europe",
    },
    KeyPeriod {
        start_hour: 13,
        description: "sink for North America, peak for Europe, peak for Asia",
    },
    KeyPeriod {
        start_hour: 19,
        description: "joint peak for North America and Europe",
    },
];

/// The diurnal region-mix model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct DiurnalModel {
    _priv: (),
}

impl DiurnalModel {
    /// The paper-anchored default model.
    pub fn paper_default() -> Self {
        DiurnalModel { _priv: () }
    }

    /// Fractions `[NA, EU, Asia, Other]` of connected peers at
    /// measurement-local `hour` (0–23).
    pub fn fractions(&self, hour: u32) -> [f64; 4] {
        let row = FRACTIONS[(hour % 24) as usize];
        let other = 1.0 - row[0] - row[1] - row[2];
        [row[0], row[1], row[2], other]
    }

    /// Fraction of connected peers from `region` at `hour`.
    pub fn fraction(&self, region: Region, hour: u32) -> f64 {
        self.fractions(hour)[region.index()]
    }

    /// Draw the region of a newly arriving peer at `hour`.
    pub fn sample_region<R: Rng + ?Sized>(&self, hour: u32, rng: &mut R) -> Region {
        let f = self.fractions(hour);
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for r in Region::ALL {
            acc += f[r.index()];
            if u < acc {
                return r;
            }
        }
        Region::Other
    }

    /// Whether `hour` is a peak-load hour for `region`, following the
    /// §4.2 identification (load = queries received, Figure 3):
    ///
    /// * North America — evening/night at the measurement node
    ///   (19:00–04:00), with 03:00–04:00 the canonical peak period and
    ///   11:00–14:00 the sink;
    /// * Europe — noon to midnight, with 03:00–04:00 the canonical sink
    ///   (Figure 8(c): all key periods *except* 03:00–04:00 are peak);
    /// * Asia — Asian afternoon/evening, 07:00–15:00 at the measurement
    ///   node (13:00–14:00 the canonical peak);
    /// * Other — treated like North America (dominated by the Americas).
    pub fn is_peak(&self, region: Region, hour: u32) -> bool {
        let h = hour % 24;
        match region {
            Region::NorthAmerica | Region::Other => h >= 19 || h <= 4,
            Region::Europe => (11..=23).contains(&h),
            Region::Asia => (7..=15).contains(&h),
        }
    }

    /// The key period starting at `hour`, if any.
    pub fn key_period(&self, hour: u32) -> Option<KeyPeriod> {
        KEY_PERIODS
            .iter()
            .copied()
            .find(|p| p.start_hour == hour % 24)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fractions_sum_to_one_and_residual_is_sane() {
        let m = DiurnalModel::paper_default();
        for h in 0..24 {
            let f = m.fractions(h);
            let sum: f64 = f.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "hour {h}: sum {sum}");
            // "Other" stays in the paper's 5–10 % band (±2 %).
            assert!(
                (0.03..=0.12).contains(&f[3]),
                "hour {h}: other fraction {}",
                f[3]
            );
        }
    }

    #[test]
    fn matches_paper_anchor_mixes() {
        // §4.1: interesting mixes — 75/15/5 at 00:00, 80/5/5 at 03:00,
        // 60/20/15 at 12:00 (NA/EU/Asia, in percent).
        let m = DiurnalModel::paper_default();
        let f0 = m.fractions(0);
        assert!((f0[0] - 0.75).abs() < 0.05);
        assert!((f0[1] - 0.15).abs() < 0.04);
        let f3 = m.fractions(3);
        assert!((f3[0] - 0.80).abs() < 0.03);
        assert!((f3[1] - 0.05).abs() < 0.04);
        let f12 = m.fractions(12);
        assert!((f12[0] - 0.60).abs() < 0.03);
        assert!((f12[1] - 0.20).abs() < 0.05);
        assert!((f12[2] - 0.15).abs() < 0.03);
    }

    #[test]
    fn na_dips_during_na_night() {
        let m = DiurnalModel::paper_default();
        // NA fraction minimum around 13:00 CET (≈06:00 NA-local).
        let min_hour = (0..24)
            .min_by(|&a, &b| {
                m.fraction(Region::NorthAmerica, a)
                    .partial_cmp(&m.fraction(Region::NorthAmerica, b))
                    .unwrap()
            })
            .unwrap();
        assert!((11..=14).contains(&min_hour), "NA min at hour {min_hour}");
        // And maximum in the CET early morning.
        let max_hour = (0..24)
            .max_by(|&a, &b| {
                m.fraction(Region::NorthAmerica, a)
                    .partial_cmp(&m.fraction(Region::NorthAmerica, b))
                    .unwrap()
            })
            .unwrap();
        assert!((2..=5).contains(&max_hour), "NA max at hour {max_hour}");
    }

    #[test]
    fn peak_classification_matches_key_periods() {
        let m = DiurnalModel::paper_default();
        // 03:00 — peak NA, sink EU.
        assert!(m.is_peak(Region::NorthAmerica, 3));
        assert!(!m.is_peak(Region::Europe, 3));
        // 11:00 — sink NA, peak EU.
        assert!(!m.is_peak(Region::NorthAmerica, 11));
        assert!(m.is_peak(Region::Europe, 11));
        // 13:00 — peak EU and Asia, sink NA.
        assert!(m.is_peak(Region::Europe, 13));
        assert!(m.is_peak(Region::Asia, 13));
        assert!(!m.is_peak(Region::NorthAmerica, 13));
        // 19:00 — joint peak NA and EU.
        assert!(m.is_peak(Region::NorthAmerica, 19));
        assert!(m.is_peak(Region::Europe, 19));
    }

    #[test]
    fn sampling_matches_fractions() {
        let m = DiurnalModel::paper_default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        let mut counts = [0usize; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[m.sample_region(12, &mut rng).index()] += 1;
        }
        let f = m.fractions(12);
        for r in Region::ALL {
            let emp = counts[r.index()] as f64 / n as f64;
            assert!(
                (emp - f[r.index()]).abs() < 0.01,
                "{r}: sampled {emp}, expected {}",
                f[r.index()]
            );
        }
    }

    #[test]
    fn key_period_lookup() {
        let m = DiurnalModel::paper_default();
        assert!(m.key_period(3).is_some());
        assert!(m.key_period(19).is_some());
        assert!(m.key_period(7).is_none());
        assert_eq!(m.key_period(27).unwrap().start_hour, 3); // wraps
        assert_eq!(KEY_PERIODS.len(), 4);
    }

    #[test]
    fn hour_wraps() {
        let m = DiurnalModel::paper_default();
        assert_eq!(m.fractions(0), m.fractions(24));
        assert_eq!(m.fractions(5), m.fractions(29));
    }
}
