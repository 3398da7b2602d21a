//! Per-region counts of the filtered sessions (§4.3–§4.5, streaming form).
//!
//! The §4.3–§4.5 CCDFs ([`crate::characterize`] submodules) are evaluated
//! over the raw per-session samples of the filtered trace. What the
//! streaming pipeline folds per closed session is only its region's
//! count. Counts are order-independent sums, so the streaming fold is
//! bit-identical to a batch pass over the same filtered sessions — a
//! property the equivalence tests enforce.

use crate::filter::{FilteredSession, FilteredTrace};
use geoip::Region;

/// Sessions folded in, per characterized region (indexed by position in
/// [`Region::CHARACTERIZED`]), passive and active alike.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionHistograms {
    sessions: [u64; 3],
}

impl SessionHistograms {
    /// Fold one filtered session in. Sessions from [`Region::Other`] are
    /// skipped — the paper characterizes the three major regions only.
    pub(crate) fn add_session(&mut self, s: &FilteredSession) {
        if let Some(i) = Region::CHARACTERIZED.iter().position(|r| *r == s.region) {
            self.sessions[i] += 1;
        }
    }

    /// Batch form: fold every session of a filtered trace.
    pub fn from_filtered(ft: &FilteredTrace) -> SessionHistograms {
        let mut h = SessionHistograms::default();
        for s in &ft.sessions {
            h.add_session(s);
        }
        h
    }

    /// Absorb another set of counts (shard merge).
    pub(crate) fn merge(&mut self, other: &SessionHistograms) {
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
        // Europe: one active + one passive session; Other contributes
        // nowhere.
        assert_eq!(h.sessions, [1, 2, 1]);
        assert_eq!(h.total_sessions(), 4);
    }

    #[test]
    fn merge_equals_single_pass() {
        let t = trace();
        let whole = SessionHistograms::from_filtered(&t);
        let mut a = SessionHistograms::default();
        let mut b = SessionHistograms::default();
        for (i, s) in t.sessions.iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.add_session(s);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }
}
