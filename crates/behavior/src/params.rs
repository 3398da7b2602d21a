//! Client-software and connection parameters of the ground truth: what
//! the paper's model does not describe.
//!
//! The user layer (the passive fraction of Figure 4 and the session laws
//! of Tables A.1–A.5) is the paper's model itself, drawn through
//! [`model::ModelLaws`]; see [`crate::session::SessionPlanner`]. What is
//! left here is the system layer the filter rules must see through:
//! quick disconnects (§3.3 rule 3), silent vanishing and BYE teardown
//! (§3.2), ultrapeer mode (Table 1) and keepalive PINGs.

use serde::{Deserialize, Serialize};

/// The connection-level parameter set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BehaviorParams {
    /// Probability that a raw connection is a system-level quick
    /// disconnect (§3.3 rule 3: ≈70 % of connections end within 64 s).
    pub quick_disconnect_prob: f64,
    /// Fraction of sessions ending silently (no TCP teardown observed;
    /// the measurement peer probe-closes them ≈30 s later, §3.2).
    pub vanish_prob: f64,
    /// Of the sessions that do tear down visibly, the fraction that send a
    /// spec-compliant BYE first — "many Gnutella clients do not terminate
    /// an overlay connection by sending a BYE message" (§3.2), so this is
    /// small.
    pub bye_prob: f64,
    /// Fraction of connections in ultrapeer mode (Table 1: ≈40 %).
    pub ultrapeer_prob: f64,
    /// Client keepalive PING interval bounds, seconds.
    pub keepalive_secs: (f64, f64),
}

impl Default for BehaviorParams {
    fn default() -> Self {
        BehaviorParams {
            quick_disconnect_prob: 0.70,
            vanish_prob: 0.80,
            bye_prob: 0.10,
            ultrapeer_prob: 0.40,
            keepalive_secs: (18.0, 28.0),
        }
    }
}

impl BehaviorParams {
    /// Quick-disconnect duration model (§3.3): 29 % of *all* connections
    /// end within 10 s, 32 % within 20–25 s, ~9 % within 25–64 s (the three
    /// weights renormalized within the quick class).
    /// Returns `(weight, lo_secs, hi_secs)` mixture components.
    pub fn quick_disconnect_mixture(&self) -> [(f64, f64, f64); 3] {
        [
            (0.29 / 0.70, 1.5, 10.0),
            (0.32 / 0.70, 20.0, 25.0),
            (0.09 / 0.70, 25.0, 63.0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionPlanner;
    use crate::vocabulary::{Vocabulary, VocabularyConfig};
    use geoip::Region;
    use model::{first_query_class, last_query_class, ModelLaws};
    use stats::dist::Continuous;
    use std::sync::Arc;

    /// The user layer the ground truth draws its sessions from.
    fn planner_laws() -> ModelLaws {
        let cfg = VocabularyConfig {
            daily_sizes: [30, 28, 6, 3, 3, 3, 2],
            n_days: 1,
            ..Default::default()
        };
        SessionPlanner::paper_default(Arc::new(Vocabulary::build(1, cfg))).laws
    }

    #[test]
    fn first_query_classes() {
        // The classes the ground truth conditions its first-query delay on
        // (Table A.3: n < 3, n = 3, n > 3) and its time after the last
        // query (Table A.5: n = 1, n 2–7, n > 7).
        assert_eq!(first_query_class(0), 0);
        assert_eq!(first_query_class(2), 0);
        assert_eq!(first_query_class(3), 1);
        assert_eq!(first_query_class(4), 2);
        assert_eq!(last_query_class(1), 0);
        assert_eq!(last_query_class(7), 1);
        assert_eq!(last_query_class(8), 2);
    }

    #[test]
    fn quick_disconnect_mixture_normalizes() {
        let p = BehaviorParams::default();
        let total: f64 = p.quick_disconnect_mixture().iter().map(|(w, _, _)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (_, lo, hi) in p.quick_disconnect_mixture() {
            assert!(lo < hi && hi < 64.0);
        }
    }

    #[test]
    fn interarrival_region_ordering() {
        // Figure 8(a): P(interarrival < 100 s) ≈ 0.9 EU / 0.8 Asia / 0.7 NA.
        let laws = planner_laws();
        let below = |r| laws.interarrival(r, true, 5).cdf(103.0);
        assert!((below(Region::Europe) - 0.90).abs() < 1e-9);
        assert!((below(Region::Asia) - 0.80).abs() < 1e-9);
        assert!((below(Region::NorthAmerica) - 0.70).abs() < 1e-9);
    }

    #[test]
    fn eu_interarrival_conditioned_on_query_count() {
        // Figure 8(b): many-query EU sessions have shorter interarrivals.
        let laws = planner_laws();
        let few = laws.interarrival(Region::Europe, true, 2);
        let many = laws.interarrival(Region::Europe, true, 20);
        assert!(few.quantile(0.5) > many.quantile(0.5));
        // NA is NOT conditioned (paper's explicit finding).
        let na_few = laws.interarrival(Region::NorthAmerica, true, 2);
        let na_many = laws.interarrival(Region::NorthAmerica, true, 20);
        assert_eq!(na_few.quantile(0.5), na_many.quantile(0.5));
    }

    #[test]
    fn serde_round_trips() {
        let p = BehaviorParams::default();
        let j = serde_json::to_string(&p).unwrap();
        let back: BehaviorParams = serde_json::from_str(&j).unwrap();
        assert_eq!(back.quick_disconnect_prob, p.quick_disconnect_prob);
    }
}
