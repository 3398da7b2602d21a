//! Client-software profiles.
//!
//! §3.3 attributes each query anomaly to specific client implementations
//! identified by their `User-Agent` header. This module models a 2004-era
//! client population with per-client automation behaviors; the filter
//! rules of the analysis crate must remove exactly the traffic these
//! behaviors inject.

use geoip::Region;
use rand::rngs::StdRng;
use rand::Rng;

/// Automation behavior of one client implementation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClientProfile {
    /// `User-Agent` string sent in the handshake.
    pub(crate) user_agent: &'static str,
    /// Probability that an active session issues SHA1 source-search
    /// queries (rule 1 traffic: re-queries for known files during
    /// downloads).
    pub(crate) sha1_session_prob: f64,
    /// Mean number of SHA1 queries in such a session (geometric).
    pub(crate) sha1_mean: f64,
    /// Probability that each user query is automatically re-sent later in
    /// the session to refresh results (rule 2 traffic).
    pub(crate) repeat_prob: f64,
    /// Mean number of automatic repeats per repeated query (geometric).
    pub(crate) repeat_mean: f64,
    /// Probability that a session opens with a sub-second burst re-sending
    /// searches issued before connecting (rule 4 traffic).
    pub(crate) burst_prob: f64,
    /// Burst length bounds (distinct pre-connect searches re-sent).
    pub(crate) burst_len: (u32, u32),
    /// Probability that the client re-sends its search list at a fixed
    /// interval for the whole session (rule 5 traffic).
    pub(crate) periodic_prob: f64,
    /// The fixed re-query interval in seconds (identical gaps — exactly
    /// what rule 5 detects).
    pub(crate) periodic_interval_secs: f64,
}

impl ClientProfile {
    /// A perfectly clean client (no automation) — useful in tests.
    pub(crate) fn clean(user_agent: &'static str) -> ClientProfile {
        ClientProfile {
            user_agent,
            sha1_session_prob: 0.0,
            sha1_mean: 0.0,
            repeat_prob: 0.0,
            repeat_mean: 0.0,
            burst_prob: 0.0,
            burst_len: (0, 0),
            periodic_prob: 0.0,
            periodic_interval_secs: 10.0,
        }
    }
}

/// The simulated client population: profiles plus per-region mix weights.
#[derive(Debug, Clone)]
pub(crate) struct ClientPopulation {
    /// The catalogue of client implementations.
    pub(crate) profiles: Vec<ClientProfile>,
    /// Mix weights per region (rows: NA, EU, Asia, Other), same length as
    /// `profiles`, each row summing to 1.
    pub(crate) region_mix: [Vec<f64>; 4],
}

impl ClientPopulation {
    /// The default 2004-flavored population.
    ///
    /// Calibration targets (Table 2): rule 1 removes ≈24 % of raw hop-1
    /// queries, rule 2 ≈64 % of the remainder, rules 4+5 flag ≈53 % of the
    /// post-rule-3 queries; Figure 6(c): Asian sessions show a heavy
    /// unfiltered burst tail (≈4 % of sessions with >100 raw queries).
    pub(crate) fn paper_default() -> ClientPopulation {
        let profiles = vec![
            // The measurement client's own lineage: clean.
            ClientProfile::clean("Mutella/0.4.5"),
            ClientProfile {
                user_agent: "LimeWire/3.8.10",
                sha1_session_prob: 0.90,
                sha1_mean: 9.0,
                repeat_prob: 0.95,
                repeat_mean: 4.8,
                burst_prob: 0.50,
                burst_len: (3, 10),
                periodic_prob: 0.0,
                periodic_interval_secs: 10.0,
            },
            ClientProfile {
                user_agent: "BearShare/4.6.2",
                sha1_session_prob: 0.90,
                sha1_mean: 8.0,
                repeat_prob: 0.92,
                repeat_mean: 4.2,
                burst_prob: 0.55,
                burst_len: (3, 12),
                periodic_prob: 0.20,
                periodic_interval_secs: 10.0,
            },
            ClientProfile {
                user_agent: "Gnucleus/1.8.6",
                sha1_session_prob: 0.55,
                sha1_mean: 3.5,
                repeat_prob: 0.85,
                repeat_mean: 3.0,
                burst_prob: 0.10,
                burst_len: (2, 4),
                periodic_prob: 0.50,
                periodic_interval_secs: 15.0,
            },
            ClientProfile {
                user_agent: "Shareaza/1.9.4",
                sha1_session_prob: 0.80,
                sha1_mean: 5.0,
                repeat_prob: 0.93,
                repeat_mean: 4.4,
                burst_prob: 0.60,
                burst_len: (3, 12),
                periodic_prob: 0.15,
                periodic_interval_secs: 10.0,
            },
            // The aggressive re-query client, over-represented in Asia
            // (drives the Figure 6(c) >100-query tail).
            ClientProfile {
                user_agent: "XoloX/1.25",
                sha1_session_prob: 0.60,
                sha1_mean: 4.0,
                repeat_prob: 0.78,
                repeat_mean: 2.6,
                burst_prob: 0.85,
                burst_len: (20, 160),
                periodic_prob: 0.45,
                periodic_interval_secs: 10.0,
            },
        ];
        // Mix: NA / EU lean LimeWire+BearShare; Asia leans XoloX.
        let region_mix = [
            vec![0.10, 0.40, 0.22, 0.08, 0.17, 0.03], // NA
            vec![0.12, 0.33, 0.18, 0.12, 0.22, 0.03], // EU
            vec![0.06, 0.22, 0.12, 0.08, 0.17, 0.35], // Asia
            vec![0.10, 0.40, 0.22, 0.08, 0.17, 0.03], // Other
        ];
        ClientPopulation {
            profiles,
            region_mix,
        }
    }

    /// Draw a client profile index for a peer in `region`.
    pub(crate) fn pick(&self, region: Region, rng: &mut StdRng) -> usize {
        let weights = &self.region_mix[region.index()];
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, w) in weights.iter().enumerate() {
            acc += w;
            if u < acc {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Profile by index.
    pub(crate) fn profile(&self, idx: usize) -> &ClientProfile {
        &self.profiles[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mixes_are_normalized() {
        let pop = ClientPopulation::paper_default();
        for (r, row) in pop.region_mix.iter().enumerate() {
            assert_eq!(row.len(), pop.profiles.len(), "row {r} length");
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn asia_prefers_bursty_client() {
        let pop = ClientPopulation::paper_default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut asia_xolox = 0;
        let mut na_xolox = 0;
        let xolox = pop
            .profiles
            .iter()
            .position(|p| p.user_agent.starts_with("XoloX"))
            .unwrap();
        for _ in 0..10_000 {
            if pop.pick(Region::Asia, &mut rng) == xolox {
                asia_xolox += 1;
            }
            if pop.pick(Region::NorthAmerica, &mut rng) == xolox {
                na_xolox += 1;
            }
        }
        assert!(
            asia_xolox > 5 * na_xolox,
            "asia {asia_xolox} vs na {na_xolox}"
        );
    }

    #[test]
    fn clean_profile_has_no_automation() {
        let c = ClientProfile::clean("Test/1.0");
        assert_eq!(c.repeat_prob, 0.0);
        assert_eq!(c.burst_prob, 0.0);
        assert_eq!(c.periodic_prob, 0.0);
        assert_eq!(c.sha1_session_prob, 0.0);
    }

    #[test]
    fn user_agents_are_distinct() {
        let pop = ClientPopulation::paper_default();
        let mut set = std::collections::HashSet::new();
        for p in &pop.profiles {
            assert!(set.insert(p.user_agent));
        }
    }
}
