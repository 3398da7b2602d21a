//! Session planning: one full generative draw per connected session.
//!
//! A [`SessionPlan`] is everything a simulated peer will do: its region,
//! client software, session kind (quick disconnect / passive / active),
//! duration, and the timed sequence of queries — each tagged with its
//! ground-truth [`QueryOrigin`] so integration tests can verify that the
//! analysis filters recover exactly the user-generated subset.

use crate::clients::ClientPopulation;
use crate::files::SharedFilesModel;
use crate::params::BehaviorParams;
use crate::vocabulary::Vocabulary;
use geoip::{DiurnalModel, Region};
use gnutella::QueryId;
use model::{ModelLaws, WorkloadModel};
use rand::rngs::StdRng;
use rand::Rng;
use simnet::SimDuration;
use std::sync::Arc;

/// Ground truth for why a query message exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOrigin {
    /// A genuine user search issued during the session.
    User,
    /// Automatic client re-send of an earlier user query (rule 2 target).
    AutoRepeat,
    /// SHA1 source-search for a known file (rule 1 target).
    AutoSha1,
    /// Sub-second re-query burst at connect (rule 4 target) — re-sends of
    /// searches the user issued *before* connecting, so they carry real
    /// user interest (counted in popularity, excluded from interarrival).
    AutoBurst,
    /// Fixed-interval periodic re-query (rule 5 target), same caveat.
    AutoPeriodic,
    /// Stray automated query inside a quick-disconnect session.
    AutoQuick,
}

impl QueryOrigin {}

/// One query the peer will send, at `offset` after session start.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    /// Offset from session start.
    pub offset: SimDuration,
    /// Interned keyword text (empty for SHA1 re-queries).
    pub text: QueryId,
    /// `urn:sha1:` extension, if any.
    pub sha1: Option<String>,
    /// Ground-truth origin.
    pub origin: QueryOrigin,
}

/// Session classification in the generative model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionKind {
    /// System-level quick disconnect (< 64 s, rule 3 target).
    Quick,
    /// Connected but issues no user queries.
    Passive,
    /// Issues at least one user query.
    Active,
}

/// The complete plan for one connected session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    /// Peer region.
    pub(crate) region: Region,
    /// Index into the client population.
    pub(crate) client_idx: usize,
    /// The client's `User-Agent`.
    pub(crate) user_agent: &'static str,
    /// Session kind (ground truth).
    pub kind: SessionKind,
    /// Planned session duration (connect → teardown/vanish).
    pub duration: SimDuration,
    /// Timed queries, sorted by offset.
    pub queries: Vec<PlannedQuery>,
    /// True if the peer vanishes silently (no TCP teardown) — the
    /// measurement peer will probe-close ≈30 s later.
    pub(crate) vanish: bool,
    /// True if the peer sends a spec-compliant BYE before tearing down
    /// (rare in 2004 practice, §3.2).
    pub(crate) send_bye: bool,
    /// Connection advertises ultrapeer mode.
    pub ultrapeer: bool,
    /// Shared-file count advertised in PONGs.
    pub(crate) shared_files: u32,
    /// Ground-truth number of *user* queries.
    pub user_query_count: u32,
    /// Whether the session started in the region's peak period.
    pub(crate) peak: bool,
}

/// Draws session plans from the behavior model.
#[derive(Debug, Clone)]
pub struct SessionPlanner {
    /// Connection-level parameters the paper's model does not describe.
    pub(crate) params: BehaviorParams,
    /// The user layer: the paper's passive fraction and session laws.
    pub(crate) laws: ModelLaws,
    /// Client-software population.
    pub(crate) clients: ClientPopulation,
    /// Query vocabulary (shared across the population).
    pub(crate) vocab: Arc<Vocabulary>,
    /// Shared-files model.
    pub files: SharedFilesModel,
    /// Diurnal model (peak classification).
    pub diurnal: DiurnalModel,
}

impl SessionPlanner {
    /// Planner with all paper defaults; its user layer draws from
    /// [`WorkloadModel::paper_default`].
    pub fn paper_default(vocab: Arc<Vocabulary>) -> SessionPlanner {
        SessionPlanner {
            params: BehaviorParams::default(),
            laws: WorkloadModel::paper_default()
                .laws()
                .expect("the paper's model builds"),
            clients: ClientPopulation::paper_default(),
            vocab,
            files: SharedFilesModel::default(),
            diurnal: DiurnalModel::paper_default(),
        }
    }

    /// Plan a session starting on `day` at measurement-local `hour` for a
    /// peer in `region`.
    pub fn plan(&self, day: usize, hour: u32, region: Region, rng: &mut StdRng) -> SessionPlan {
        let peak = self.diurnal.is_peak(region, hour);
        let client_idx = self.clients.pick(region, rng);
        let client = self.clients.profile(client_idx);
        let vanish = rng.gen::<f64>() < self.params.vanish_prob;
        let send_bye = !vanish && rng.gen::<f64>() < self.params.bye_prob;
        let ultrapeer = rng.gen::<f64>() < self.params.ultrapeer_prob;
        let shared_files = self.files.sample(rng);

        let base = SessionPlan {
            region,
            client_idx,
            user_agent: client.user_agent,
            kind: SessionKind::Quick,
            duration: SimDuration::ZERO,
            queries: Vec::new(),
            vanish,
            send_bye,
            ultrapeer,
            shared_files,
            user_query_count: 0,
            peak,
        };

        // 1. Quick system disconnect?
        if rng.gen::<f64>() < self.params.quick_disconnect_prob {
            return self.plan_quick(base, day, rng);
        }
        // 2. Passive or active?
        if self.laws.draw_passive(region, rng) {
            self.plan_passive(base, rng)
        } else {
            self.plan_active(base, client, day, rng)
        }
    }

    fn plan_quick(&self, mut plan: SessionPlan, day: usize, rng: &mut StdRng) -> SessionPlan {
        plan.kind = SessionKind::Quick;
        let mix = self.params.quick_disconnect_mixture();
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut secs = 30.0;
        for (w, lo, hi) in mix {
            acc += w;
            if u < acc {
                secs = rng.gen_range(lo..hi);
                break;
            }
        }
        plan.duration = SimDuration::from_secs_f64(secs);
        // A small fraction of quick sessions carry stray automated queries
        // (Table 2 rule 3 removed ≈0.1 queries per discarded session).
        if rng.gen::<f64>() < 0.08 && secs > 4.0 {
            let n = rng.gen_range(1..=2);
            for _ in 0..n {
                let at = rng.gen_range(1.0..secs - 1.0);
                let text = self.vocab.sample_query(plan.region, day, rng);
                plan.queries.push(PlannedQuery {
                    offset: SimDuration::from_secs_f64(at),
                    text,
                    sha1: None,
                    origin: QueryOrigin::AutoQuick,
                });
            }
            plan.queries.sort_by_key(|q| q.offset);
        }
        plan
    }

    fn plan_passive(&self, mut plan: SessionPlan, rng: &mut StdRng) -> SessionPlan {
        plan.kind = SessionKind::Passive;
        let secs = self.laws.draw_passive_duration(plan.region, plan.peak, rng);
        plan.duration = SimDuration::from_secs_f64(secs);
        plan
    }

    fn plan_active(
        &self,
        mut plan: SessionPlan,
        client: &crate::clients::ClientProfile,
        day: usize,
        rng: &mut StdRng,
    ) -> SessionPlan {
        plan.kind = SessionKind::Active;
        let region = plan.region;
        let peak = plan.peak;

        // --- User layer -------------------------------------------------
        let laws = &self.laws;
        let n_user = laws.draw_queries(region, rng);
        plan.user_query_count = n_user;

        let t_first = laws.draw_first_query(region, peak, n_user, rng);
        let mut times = Vec::with_capacity(n_user as usize);
        let mut t = t_first;
        times.push(t);
        for _ in 1..n_user {
            t += laws.draw_interarrival(region, peak, n_user, rng);
            times.push(t);
        }
        let t_after = laws.draw_time_after_last(region, peak, n_user, rng);
        let duration = t + t_after;
        plan.duration = SimDuration::from_secs_f64(duration);

        // User query texts: mostly distinct searches.
        let mut texts: Vec<QueryId> = Vec::with_capacity(times.len());
        for _ in &times {
            let mut q = self.vocab.sample_query(region, day, rng);
            for _ in 0..3 {
                if !texts.contains(&q) {
                    break;
                }
                q = self.vocab.sample_query(region, day, rng);
            }
            texts.push(q);
        }
        for (at, &text) in times.iter().zip(&texts) {
            plan.queries.push(PlannedQuery {
                offset: SimDuration::from_secs_f64(*at),
                text,
                sha1: None,
                origin: QueryOrigin::User,
            });
        }

        // --- Client automation layer ------------------------------------
        // Rule 2 targets: automatic re-sends of earlier user queries.
        for (at, &text) in times.iter().zip(&texts) {
            if rng.gen::<f64>() < client.repeat_prob {
                let k = geometric(rng, client.repeat_mean).min(10);
                for _ in 0..k {
                    let hi = (duration * 0.97).max(at + 6.0);
                    let rt = rng.gen_range(*at + 5.0..hi.max(at + 5.1));
                    plan.queries.push(PlannedQuery {
                        offset: SimDuration::from_secs_f64(rt),
                        text,
                        sha1: None,
                        origin: QueryOrigin::AutoRepeat,
                    });
                }
            }
        }
        // Rule 1 targets: SHA1 source searches.
        if rng.gen::<f64>() < client.sha1_session_prob {
            let m = geometric(rng, client.sha1_mean).min(14);
            for _ in 0..m {
                let hi = (duration * 0.97).max(t_first + 2.0);
                let at = rng.gen_range(t_first..hi.max(t_first + 0.1));
                plan.queries.push(PlannedQuery {
                    offset: SimDuration::from_secs_f64(at),
                    text: QueryId::empty(),
                    sha1: Some(synth_sha1(rng)),
                    origin: QueryOrigin::AutoSha1,
                });
            }
        }
        // Rule 4 targets: sub-second burst at connect (pre-connect
        // searches re-sent). Distinct texts so rule 2 does not mask them.
        if rng.gen::<f64>() < client.burst_prob && client.burst_len.1 > 0 {
            let b = rng.gen_range(client.burst_len.0..=client.burst_len.1);
            let mut at = rng.gen_range(1.0..3.0);
            // The burst replays the user's pre-connect search list: the
            // entries are *distinct* keyword sets (rule 2 would silently
            // absorb repeats, hiding the rule-4 signature the paper
            // measured). Rejection-sample against the texts already in the
            // burst; on persistent collision (tiny class vocabularies) the
            // duplicate is kept and rule 2 removes it downstream.
            let mut seen: std::collections::HashSet<QueryId> = std::collections::HashSet::new();
            for _ in 0..b {
                if at >= duration * 0.95 {
                    break; // burst must fit inside the session
                }
                let mut text = self.vocab.sample_query(region, day, rng);
                for _ in 0..8 {
                    if !seen.contains(&text) {
                        break;
                    }
                    text = self.vocab.sample_query(region, day, rng);
                }
                seen.insert(text);
                plan.queries.push(PlannedQuery {
                    offset: SimDuration::from_secs_f64(at),
                    text,
                    sha1: None,
                    origin: QueryOrigin::AutoBurst,
                });
                at += rng.gen_range(0.25..0.95);
            }
        }
        // Rule 5 targets: fixed-interval periodic re-queries, placed as a
        // train starting shortly after connect.
        if rng.gen::<f64>() < client.periodic_prob {
            let interval = client.periodic_interval_secs;
            let n_texts = rng.gen_range(2..=4usize);
            let train: Vec<QueryId> = (0..n_texts)
                .map(|_| self.vocab.sample_query(region, day, rng))
                .collect();
            let start = rng.gen_range(4.0..8.0);
            let max_train = 40;
            let mut at = start;
            let mut k = 0;
            while at < duration * 0.9 && k < max_train {
                plan.queries.push(PlannedQuery {
                    offset: SimDuration::from_secs_f64(at),
                    text: train[k % n_texts],
                    sha1: None,
                    origin: QueryOrigin::AutoPeriodic,
                });
                at += interval;
                k += 1;
            }
        }

        // Automation jitter may overshoot very short sessions; such
        // messages would never be sent before teardown.
        let duration = plan.duration;
        plan.queries.retain(|q| q.offset <= duration);
        plan.queries.sort_by_key(|q| q.offset);
        plan
    }
}

/// Geometric sample with the given mean (≥ 1).
fn geometric(rng: &mut StdRng, mean: f64) -> u32 {
    if mean <= 1.0 {
        return 1;
    }
    let p = 1.0 / mean;
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    ((u.ln() / (1.0 - p).ln()).floor() as u32).saturating_add(1)
}

/// Synthesize a SHA1 urn.
fn synth_sha1(rng: &mut StdRng) -> String {
    const B32: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ234567";
    let mut s = String::with_capacity(41);
    s.push_str("urn:sha1:");
    for _ in 0..32 {
        s.push(B32[rng.gen_range(0..32)] as char);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn planner() -> SessionPlanner {
        let vocab = Vocabulary::with_daily_sizes(1, [300, 280, 60, 30, 3, 3, 2]);
        SessionPlanner::paper_default(Arc::new(vocab))
    }

    fn plans(n: usize, region: Region, hour: u32) -> Vec<SessionPlan> {
        let p = planner();
        let mut rng = StdRng::seed_from_u64(11);
        (0..n).map(|_| p.plan(0, hour, region, &mut rng)).collect()
    }

    #[test]
    fn kind_mix_matches_targets() {
        let ps = plans(8_000, Region::NorthAmerica, 20);
        let quick = ps.iter().filter(|p| p.kind == SessionKind::Quick).count() as f64;
        let passive = ps.iter().filter(|p| p.kind == SessionKind::Passive).count() as f64;
        let active = ps.iter().filter(|p| p.kind == SessionKind::Active).count() as f64;
        let n = ps.len() as f64;
        assert!((quick / n - 0.70).abs() < 0.02, "quick {}", quick / n);
        // Of the non-quick sessions, ≈82.5 % passive for NA.
        let frac_passive = passive / (passive + active);
        assert!(
            (frac_passive - 0.825).abs() < 0.03,
            "passive {frac_passive}"
        );
    }

    #[test]
    fn quick_sessions_are_short_with_paper_breakdown() {
        let ps = plans(8_000, Region::NorthAmerica, 20);
        let quick: Vec<_> = ps.iter().filter(|p| p.kind == SessionKind::Quick).collect();
        let lt10 = quick
            .iter()
            .filter(|p| p.duration.as_secs_f64() < 10.0)
            .count() as f64;
        for p in &quick {
            assert!(p.duration.as_secs_f64() < 64.0);
        }
        // §3.3: 29 % of all connections (= 29/70 of quick) end < 10 s.
        let frac = lt10 / quick.len() as f64;
        assert!((frac - 0.29 / 0.70).abs() < 0.04, "lt10 {frac}");
    }

    #[test]
    fn passive_sessions_have_no_queries_and_64s_floor() {
        let ps = plans(6_000, Region::Europe, 12);
        for p in ps.iter().filter(|p| p.kind == SessionKind::Passive) {
            assert!(p.queries.is_empty());
            assert!(p.duration.as_secs_f64() >= 64.0);
            assert_eq!(p.user_query_count, 0);
        }
    }

    #[test]
    fn active_sessions_are_well_formed() {
        let ps = plans(6_000, Region::NorthAmerica, 20);
        for p in ps.iter().filter(|p| p.kind == SessionKind::Active) {
            assert!(p.user_query_count >= 1);
            let users: Vec<_> = p
                .queries
                .iter()
                .filter(|q| q.origin == QueryOrigin::User)
                .collect();
            assert_eq!(users.len() as u32, p.user_query_count);
            // Sorted by offset; all within the session.
            let mut prev = SimDuration::ZERO;
            for q in &p.queries {
                assert!(q.offset >= prev);
                prev = q.offset;
                assert!(
                    q.offset <= p.duration,
                    "query at {:?} beyond duration {:?}",
                    q.offset,
                    p.duration
                );
            }
            // SHA1 queries have empty text + urn.
            for q in &p.queries {
                if q.origin == QueryOrigin::AutoSha1 {
                    assert!(q.text.is_empty());
                    assert!(q.sha1.as_deref().unwrap().starts_with("urn:sha1:"));
                } else {
                    assert!(q.sha1.is_none());
                }
            }
        }
    }

    #[test]
    fn automation_layers_present_in_population() {
        let ps = plans(6_000, Region::NorthAmerica, 20);
        let count = |o: QueryOrigin| {
            ps.iter()
                .flat_map(|p| &p.queries)
                .filter(|q| q.origin == o)
                .count()
        };
        assert!(count(QueryOrigin::User) > 500);
        assert!(count(QueryOrigin::AutoRepeat) > 200, "need rule-2 traffic");
        assert!(count(QueryOrigin::AutoSha1) > 100, "need rule-1 traffic");
        assert!(count(QueryOrigin::AutoBurst) > 50, "need rule-4 traffic");
        assert!(count(QueryOrigin::AutoPeriodic) > 50, "need rule-5 traffic");
    }

    #[test]
    fn asia_has_burst_heavy_sessions() {
        // Figure 6(c): ≈4 % of Asian sessions exceed 100 raw queries when
        // rules 4/5 are not applied.
        let ps = plans(20_000, Region::Asia, 13);
        let active: Vec<_> = ps
            .iter()
            .filter(|p| p.kind == SessionKind::Active)
            .collect();
        let heavy = active.iter().filter(|p| p.queries.len() > 100).count() as f64;
        let frac = heavy / active.len() as f64;
        assert!(frac > 0.01, "heavy-burst fraction {frac}");
    }

    #[test]
    fn geometric_mean_is_right() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| u64::from(geometric(&mut rng, 2.5))).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "mean {mean}");
        assert_eq!(geometric(&mut rng, 0.5), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = planner();
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let pa = p.plan(1, 13, Region::Europe, &mut a);
        let pb = p.plan(1, 13, Region::Europe, &mut b);
        assert_eq!(pa, pb);
    }
}
