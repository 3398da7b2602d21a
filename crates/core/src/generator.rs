//! The §4.7 / Figure 12 synthetic workload generator.
//!
//! A steady-state population of `N` peers: whenever a peer finishes its
//! session it is replaced by a new peer (step "Consider a system in steady
//! state with N peers"). Each peer is generated exactly as Figure 12
//! prescribes:
//!
//! 1. select the geographic region with the time-of-day-conditioned
//!    probabilities (Figure 1);
//! 2. decide passive vs active with the region-conditioned passive
//!    probability (Figure 4);
//! 3. passive ⇒ draw the connected session length (Table A.1);
//! 4. active ⇒ draw the number of queries (Table A.2), the time until the
//!    first query conditioned on query count and period (Table A.3), each
//!    interarrival (Table A.4, with the Europe-only query-count
//!    conditioning), the query class (Table 3 mix) and rank (Figure 11
//!    Zipf laws), and finally the time after the last query (Table A.5).
//!
//! A query's class and rank come from the model's one popularity draw,
//! [`PopularityLaws::draw_query`](crate::model::PopularityLaws::draw_query),
//! which the simulated ground truth (`behavior::Vocabulary`) draws
//! through too. Which item a rank names follows the §4.6 hot-set-drift
//! structure, and is the generator's own: each class owns a pool
//! `pool_multiplier ×` its daily size; a day's active set is the top
//! `daily_size` pool items by perturbed base score, ranked from the
//! generator's `hotset` stream for that class and day, so rank r on day n
//! and rank r on day n+1 usually name different items (Figure 10). The
//! generator keeps the rankings of the last two days it asked for.
//!
//! The generator is an `Iterator<Item = WorkloadEvent>` emitting events in
//! global time order, and is infinite — bound it with `take`,
//! `take_while` on the timestamp, or [`WorkloadGenerator::events_until`].
//!
//! Construction builds the model's laws once ([`WorkloadModel::laws`]:
//! Tables A.1–A.5 and the popularity laws), so an invalid model panics
//! there, naming the cell or class. A session then only samples
//! from those laws. The peers' next events wait in a binary min-heap
//! keyed by `(time, schedule sequence)`, a strict total order, and each
//! event overwrites the heap's top slot with the same peer's next event:
//! one sift per event.

use crate::events::{PeerId, QueryRef, WorkloadEvent};
use crate::model::{ModelLaws, QueryClass, WorkloadModel};
use geoip::Region;
use rand::rngs::StdRng;
use rand::Rng;
use simnet::{SimDuration, SimTime};
use stats::rank::drifted_hot_set;
use stats::rng::SeedSequence;
use std::collections::{BinaryHeap, VecDeque};

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Steady-state population size N.
    pub n_peers: usize,
    /// Root seed.
    pub seed: u64,
    /// Evaluate at a fixed time of day (the paper's §4.7 procedure:
    /// "the evaluation is performed for a given time of day, which is
    /// selected before workload generation"). `None` uses the rolling
    /// simulated clock instead — suitable for multi-day workloads.
    pub fixed_hour: Option<u32>,
    /// Trace origin.
    pub start: SimTime,
    /// Stagger the initial population uniformly over this window so all
    /// N peers do not join at t = 0 simultaneously.
    pub warmup: SimDuration,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            n_peers: 100,
            seed: 1,
            fixed_hour: None,
            start: SimTime::ZERO,
            warmup: SimDuration::from_secs(600),
        }
    }
}

/// Heap entry: earliest pending event per peer slot.
#[derive(PartialEq, Eq)]
struct Slot {
    at: SimTime,
    seq: u64,
    idx: usize,
}

impl Ord for Slot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Day rankings kept per class: the current day, plus the previous one
/// for the initial population's warm-up window, which can straddle a
/// midnight.
const RECENT_DAYS: usize = 2;

/// The Figure 12 generator.
pub struct WorkloadGenerator {
    model: WorkloadModel,
    laws: ModelLaws,
    cfg: GeneratorConfig,
    seq: SeedSequence,
    heap: BinaryHeap<Slot>,
    pending: Vec<VecDeque<WorkloadEvent>>,
    /// Per class, `(day, ranked pool-item ids)` of the last
    /// [`RECENT_DAYS`] days ranked, oldest first. Sessions start in time
    /// order once the initial population is seeded, so older days are
    /// not asked for again; a day that was dropped is ranked again,
    /// identically.
    rankings: [Vec<(u64, Vec<u32>)>; 7],
    sessions_started: u64,
    next_seq: u64,
    next_peer: u64,
}

impl WorkloadGenerator {
    /// Create a generator over `model`.
    ///
    /// # Panics
    ///
    /// On an empty population, or when a law of `model` cannot be built
    /// (the message names the cell and the parameter error).
    pub fn new(model: &WorkloadModel, cfg: GeneratorConfig) -> WorkloadGenerator {
        assert!(cfg.n_peers > 0, "population must be non-empty");
        let laws = model
            .laws()
            .unwrap_or_else(|e| panic!("invalid workload model: {e}"));
        let seq = SeedSequence::new(cfg.seed).child("p2pq-generator");
        let mut gen = WorkloadGenerator {
            model: model.clone(),
            laws,
            cfg,
            seq,
            heap: BinaryHeap::new(),
            pending: Vec::new(),
            rankings: std::array::from_fn(|_| Vec::with_capacity(RECENT_DAYS)),
            sessions_started: 0,
            next_seq: 0,
            next_peer: 0,
        };
        // Seed the initial population, staggered across the warmup window.
        let mut warm_rng = gen.seq.rng("warmup");
        for i in 0..cfg.n_peers {
            let offset = if cfg.warmup == SimDuration::ZERO {
                SimDuration::ZERO
            } else {
                SimDuration::from_millis(warm_rng.gen_range(0..=cfg.warmup.as_millis()))
            };
            gen.pending.push(VecDeque::new());
            let at = gen.start_session(i, cfg.start + offset);
            let slot = gen.slot(at, i);
            gen.heap.push(slot);
        }
        gen
    }

    /// Number of sessions started so far.
    pub fn sessions_started(&self) -> u64 {
        self.sessions_started
    }

    /// Collect all events up to (and including) time `until`.
    pub fn events_until(&mut self, until: SimTime) -> Vec<WorkloadEvent> {
        let mut out = Vec::new();
        while let Some(slot) = self.heap.peek() {
            if slot.at > until {
                break;
            }
            match self.next() {
                Some(ev) => out.push(ev),
                None => break,
            }
        }
        out
    }

    /// The day's ranked item list for a class (computed lazily).
    fn ranking(&mut self, class: QueryClass, day: u64) -> &[u32] {
        let recent = &mut self.rankings[class.index()];
        let i = match recent.iter().position(|(d, _)| *d == day) {
            Some(i) => i,
            None => {
                let popularity = self.laws.popularity();
                let key = (class.index() as u64) << 32 | day;
                let ranked = drifted_hot_set(
                    popularity.pool_size(class),
                    popularity.daily_size(class),
                    popularity.drift_sigma(),
                    &mut self.seq.rng_indexed("hotset", key),
                );
                if recent.len() == RECENT_DAYS {
                    recent.remove(0);
                }
                recent.push((day, ranked));
                recent.len() - 1
            }
        };
        &recent[i].1
    }

    /// Step 4(c)(ii)–(iii): the class and rank, then today's item.
    fn pick_query(&mut self, region: Region, day: u64, rng: &mut StdRng) -> QueryRef {
        let (class, rank) = self.laws.popularity().draw_query(region, rng);
        let ranking = self.ranking(class, day);
        let item = u64::from(ranking[((rank - 1) as usize).min(ranking.len() - 1)]);
        QueryRef { class, rank, item }
    }

    /// Heap entry for slot `idx`'s next event at `at`, numbered in
    /// schedule order to break time ties.
    fn slot(&mut self, at: SimTime, idx: usize) -> Slot {
        let seq = self.next_seq;
        self.next_seq += 1;
        Slot { at, seq, idx }
    }

    /// Generate one full session for slot `idx` starting at `t0`, queue
    /// its events, and return the time of its first.
    fn start_session(&mut self, idx: usize, t0: SimTime) -> SimTime {
        let mut rng = self.seq.rng_indexed("session", self.sessions_started);
        self.sessions_started += 1;
        let peer = PeerId(self.next_peer);
        self.next_peer += 1;

        let hour = self.cfg.fixed_hour.unwrap_or_else(|| t0.hour_of_day());
        let day = t0.day();
        // Step 1: region.
        let region = self.model.diurnal.sample_region(hour, &mut rng);
        let peak = self.model.diurnal.is_peak(region, hour);
        // Step 2: passive or active.
        let passive = self.laws.draw_passive(region, &mut rng);

        let q = &mut self.pending[idx];
        q.clear();
        q.push_back(WorkloadEvent::SessionStart {
            peer,
            region,
            at: t0,
            passive,
        });

        if passive {
            // Step 3: connected session length.
            let d = self.laws.draw_passive_duration(region, peak, &mut rng);
            q.push_back(WorkloadEvent::SessionEnd {
                peer,
                at: t0 + SimDuration::from_secs_f64(d),
            });
        } else {
            // Step 4(a): number of queries.
            let n = self.laws.draw_queries(region, &mut rng);
            // Step 4(b): time until first query.
            let mut t = self.laws.draw_first_query(region, peak, n, &mut rng);
            let mut events = Vec::with_capacity(n as usize + 1);
            for k in 0..n {
                if k > 0 {
                    // Step 4(c)(i): interarrival time.
                    t += self.laws.draw_interarrival(region, peak, n, &mut rng);
                }
                let at = t0 + SimDuration::from_secs_f64(t);
                let query = self.pick_query(region, day, &mut rng);
                events.push(WorkloadEvent::Query { peer, at, query });
            }
            // Step 4(d): time after the last query.
            let after = self.laws.draw_time_after_last(region, peak, n, &mut rng);
            let end = t0 + SimDuration::from_secs_f64(t + after);
            let q = &mut self.pending[idx];
            for e in events {
                q.push_back(e);
            }
            q.push_back(WorkloadEvent::SessionEnd { peer, at: end });
        }

        self.pending[idx].front().expect("session has events").at()
    }
}

impl Iterator for WorkloadGenerator {
    type Item = WorkloadEvent;

    fn next(&mut self) -> Option<WorkloadEvent> {
        let top = self.heap.peek()?;
        let idx = top.idx;
        let ev = self.pending[idx]
            .pop_front()
            .expect("heap entry implies pending event");
        debug_assert_eq!(ev.at(), top.at);
        let at = if let WorkloadEvent::SessionEnd { at, .. } = ev {
            // Steady state: the departed peer is replaced immediately.
            self.start_session(idx, at)
        } else {
            self.pending[idx]
                .front()
                .expect("session continues after non-end event")
                .at()
        };
        // The slot's next event replaces it at the top: one sift down
        // when the guard drops, where pop + push would sift twice.
        let slot = self.slot(at, idx);
        *self
            .heap
            .peek_mut()
            .expect("the slot read above is still the top") = slot;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::collect_sessions;

    fn small_cfg(seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            n_peers: 40,
            seed,
            fixed_hour: Some(20),
            start: SimTime::ZERO,
            warmup: SimDuration::from_secs(300),
        }
    }

    #[test]
    fn events_are_time_ordered_and_well_formed() {
        let model = WorkloadModel::paper_default();
        let mut gen = WorkloadGenerator::new(&model, small_cfg(3));
        let mut prev = SimTime::ZERO;
        let mut open = std::collections::HashSet::new();
        for ev in (&mut gen).take(20_000) {
            assert!(ev.at() >= prev, "events out of order");
            prev = ev.at();
            match ev {
                WorkloadEvent::SessionStart { peer, .. } => {
                    assert!(open.insert(peer), "peer started twice");
                }
                WorkloadEvent::Query { peer, .. } => {
                    assert!(open.contains(&peer), "query outside session");
                }
                WorkloadEvent::SessionEnd { peer, .. } => {
                    assert!(open.remove(&peer), "end without start");
                }
            }
        }
        assert!(gen.sessions_started() > 40);
    }

    #[test]
    fn steady_state_population_is_constant() {
        let model = WorkloadModel::paper_default();
        let gen = WorkloadGenerator::new(&model, small_cfg(4));
        let mut live: i64 = 0;
        let mut max_live: i64 = 0;
        for ev in gen.take(30_000) {
            match ev {
                WorkloadEvent::SessionStart { .. } => live += 1,
                WorkloadEvent::SessionEnd { .. } => live -= 1,
                _ => {}
            }
            max_live = max_live.max(live);
        }
        // Population never exceeds N and returns to N after replacements.
        assert!(max_live <= 40);
        assert!(live >= 0);
    }

    #[test]
    fn passive_fraction_matches_model() {
        let model = WorkloadModel::paper_default();
        let mut gen = WorkloadGenerator::new(&model, small_cfg(5));
        let events = gen.events_until(SimTime::from_secs(400_000));
        let mut passive = 0u64;
        let mut total = 0u64;
        let mut by_region = [0u64; 4];
        for ev in &events {
            if let WorkloadEvent::SessionStart {
                passive: p, region, ..
            } = ev
            {
                total += 1;
                by_region[region.index()] += 1;
                if *p {
                    passive += 1;
                }
            }
        }
        assert!(total > 2_000, "only {total} sessions");
        let frac = passive as f64 / total as f64;
        // Expected ≈ Σ region mix × passive prob ≈ 0.82 at hour 20.
        assert!((frac - 0.82).abs() < 0.03, "passive fraction {frac}");
        // At 20:00, NA dominates (Figure 1).
        assert!(by_region[0] > by_region[1] + by_region[2]);
    }

    #[test]
    fn query_count_distribution_matches_table_a2() {
        let model = WorkloadModel::paper_default();
        let mut gen = WorkloadGenerator::new(&model, small_cfg(6));
        let events = gen.events_until(SimTime::from_secs(600_000));
        let sessions = collect_sessions(events);
        let counts: Vec<u32> = sessions
            .iter()
            .filter(|s| s.region == Region::NorthAmerica && !s.is_passive())
            .map(|s| s.query_times.len() as u32)
            .collect();
        assert!(
            counts.len() > 200,
            "only {} active NA sessions",
            counts.len()
        );
        // Table A.2 with ceil(): P(count < 5) = Φ((ln4 + 0.0673)/1.36)
        // ≈ 0.857 (the paper quotes ~80 % from the measured CCDF; its own
        // lognormal fit shows the same offset in Figure A.1(a)).
        let lt5 = counts.iter().filter(|&&c| c < 5).count() as f64 / counts.len() as f64;
        assert!((lt5 - 0.857).abs() < 0.04, "NA <5-query fraction {lt5}");
    }

    #[test]
    fn interarrival_shape_matches_figure8() {
        let model = WorkloadModel::paper_default();
        let mut gen = WorkloadGenerator::new(&model, small_cfg(7));
        let events = gen.events_until(SimTime::from_secs(600_000));
        let sessions = collect_sessions(events);
        let mut na_gaps = Vec::new();
        for s in sessions.iter().filter(|s| s.region == Region::NorthAmerica) {
            na_gaps.extend(s.interarrivals());
        }
        assert!(na_gaps.len() > 300);
        let below = na_gaps.iter().filter(|&&g| g < 103.0).count() as f64 / na_gaps.len() as f64;
        // Figure 8(a): ~70 % of NA interarrivals below ~100 s (20:00 is
        // peak ⇒ body weight 0.70).
        assert!(
            (below - 0.70).abs() < 0.05,
            "NA below-103s fraction {below}"
        );
    }

    #[test]
    fn ranks_follow_zipf_head() {
        let model = WorkloadModel::paper_default();
        let mut gen = WorkloadGenerator::new(&model, small_cfg(8));
        let events = gen.events_until(SimTime::from_secs(300_000));
        let mut rank1 = 0u64;
        let mut total = 0u64;
        for ev in &events {
            if let WorkloadEvent::Query { query, .. } = ev {
                if query.class == QueryClass::NaOnly {
                    total += 1;
                    if query.rank == 1 {
                        rank1 += 1;
                    }
                }
            }
        }
        assert!(total > 500);
        let frac = rank1 as f64 / total as f64;
        // Zipf(0.386, 1931): pmf(1) ≈ 0.0036; uniform would be 0.00052.
        assert!(
            frac > 0.0015,
            "rank-1 fraction {frac} too low for a Zipf head"
        );
    }

    #[test]
    fn hot_set_drifts_across_days() {
        let model = WorkloadModel::paper_default();
        let mut gen = WorkloadGenerator::new(&model, small_cfg(9));
        let day0 = gen.ranking(QueryClass::NaOnly, 0).to_vec();
        let day1 = gen.ranking(QueryClass::NaOnly, 1).to_vec();
        assert_eq!(day0.len(), 1931);
        // Top-10 of day 0 mostly leaves the top-100 of day 1 (Figure 10).
        let top100: std::collections::HashSet<u32> = day1.iter().take(100).copied().collect();
        let kept = day0.iter().take(10).filter(|i| top100.contains(i)).count();
        assert!(kept <= 8, "hot set too sticky: {kept}/10 still in top-100");
        // Deterministic.
        assert_eq!(day0, gen.ranking(QueryClass::NaOnly, 0));
    }

    #[test]
    fn determinism() {
        let model = WorkloadModel::paper_default();
        let a: Vec<_> = WorkloadGenerator::new(&model, small_cfg(10))
            .take(5_000)
            .collect();
        let b: Vec<_> = WorkloadGenerator::new(&model, small_cfg(10))
            .take(5_000)
            .collect();
        assert_eq!(a, b);
        let c: Vec<_> = WorkloadGenerator::new(&model, small_cfg(11))
            .take(5_000)
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "population must be non-empty")]
    fn rejects_empty_population() {
        let model = WorkloadModel::paper_default();
        let _ = WorkloadGenerator::new(
            &model,
            GeneratorConfig {
                n_peers: 0,
                ..small_cfg(1)
            },
        );
    }

    /// Events up to `until`, sessions started, and an FNV-1a digest of
    /// every field of every event.
    fn stream_digest(gen: &mut WorkloadGenerator, until: SimTime) -> (u64, u64, u64) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fnv = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        let events = gen.events_until(until);
        for ev in &events {
            match *ev {
                WorkloadEvent::SessionStart {
                    peer,
                    region,
                    at,
                    passive,
                } => {
                    fnv(0);
                    fnv(peer.0);
                    fnv(region.index() as u64);
                    fnv(at.as_millis());
                    fnv(u64::from(passive));
                }
                WorkloadEvent::Query { peer, at, query } => {
                    fnv(1);
                    fnv(peer.0);
                    fnv(at.as_millis());
                    fnv(query.class.index() as u64);
                    fnv(query.rank);
                    fnv(query.item);
                }
                WorkloadEvent::SessionEnd { peer, at } => {
                    fnv(2);
                    fnv(peer.0);
                    fnv(at.as_millis());
                }
            }
        }
        (events.len() as u64, gen.sessions_started(), h)
    }

    /// Fixed-seed regression of the whole event stream, in two shapes.
    /// At hour 20 every peer joins at t = 0, so the start order is
    /// decided by the heap's tie-break alone. The rolling clock runs
    /// 3.5 virtual days, so each day's hot set is ranked and the oldest
    /// ranking evicted. Re-pin only for an intended change of the
    /// stream, never for a refactor or a speedup.
    #[test]
    fn event_stream_pinned() {
        let model = WorkloadModel::paper_default();
        let mut fixed = WorkloadGenerator::new(
            &model,
            GeneratorConfig {
                n_peers: 200,
                seed: 12,
                fixed_hour: Some(20),
                start: SimTime::ZERO,
                warmup: SimDuration::ZERO,
            },
        );
        let fixed = stream_digest(&mut fixed, SimTime::from_secs(86_400));
        let mut rolling = WorkloadGenerator::new(
            &model,
            GeneratorConfig {
                n_peers: 500,
                seed: 13,
                fixed_hour: None,
                ..GeneratorConfig::default()
            },
        );
        let until = SimTime::from_secs(3 * 86_400 + 43_200);
        let rolled = stream_digest(&mut rolling, until);
        let ranked: Vec<u64> = rolling.rankings[QueryClass::NaOnly.index()]
            .iter()
            .map(|(day, _)| *day)
            .collect();
        assert_eq!(ranked, [2, 3], "days 0 and 1 were ranked, then evicted");
        assert_eq!(
            (fixed, rolled),
            (
                (14_700, 5_935, 103_383_252_085_693_513),
                (73_267, 28_951, 13_158_804_224_391_283_521),
            ),
            "generated event stream changed"
        );
    }

    /// A model that allows no query per session fails at construction,
    /// naming the cell, not at its first active session.
    #[test]
    #[should_panic(expected = "invalid workload model: max_queries: ")]
    fn zero_max_queries_fails_at_construction() {
        let mut model = WorkloadModel::paper_default();
        model.max_queries = 0;
        let _ = WorkloadGenerator::new(&model, small_cfg(1));
    }

    /// The laws are built when the generator is: a bad North America
    /// non-peak passive law fails at construction, although at hour 20
    /// (NA peak) no session would ever sample it.
    #[test]
    #[should_panic(
        expected = "passive_duration[North America][non-peak]: parameter `sigma` = -1 invalid"
    )]
    fn invalid_law_fails_at_construction() {
        let mut model = WorkloadModel::paper_default();
        model.passive_duration[Region::NorthAmerica.index()][1]
            .tail
            .sigma = -1.0;
        let _ = WorkloadGenerator::new(&model, small_cfg(1));
    }

    /// The popularity laws are built with the session laws: a bad NA∩EU
    /// rank law fails at construction, naming its class.
    #[test]
    #[should_panic(
        expected = "invalid workload model: popularity[NA∩EU]: parameter `alpha_body` = -1 invalid"
    )]
    fn invalid_popularity_law_fails_at_construction() {
        let mut model = WorkloadModel::paper_default();
        model.popularity.classes[QueryClass::NaEu.index()].law =
            crate::model::RankLawParams::TwoPiece {
                alpha_body: -1.0,
                alpha_tail: 4.67,
                break_rank: 45,
            };
        let _ = WorkloadGenerator::new(&model, small_cfg(1));
    }
}
