//! Shared per-session traffic generation.
//!
//! Everything a client session *sends* — planned queries, keepalive
//! PINGs, relayed ultrapeer traffic, answers to probes and forwarded
//! queries, the closing BYE — is drawn here, from the session's own RNG
//! stream, in one canonical order. Both execution fidelities consume
//! this module:
//!
//! * **full** (`crate::peer::ClientPeer`) turns each draw into a real
//!   [`gnutella::message::Message`] and sends it through `simnet`;
//! * **hybrid** (`crate::hybrid`) turns the same draw into a trace
//!   record plus an analytic wire length, skipping message construction
//!   entirely.
//!
//! Because the draw functions are shared and the session RNG is private
//! to the session, the two fidelities produce bit-identical observable
//! traffic — the property the golden equivalence test enforces.
//!
//! [`SessionEmitter`] merges a session's time-driven emissions (planned
//! queries, keepalives, relayed traffic, session end) into one ordered
//! stream that is pulled lazily, one item at a time: the full-fidelity
//! peer keeps a single outstanding timer per session instead of
//! pre-arming every planned query, which cuts steady-state event-queue
//! pressure to O(live sessions).

use crate::files::SharedFilesModel;
use crate::session::SessionPlan;
use crate::vocabulary::Vocabulary;
use geoip::{AddressAllocator, DiurnalModel};
use gnutella::symbols::QueryId;
use gnutella::Guid;
use rand::rngs::StdRng;
use rand::Rng;
use simnet::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Fixed name of the single result in an answer to a forwarded query.
pub(crate) const ANSWER_FILE_NAME: &str = "match.mp3";

/// Reason text of the BYE a session sends when it closes visibly.
pub(crate) const BYE_REASON: &str = "shutting down";

/// Mean seconds between the relayed QUERYs of one ultrapeer neighbor
/// (exponential gaps, like the PONG and QUERYHIT gaps below). The three
/// means are calibrated against Table 1's volume ratios: ≈20× more total
/// queries than hop-1 queries, and PONGs ≈ half the QUERY volume.
const RELAY_QUERY_MEAN_SECS: f64 = 8.0;
/// Mean seconds between relayed PONGs.
const RELAY_PONG_MEAN_SECS: f64 = 15.0;
/// Mean seconds between relayed QUERYHITs.
const RELAY_HIT_MEAN_SECS: f64 = 150.0;

/// Draw an exponential delay with the given mean.
pub(crate) fn exp_delay(rng: &mut StdRng, mean_secs: f64) -> SimDuration {
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    SimDuration::from_secs_f64(-mean_secs * u.ln())
}

/// Received hop counts of relayed traffic: skewed toward the middle of
/// the 7-hop flood radius. Returns `(hops, ttl)`.
pub(crate) fn relay_header(rng: &mut StdRng) -> (u8, u8) {
    let hops = *[2u8, 2, 3, 3, 3, 4, 4, 5, 5, 6]
        .get(rng.gen_range(0..10))
        .unwrap();
    (
        hops,
        gnutella::message::DEFAULT_TTL.saturating_sub(hops).max(1),
    )
}

/// A relayed QUERY, fully drawn.
pub struct RelayQueryDraw {
    /// Interned query text.
    pub text: QueryId,
    /// Received hop count.
    pub hops: u8,
    /// Remaining TTL.
    pub(crate) ttl: u8,
    /// Message GUID.
    pub(crate) guid: Guid,
}

/// Draw a relayed QUERY (region → text → header → GUID).
pub fn draw_relay_query(
    vocab: &Vocabulary,
    diurnal: &DiurnalModel,
    now: SimTime,
    rng: &mut StdRng,
) -> RelayQueryDraw {
    let hour = now.hour_of_day();
    let day = now.day() as usize;
    let region = diurnal.sample_region(hour, rng);
    let text = vocab.sample_query(region, day, rng);
    let (hops, ttl) = relay_header(rng);
    RelayQueryDraw {
        text,
        hops,
        ttl,
        guid: Guid::random(rng),
    }
}

/// A relayed PONG, fully drawn.
pub struct RelayPongDraw {
    /// Advertised remote address.
    pub(crate) addr: Ipv4Addr,
    /// Advertised shared-file count.
    pub files: u32,
    /// Advertised shared kilobytes.
    pub(crate) kb: u32,
    /// Received hop count.
    pub(crate) hops: u8,
    /// Remaining TTL.
    pub(crate) ttl: u8,
    /// Message GUID.
    pub guid: Guid,
}

/// Draw a relayed PONG (region → addr → files → kb → header → GUID).
pub fn draw_relay_pong(
    diurnal: &DiurnalModel,
    alloc: &AddressAllocator,
    files: &SharedFilesModel,
    now: SimTime,
    rng: &mut StdRng,
) -> RelayPongDraw {
    let hour = now.hour_of_day();
    let region = diurnal.sample_region(hour, rng);
    let addr = alloc.sample(region, rng);
    let f = files.sample(rng);
    let kb = files.kb_for(f, rng);
    let (hops, ttl) = relay_header(rng);
    RelayPongDraw {
        addr,
        files: f,
        kb,
        hops,
        ttl,
        guid: Guid::random(rng),
    }
}

/// One drawn result record of a relayed QUERYHIT. The file name on the
/// wire is `file{num:04}.mp3` — always `RELAY_HIT_NAME_LEN` bytes.
pub struct RelayHitResultDraw {
    /// File size in bytes.
    pub(crate) size: u32,
    /// Four-digit number embedded in the file name.
    pub(crate) name_num: u32,
}

/// Byte length of every relayed-hit file name (`fileNNNN.mp3`).
pub(crate) const RELAY_HIT_NAME_LEN: usize = 12;

/// A relayed QUERYHIT, fully drawn.
pub struct RelayHitDraw {
    /// Responder address.
    pub(crate) addr: Ipv4Addr,
    /// Received hop count.
    pub(crate) hops: u8,
    /// Remaining TTL.
    pub(crate) ttl: u8,
    /// Result records (1..=4).
    pub results: Vec<RelayHitResultDraw>,
    /// Message GUID.
    pub(crate) guid: Guid,
    /// Responder advertised speed.
    pub speed: u32,
    /// Responder servent GUID.
    pub(crate) servent: Guid,
}

/// Draw a relayed QUERYHIT
/// (region → addr → header → n → results → GUID → speed → servent).
pub fn draw_relay_hit(
    diurnal: &DiurnalModel,
    alloc: &AddressAllocator,
    now: SimTime,
    rng: &mut StdRng,
) -> RelayHitDraw {
    let hour = now.hour_of_day();
    let region = diurnal.sample_region(hour, rng);
    let addr = alloc.sample(region, rng);
    let (hops, ttl) = relay_header(rng);
    let n = rng.gen_range(1..=4);
    let results = (0..n)
        .map(|_| RelayHitResultDraw {
            size: rng.gen_range(500_000..8_000_000),
            name_num: rng.gen_range(0..9_999),
        })
        .collect();
    RelayHitDraw {
        addr,
        hops,
        ttl,
        results,
        guid: Guid::random(rng),
        speed: rng.gen_range(28..1_000),
        servent: Guid::random(rng),
    }
}

/// An answer to a query forwarded by the measurement peer, fully drawn.
/// The hit reuses the incoming GUID (drawn by the querying peer), so only
/// the responder-side fields are here.
pub(crate) struct QueryAnswerDraw {
    /// Responder advertised speed.
    pub(crate) speed: u32,
    /// Size of the single matching file.
    pub(crate) size: u32,
    /// Responder servent GUID.
    pub(crate) servent: Guid,
}

/// Decide whether a session answers a forwarded query, and draw the
/// answer (p → speed → size → servent). Sessions sharing no files never
/// answer — and consume no randomness.
pub(crate) fn draw_query_answer(shared_files: u32, rng: &mut StdRng) -> Option<QueryAnswerDraw> {
    if shared_files == 0 {
        return None;
    }
    // A modest hit probability; hits reuse the incoming GUID so the
    // measurement peer's reverse routing is exercised.
    if rng.gen::<f64>() > 0.05 {
        return None;
    }
    Some(QueryAnswerDraw {
        speed: rng.gen_range(28..1_000),
        size: rng.gen_range(500_000..8_000_000),
        servent: Guid::random(rng),
    })
}

/// What a session emits next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmissionKind {
    /// The planned query at this index.
    Planned(usize),
    /// A keepalive PING.
    Keepalive,
    /// A relayed QUERY from the notional subtree (ultrapeers only).
    RelayQuery,
    /// A relayed PONG.
    RelayPong,
    /// A relayed QUERYHIT.
    RelayHit,
    /// Session end (optionally BYE + disconnect, or a silent vanish).
    End,
}

/// Merged, lazily-pulled stream of a session's time-driven emissions.
///
/// [`SessionEmitter::next`] returns the send instant and kind of the
/// next emission and advances the winning sub-stream — drawing the next
/// exponential gap for relay streams *at emission time*, which is the
/// canonical draw point both fidelities share. After [`EmissionKind::End`]
/// is returned the emitter is exhausted.
#[derive(Debug, Clone)]
pub struct SessionEmitter {
    next_planned: usize,
    keepalive_at: SimTime,
    keepalive: SimDuration,
    relay_query_at: SimTime,
    relay_pong_at: SimTime,
    relay_hit_at: SimTime,
    start: SimTime,
    end_at: SimTime,
    ultrapeer: bool,
    done: bool,
}

impl SessionEmitter {
    /// Start a session's emission stream at `now` (the accept instant).
    /// For ultrapeers this draws the three initial relay gaps, in
    /// query → pong → hit order.
    pub fn start(
        plan: &SessionPlan,
        keepalive: SimDuration,
        now: SimTime,
        rng: &mut StdRng,
    ) -> SessionEmitter {
        let far = now + SimDuration::from_hours(24 * 365);
        let (rq, rp, rh) = if plan.ultrapeer {
            let q = now + exp_delay(rng, RELAY_QUERY_MEAN_SECS);
            let p = now + exp_delay(rng, RELAY_PONG_MEAN_SECS);
            let h = now + exp_delay(rng, RELAY_HIT_MEAN_SECS);
            (q, p, h)
        } else {
            (far, far, far)
        };
        SessionEmitter {
            next_planned: 0,
            keepalive_at: now + keepalive,
            keepalive,
            relay_query_at: rq,
            relay_pong_at: rp,
            relay_hit_at: rh,
            start: now,
            end_at: now + plan.duration,
            ultrapeer: plan.ultrapeer,
            done: false,
        }
    }

    /// The next emission, or `None` once [`EmissionKind::End`] has been
    /// delivered. Ties at the same instant resolve in the fixed order
    /// planned < keepalive < relay query < relay pong < relay hit < end.
    pub fn next(
        &mut self,
        plan: &SessionPlan,
        rng: &mut StdRng,
    ) -> Option<(SimTime, EmissionKind)> {
        if self.done {
            return None;
        }
        let mut at = self.end_at;
        let mut kind = EmissionKind::End;
        if self.ultrapeer {
            if self.relay_hit_at <= at {
                at = self.relay_hit_at;
                kind = EmissionKind::RelayHit;
            }
            if self.relay_pong_at <= at {
                at = self.relay_pong_at;
                kind = EmissionKind::RelayPong;
            }
            if self.relay_query_at <= at {
                at = self.relay_query_at;
                kind = EmissionKind::RelayQuery;
            }
        }
        if self.keepalive_at <= at {
            at = self.keepalive_at;
            kind = EmissionKind::Keepalive;
        }
        if let Some(q) = plan.queries.get(self.next_planned) {
            let q_at = self.start + q.offset;
            if q_at <= at {
                at = q_at;
                kind = EmissionKind::Planned(self.next_planned);
            }
        }
        match kind {
            EmissionKind::Planned(_) => self.next_planned += 1,
            EmissionKind::Keepalive => self.keepalive_at = at + self.keepalive,
            EmissionKind::RelayQuery => {
                self.relay_query_at = at + exp_delay(rng, RELAY_QUERY_MEAN_SECS);
            }
            EmissionKind::RelayPong => {
                self.relay_pong_at = at + exp_delay(rng, RELAY_PONG_MEAN_SECS);
            }
            EmissionKind::RelayHit => {
                self.relay_hit_at = at + exp_delay(rng, RELAY_HIT_MEAN_SECS);
            }
            EmissionKind::End => self.done = true,
        }
        Some((at, kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::build_vocabulary;
    use crate::session::SessionPlanner;
    use geoip::Region;
    use rand::SeedableRng;
    use stats::rng::SeedSequence;
    use std::sync::Arc;

    fn plan_for(seed: u64) -> (SessionPlan, StdRng) {
        let vocab = Arc::new(build_vocabulary(&SeedSequence::new(1)));
        let planner = SessionPlanner::paper_default(vocab);
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = planner.plan(0, 12, Region::Europe, &mut rng);
        (plan, rng)
    }

    #[test]
    fn emitter_is_monotone_and_ends_once() {
        for seed in 0..50 {
            let (plan, mut rng) = plan_for(seed);
            let now = SimTime::from_secs(100);
            let mut em = SessionEmitter::start(&plan, SimDuration::from_secs(20), now, &mut rng);
            let mut last = now;
            let mut planned_seen = 0;
            loop {
                let (at, kind) = em.next(&plan, &mut rng).expect("stream ends with End");
                assert!(at >= last, "emission time went backwards");
                last = at;
                match kind {
                    EmissionKind::Planned(i) => {
                        assert_eq!(i, planned_seen, "planned queries in order");
                        planned_seen += 1;
                    }
                    EmissionKind::End => break,
                    _ => {}
                }
            }
            assert!(em.next(&plan, &mut rng).is_none());
            // Every planned query at offset ≤ duration is emitted.
            let due = plan
                .queries
                .iter()
                .filter(|q| q.offset <= plan.duration)
                .count();
            assert_eq!(planned_seen, due);
        }
    }

    #[test]
    fn non_ultrapeer_draws_no_relay_gaps() {
        // Two identically seeded RNGs: one drives an ultrapeer emitter,
        // one a leaf emitter. The leaf must not consume relay draws.
        let (mut plan, _) = plan_for(3);
        plan.ultrapeer = false;
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let _ = SessionEmitter::start(&plan, SimDuration::from_secs(20), SimTime::ZERO, &mut a);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
