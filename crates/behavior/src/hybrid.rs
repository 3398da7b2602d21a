//! Hybrid-fidelity campaign execution: full fidelity inside the
//! observation horizon, flow-level statistics beyond it.
//!
//! The paper's measurement peer only ever observes its ≤200 one-hop
//! neighbors; everything beyond that horizon reaches the trace only as
//! the relay/background traffic those neighbors forward. Full-fidelity
//! simulation nevertheless pays per-message actor dispatch, protocol
//! message construction, handshake rendering/parsing, and GUID routing
//! for every peer. [`HybridCampaign`] keeps the *observable* half — every
//! message the collector records, every reply that provokes recorded
//! traffic — and replaces the rest with direct statistical emission:
//!
//! * sessions are plain state (plan + RNG + [`SessionEmitter`]), not
//!   actors; their traffic is drawn through [`crate::stream`] — the same
//!   functions, in the same order, from the same per-session RNG streams
//!   as [`crate::peer::ClientPeer`] — and lands in the trace as
//!   [`MessageRecord`]s whose wire lengths come from the codec's per-kind
//!   lengths (`gnutella::wire`), skipping `gnutella::message::Message`
//!   construction and the codec entirely;
//! * the collector admits, records and closes sessions through a
//!   [`trace::Recorder`], the recording half the full-fidelity
//!   `trace::MeasurementPeer` owns too: admission cap, session ids, open
//!   connections with their idle clocks, and the record buffer that
//!   feeds the sink. What is the engine's own is how the collector's
//!   replies and forwards travel: as keyed events, or not at all;
//! * collector replies that no recorded message depends on (PONG answers
//!   to pings, forwarded query copies to sessions that share no files,
//!   reverse-routed hits, busy replies, probes to vanished peers) are
//!   *elided*: counted, but not drawn, keyed or queued. The collector's
//!   GUIDs reach no record, and its schedule keys only order its own
//!   queued events, among which a skipped key changes no order;
//! * a forwarded query copy or a probe PING to a live session is
//!   *resolved at send time*: the session handles it as soon as the
//!   collector sends it, with the landing instant's clock, so it draws,
//!   keys and schedules its answer exactly as the queued event would
//!   have, provided nothing can touch the session in between: no other
//!   collector delivery to it (its accept included) is on the queue,
//!   its pending `PeerSend` is at or after the landing instant (the
//!   collector's lane pops first at equal instants), and the landing is
//!   at or before the horizon. Every other delivery is queued. The rule
//!   is exact only because every collector delivery takes the same
//!   fixed link delay, the constant [`trace::LINK_DELAY`] that the
//!   full-fidelity collector sends with too, so no later delivery
//!   overtakes an earlier one;
//! * an arrival whose connect the collector must refuse is *refused at
//!   arrival*: it is counted as the refused connect would be (its node
//!   id, one delivery, one elided busy reply), and nothing is drawn or
//!   queued for it. Sent at the arrival, the connect lands at most
//!   `D_max` later, the peer link delay's upper bound
//!   ([`LatencyModel::bounds`]), so it is certain to be refused when the
//!   recorder is full now and no open connection can close by
//!   `now + D_max`. A connection closes only at the deadline of a probe
//!   it left unanswered, or on its session's BYE or disconnect, both
//!   sent at the session's end and landing at most `D_max` after it (a
//!   vanishing session sends neither). So the engine keeps two kinds of
//!   bound: the end instant of each admitted session that does not
//!   vanish, in a min-heap, and each probe's deadline, in a FIFO (probes
//!   go out in deadline order). An end in `[now - D_max, now + D_max]`,
//!   or a deadline in `[now, now + D_max]` of a probe still unanswered
//!   now, leaves the arrival on the queued path; earlier bounds are
//!   pruned. The rule is exact because a refused arrival's draws come
//!   from its own per-arrival stream, which nothing else reads;
//! * event ordering replays the engine's `(time, lane, key)` contract
//!   (see [`simnet::EventQueue::push_keyed`]), so ties at the same
//!   millisecond resolve exactly as the full simulation resolves them.
//!
//! The result is an observed trace that is **bit-identical** to full
//! simulation — enforced by golden equivalence tests — at a fraction of
//! the per-message cost, which is what makes `mega`-scale campaigns
//! (millions of sessions/day) tractable. Full fidelity is the oracle for
//! how messages move; what the collector does with the messages it
//! receives is one shared implementation, tested on its own in
//! `trace::collector`.

use crate::arrivals::{ArrivalProcess, HourArrivals};
use crate::files::SharedFilesModel;
use crate::session::{SessionPlan, SessionPlanner};
use crate::stream::{
    draw_query_answer, draw_relay_hit, draw_relay_pong, draw_relay_query, EmissionKind,
    SessionEmitter, ANSWER_FILE_NAME, BYE_REASON, RELAY_HIT_NAME_LEN,
};
use crate::vocabulary::Vocabulary;
use geoip::{AddressAllocator, GeoDb};
use gnutella::message::DEFAULT_TTL;
use gnutella::peerlink::{IdleAction, IDLE_PROBE_AFTER};
use gnutella::wire;
use gnutella::Guid;
use rand::rngs::StdRng;
use rand::Rng;
use simnet::{EventQueue, LatencyModel, NodeId, SimDuration, SimStats, SimTime};
use stats::rng::SeedSequence;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;
use telemetry::Registry;
use trace::{MessageRecord, RecordedPayload, Recorder, SharedSink, FORWARD_FANOUT, LINK_DELAY};

use crate::driver::{CampaignStats, PopulationConfig};

/// Collector node id (always spawned first).
const COLLECTOR_LANE: u32 = 0;
/// Driver node id (spawned second).
const DRIVER_LANE: u32 = 1;
/// First session node id.
const FIRST_SESSION_NODE: u32 = 2;

/// A fully drawn peer→collector message in flight.
struct WireMsg {
    guid: Guid,
    hops: u8,
    ttl: u8,
    wire: u32,
    payload: RecordedPayload,
    /// Reverse-routing context: `Some(origin)` when this is an answer
    /// hit reusing a forwarded query's GUID.
    answer_origin: Option<u32>,
}

/// A session's address: its node id, which is its event lane, and the
/// session-table slot holding its state. Slots are reused, so a slot
/// names the session only while the session stored there has the same
/// node id; an event that outlives its session finds an empty or
/// recycled slot and falls through.
#[derive(Clone, Copy)]
struct Peer {
    node: u32,
    slot: u32,
}

enum Body {
    /// Driver hour tick: draw the next hour of arrivals.
    DriverHour,
    /// Driver arrival timer: spawn one session, arm the next arrival.
    Arrival,
    /// A session's connect request reaches the collector.
    ConnectArrive(Peer),
    /// The collector's accept reply reaches the session.
    AcceptArrive(Peer),
    /// A session's emission timer fires (it sends its pending item).
    PeerSend(Peer),
    /// A session's message reaches the collector.
    MsgArrive(u32, WireMsg),
    /// A session's TCP disconnect reaches the collector.
    ConnClose(u32),
    /// The collector's disconnect (probe close) reaches the session.
    PeerGone(Peer),
    /// A forwarded query copy reaches a session that might answer it.
    FwdQuery {
        target: Peer,
        origin: u32,
        guid: Guid,
    },
    /// The collector's probe PING reaches a (live) session.
    ProbePing(Peer),
    /// The collector's idle-check timer for a connection fires.
    IdleCheck(u32),
}

// Events live in the shared [`simnet::EventQueue`] timing wheel, keyed
// by the engine's `(time, lane, key)` contract. `(lane, key)` pairs are
// unique per instant by construction (every lane keys its events with a
// private counter), so the wheel's `(time, lane, key, seq)` pop order
// reduces to the same total order the full engine uses.

/// One live session: the same state a [`crate::peer::ClientPeer`] actor
/// would hold, minus the actor.
struct Session {
    /// The node this state belongs to (see [`Peer`]).
    node: u32,
    rng: StdRng,
    plan: SessionPlan,
    addr: Ipv4Addr,
    keepalive: SimDuration,
    emitter: Option<SessionEmitter>,
    /// The item the pending `PeerSend` sends, and that event's instant.
    pending: Option<(SimTime, EmissionKind)>,
    next_key: u64,
    /// Collector deliveries to this session still on the queue.
    inflight: u32,
}

/// When the collector's open connections may close: the bounds behind
/// refusals decided at arrival (see the module docs). Both are pruned
/// lazily, so they hold only bounds that can still matter.
struct Closings {
    /// The slowest peer link delay, `D_max`.
    d_max: SimDuration,
    /// The end instant of each admitted session that does not vanish.
    ends: BinaryHeap<Reverse<SimTime>>,
    /// Each probe's deadline and connection, in deadline order.
    probes: VecDeque<(SimTime, NodeId)>,
}

impl Closings {
    fn new(peer_latency: LatencyModel) -> Closings {
        Closings {
            d_max: peer_latency.bounds().1,
            ends: BinaryHeap::new(),
            probes: VecDeque::new(),
        }
    }

    /// A session admitted at `now` ends at `end`.
    fn push_end(&mut self, now: SimTime, end: SimTime) {
        self.prune(now);
        self.ends.push(Reverse(end));
    }

    /// At `now` the collector probed `node`, which it closes at
    /// `deadline` unless the probe is answered.
    fn push_probe(&mut self, now: SimTime, deadline: SimTime, node: NodeId) {
        self.prune(now);
        self.probes.push_back((deadline, node));
    }

    /// Drop the bounds of closes that have happened by `now`, or never
    /// will.
    fn prune(&mut self, now: SimTime) {
        while self
            .ends
            .peek()
            .is_some_and(|&Reverse(end)| end + self.d_max < now)
        {
            self.ends.pop();
        }
        while self.probes.front().is_some_and(|&(at, _)| at < now) {
            self.probes.pop_front();
        }
    }

    /// Whether one of `recorder`'s open connections may close before a
    /// connect sent at `now` lands: a session ends by `now + D_max` (or
    /// ended at most `D_max` ago, so its close may be in flight), or an
    /// unanswered probe falls due by then.
    fn may_close(&mut self, now: SimTime, recorder: &Recorder<u32>) -> bool {
        self.prune(now);
        let until = now + self.d_max;
        self.ends.peek().is_some_and(|&Reverse(end)| end <= until)
            || self
                .probes
                .iter()
                .take_while(|&&(at, _)| at <= until)
                .any(|&(at, node)| recorder.probe_deadline(node) == Some(at))
    }
}

/// A hybrid-fidelity campaign: drop-in replacement for the
/// full-fidelity `Simulator` campaign, producing a bit-identical
/// observed trace.
pub(crate) struct HybridCampaign {
    queue: EventQueue<Body>,
    end: SimTime,
    horizon: SimTime,

    // Driver state (lane 1).
    arrivals: ArrivalProcess,
    hour: HourArrivals,
    /// Schedule key of the current hour's first arrival. Keys are handed
    /// out at draw time, to the hour's arrivals and then to the hour
    /// tick, so arrival `i` carries `hour_key + i`.
    hour_key: u64,
    drng: StdRng,
    pop_seq: SeedSequence,
    /// Arrivals so far; arrival `i` is node `FIRST_SESSION_NODE + i`.
    spawned: u64,
    dkey: u64,

    // Shared environment.
    planner: SessionPlanner,
    vocab: Arc<Vocabulary>,
    alloc: Arc<AddressAllocator>,
    files: SharedFilesModel,
    peer_latency: LatencyModel,

    // Session table: live sessions (admitted, or with a connect in
    // flight) in reusable slots. `free` lists the empty slots, so the
    // table's length is the peak number of live sessions, not of arrivals.
    sessions: Vec<Option<Box<Session>>>,
    free: Vec<u32>,

    // Collector state (lane 0). The recorder tags each open connection
    // with its session's slot.
    recorder: Recorder<u32>,
    closings: Closings,
    /// Next schedule key of the collector's queued events.
    ckey: u64,
    /// Whether the engine takes its two shortcuts: deliveries resolved
    /// at send time and refusals decided at arrival. Off, every delivery
    /// is queued and every arrival planned: the unit tests' oracle for
    /// both rules.
    #[cfg(test)]
    shortcuts: bool,

    // Statistics.
    pops: u64,
    delivered: u64,
    dropped: u64,
    timers_fired: u64,
    elided: u64,
    modeled: u64,
}

impl HybridCampaign {
    /// Build a campaign exactly as the full-fidelity driver would: same
    /// seed derivations, same environment, same horizon.
    pub(crate) fn new(
        cfg: &PopulationConfig,
        vocab: Arc<Vocabulary>,
        seq: SeedSequence,
        sink: SharedSink,
        registry: Arc<Registry>,
    ) -> HybridCampaign {
        let planner = SessionPlanner::paper_default(vocab.clone());
        let db = GeoDb::synthetic();
        let alloc = Arc::new(AddressAllocator::new(&db));
        let files = planner.files;
        let peer_latency = LatencyModel::intra_continent();
        let end = SimTime::from_secs_f64(cfg.days * 86_400.0);
        let mut campaign = HybridCampaign {
            queue: EventQueue::new(),
            end,
            horizon: end + SimDuration::from_hours(2),
            arrivals: ArrivalProcess::new(cfg.sessions_per_day),
            hour: HourArrivals::default(),
            hour_key: 0,
            drng: seq.rng("arrivals"),
            pop_seq: seq.child("population"),
            spawned: 0,
            dkey: 0,
            planner,
            vocab,
            alloc,
            files,
            peer_latency,
            sessions: Vec::new(),
            free: Vec::new(),
            recorder: Recorder::new(cfg.max_connections, sink, registry),
            closings: Closings::new(peer_latency),
            ckey: 0,
            #[cfg(test)]
            shortcuts: true,
            pops: 0,
            delivered: 0,
            dropped: 0,
            timers_fired: 0,
            elided: 0,
            modeled: 0,
        };
        campaign.schedule_hour(SimTime::ZERO);
        campaign
    }

    /// The instant the campaign stops processing (campaign end plus the
    /// settling grace period).
    pub(crate) fn horizon(&self) -> SimTime {
        self.horizon
    }

    fn push(&mut self, at: SimTime, lane: u32, key: u64, body: Body) {
        self.queue.push_keyed(at, lane, key, body);
    }

    /// Run the event loop until the earliest pending event is past
    /// `until`. Events past `until` are never popped, as in
    /// [`simnet::Simulator::run_until`].
    pub(crate) fn run_until(&mut self, until: SimTime) {
        while let Some((at, body)) = self.queue.pop_at_or_before(until) {
            self.pops += 1;
            self.process(at, body);
        }
    }

    /// Finish the campaign: drain buffered records and report statistics.
    pub(crate) fn finish(mut self) -> CampaignStats {
        self.recorder.flush();
        let sim = SimStats {
            delivered: self.delivered,
            dropped: self.dropped,
            timers_fired: self.timers_fired,
            spawned: 2 + self.spawned,
            removed: 0,
            events_popped: self.pops,
            peak_queue_len: self.queue.peak_len() as u64,
            heap_spills: self.queue.far_pushed(),
            wheel_cascades: self.queue.cascades(),
        };
        CampaignStats::of(
            sim,
            self.elided,
            self.modeled,
            self.recorder.registry().snapshot(),
        )
    }

    // ----- driver (lane 1) -------------------------------------------------

    /// Draw the hour's arrivals, hand out keys to them and then to the
    /// hour tick, and put the first arrival on the queue.
    fn schedule_hour(&mut self, now: SimTime) {
        let kept = self
            .hour
            .draw(&self.arrivals, &mut self.drng, now, self.end);
        self.hour_key = self.dkey;
        self.dkey += kept as u64;
        self.arm_arrival();
        if now + SimDuration::from_hours(1) < self.end {
            let key = self.dkey;
            self.dkey += 1;
            self.push(
                now + SimDuration::from_hours(1),
                DRIVER_LANE,
                key,
                Body::DriverHour,
            );
        }
    }

    fn arm_arrival(&mut self) {
        if let Some((i, at)) = self.hour.release() {
            self.push(at, DRIVER_LANE, self.hour_key + i as u64, Body::Arrival);
        }
    }

    fn spawn_session(&mut self, now: SimTime) {
        let hour = now.hour_of_day();
        let day = now.day() as usize;
        let mut rng = self.pop_seq.rng_indexed("peer", self.spawned);
        let node = FIRST_SESSION_NODE + self.spawned as u32;
        self.spawned += 1;
        let region = self.planner.diurnal.sample_region(hour, &mut rng);
        let plan = self.planner.plan(day, hour, region, &mut rng);
        let addr = self.alloc.sample(region, &mut rng);
        let (ka_lo, ka_hi) = self.planner.params.keepalive_secs;
        let keepalive = SimDuration::from_secs_f64(rng.gen_range(ka_lo..ka_hi));
        // The peer's `on_start`: one latency draw, schedule key 0.
        let d = self.peer_latency.sample(&mut rng);
        let session = Box::new(Session {
            node,
            rng,
            plan,
            addr,
            keepalive,
            emitter: None,
            pending: None,
            next_key: 1,
            inflight: 0,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.sessions[slot as usize] = Some(session);
                slot
            }
            None => {
                self.sessions.push(Some(session));
                (self.sessions.len() - 1) as u32
            }
        };
        self.push(now + d, node, 0, Body::ConnectArrive(Peer { node, slot }));
    }

    // ----- session helpers -------------------------------------------------

    /// The live session `p` names, if any.
    fn session(&self, p: Peer) -> Option<&Session> {
        self.sessions[p.slot as usize]
            .as_deref()
            .filter(|s| s.node == p.node)
    }

    /// Move the live session `p` names out of its slot; return it with
    /// [`Self::put_session`], or free the slot with [`Self::end_session`].
    fn take_session(&mut self, p: Peer) -> Option<Box<Session>> {
        self.session(p)?;
        self.sessions[p.slot as usize].take()
    }

    fn put_session(&mut self, p: Peer, sess: Box<Session>) {
        self.sessions[p.slot as usize] = Some(sess);
    }

    /// Drop the session `p` names and free its slot. Returns whether it
    /// was still live.
    fn end_session(&mut self, p: Peer) -> bool {
        let live = self.take_session(p).is_some();
        if live {
            self.free.push(p.slot);
        }
        live
    }

    /// Pull the session's next emission and schedule its send instant
    /// (the peer's single outstanding timer).
    fn arm_next(&mut self, peer: Peer, sess: &mut Session) {
        let Some(emitter) = sess.emitter.as_mut() else {
            return;
        };
        if let Some((at, kind)) = emitter.next(&sess.plan, &mut sess.rng) {
            sess.pending = Some((at, kind));
            let key = sess.next_key;
            sess.next_key += 1;
            self.push(at, peer.node, key, Body::PeerSend(peer));
        }
    }

    /// A session sends one message toward the collector: draw latency,
    /// consume a schedule key, enqueue the arrival.
    fn session_send(&mut self, node: u32, sess: &mut Session, now: SimTime, msg: WireMsg) {
        let d = self.peer_latency.sample(&mut sess.rng);
        let key = sess.next_key;
        sess.next_key += 1;
        self.push(now + d, node, key, Body::MsgArrive(node, msg));
    }

    // ----- collector helpers (lane 0) --------------------------------------

    fn ckey(&mut self) -> u64 {
        let k = self.ckey;
        self.ckey += 1;
        k
    }

    /// The collector sends `body` at `now` to the live session `peer`:
    /// it lands one link delay later under the collector's next schedule
    /// key. A forwarded query copy or a probe PING is handled at once,
    /// with the landing instant as its clock, when the module docs' three
    /// conditions hold; every other delivery waits on the queue.
    fn deliver(&mut self, peer: Peer, now: SimTime, body: Body) {
        let at = now + LINK_DELAY;
        let sess = self.sessions[peer.slot as usize]
            .as_deref_mut()
            .filter(|s| s.node == peer.node)
            .expect("the collector delivers to live sessions");
        let resolve = matches!(body, Body::FwdQuery { .. } | Body::ProbePing(_))
            && sess.inflight == 0
            && sess.pending.is_some_and(|(send_at, _)| send_at >= at)
            && at <= self.horizon;
        #[cfg(test)]
        let resolve = resolve && self.shortcuts;
        sess.inflight += 1;
        if resolve {
            self.process(at, body);
        } else {
            let key = self.ckey();
            self.push(at, COLLECTOR_LANE, key, body);
        }
    }

    /// Move the session a collector delivery lands on out of its slot,
    /// as [`Self::take_session`], counting the delivery as landed.
    fn take_delivered(&mut self, p: Peer) -> Option<Box<Session>> {
        let mut sess = self.take_session(p)?;
        sess.inflight -= 1;
        Some(sess)
    }

    // ----- event processing ------------------------------------------------

    fn process(&mut self, at: SimTime, body: Body) {
        match body {
            Body::DriverHour => {
                self.timers_fired += 1;
                self.schedule_hour(at);
            }
            Body::Arrival => {
                self.timers_fired += 1;
                let refused =
                    self.recorder.is_full() && !self.closings.may_close(at, &self.recorder);
                #[cfg(test)]
                let refused = refused && self.shortcuts;
                if refused {
                    // Refused at arrival: count what its connect would
                    // count (its node id, its delivery, the elided busy
                    // reply) and draw nothing.
                    self.spawned += 1;
                    self.delivered += 1;
                    self.elided += 1;
                } else {
                    self.spawn_session(at);
                }
                self.arm_arrival();
            }
            Body::ConnectArrive(peer) => {
                self.delivered += 1;
                self.on_connect_arrive(peer, at);
            }
            Body::AcceptArrive(peer) => {
                self.delivered += 1;
                if let Some(mut sess) = self.take_delivered(peer) {
                    sess.emitter = Some(SessionEmitter::start(
                        &sess.plan,
                        sess.keepalive,
                        at,
                        &mut sess.rng,
                    ));
                    self.arm_next(peer, &mut sess);
                    self.put_session(peer, sess);
                } else {
                    self.dropped += 1;
                }
            }
            Body::PeerSend(peer) => {
                let Some(mut sess) = self.take_session(peer) else {
                    self.dropped += 1;
                    return;
                };
                self.timers_fired += 1;
                let Some((_, kind)) = sess.pending.take() else {
                    self.put_session(peer, sess);
                    return;
                };
                let ended = self.emit(peer.node, &mut sess, at, kind);
                if ended {
                    // The peer is gone: drop its state, free its slot.
                    self.free.push(peer.slot);
                } else {
                    self.arm_next(peer, &mut sess);
                    self.put_session(peer, sess);
                }
            }
            Body::MsgArrive(node, msg) => {
                self.delivered += 1;
                self.modeled += 1;
                self.on_msg_arrive(node, at, msg);
            }
            Body::ConnClose(node) => {
                self.delivered += 1;
                self.recorder.close(NodeId(node), at, false);
            }
            Body::PeerGone(peer) => {
                if self.end_session(peer) {
                    self.delivered += 1;
                } else {
                    self.dropped += 1;
                }
            }
            Body::FwdQuery {
                target,
                origin,
                guid,
            } => {
                let Some(mut sess) = self.take_delivered(target) else {
                    self.dropped += 1;
                    return;
                };
                self.delivered += 1;
                if let Some(a) = draw_query_answer(sess.plan.shared_files, &mut sess.rng) {
                    let _ = a.speed; // recorded payloads carry addr+count only
                    let _ = a.servent;
                    let msg = WireMsg {
                        guid,
                        hops: 1,
                        ttl: DEFAULT_TTL - 1,
                        wire: wire::query_hit_len(1, ANSWER_FILE_NAME.len()) as u32,
                        payload: RecordedPayload::QueryHit {
                            addr: sess.addr,
                            results: 1,
                        },
                        answer_origin: Some(origin),
                    };
                    self.session_send(target.node, &mut sess, at, msg);
                }
                self.put_session(target, sess);
            }
            Body::ProbePing(peer) => {
                let Some(mut sess) = self.take_delivered(peer) else {
                    self.dropped += 1;
                    return;
                };
                self.delivered += 1;
                let msg = WireMsg {
                    guid: Guid::random(&mut sess.rng),
                    hops: 1,
                    ttl: DEFAULT_TTL - 1,
                    wire: wire::PONG_LEN as u32,
                    payload: RecordedPayload::Pong {
                        addr: sess.addr,
                        shared_files: sess.plan.shared_files,
                    },
                    answer_origin: None,
                };
                self.session_send(peer.node, &mut sess, at, msg);
                self.put_session(peer, sess);
            }
            Body::IdleCheck(node) => {
                self.on_idle_check(node, at);
            }
        }
    }

    fn on_connect_arrive(&mut self, peer: Peer, at: SimTime) {
        if self.recorder.is_full() {
            // Busy reply: no event — the rejected peer only removes
            // itself.
            self.elided += 1;
            self.end_session(peer);
            return;
        }
        let Some(sess) = self.take_session(peer) else {
            return;
        };
        let node = peer.node;
        self.recorder.admit(
            NodeId(node),
            peer.slot,
            at,
            sess.addr,
            sess.plan.user_agent.to_string(),
            sess.plan.ultrapeer,
        );
        if !sess.plan.vanish {
            // Its emissions start when the accept lands and end one plan
            // duration later, with a BYE or a disconnect.
            let end = at + LINK_DELAY + sess.plan.duration;
            self.closings.push_end(at, end);
        }
        self.put_session(peer, sess);
        self.deliver(peer, at, Body::AcceptArrive(peer));
        let key = self.ckey();
        self.push(
            at + IDLE_PROBE_AFTER,
            COLLECTOR_LANE,
            key,
            Body::IdleCheck(node),
        );
    }

    /// Emit one item of the session's merged stream. Returns `true` when
    /// the session ended (its state must be dropped).
    fn emit(&mut self, node: u32, sess: &mut Session, now: SimTime, kind: EmissionKind) -> bool {
        match kind {
            EmissionKind::Planned(i) => {
                let pq = &sess.plan.queries[i];
                let msg = WireMsg {
                    guid: Guid::random(&mut sess.rng),
                    hops: 1,
                    ttl: DEFAULT_TTL - 1,
                    wire: wire::query_len(pq.text.text_len(), pq.sha1.as_ref().map(String::len))
                        as u32,
                    payload: RecordedPayload::Query {
                        text: pq.text,
                        sha1: pq.sha1.is_some(),
                    },
                    answer_origin: None,
                };
                self.session_send(node, sess, now, msg);
            }
            EmissionKind::Keepalive => {
                let msg = WireMsg {
                    guid: Guid::random(&mut sess.rng),
                    hops: 1,
                    ttl: DEFAULT_TTL - 1,
                    wire: wire::PING_LEN as u32,
                    payload: RecordedPayload::Ping,
                    answer_origin: None,
                };
                self.session_send(node, sess, now, msg);
            }
            EmissionKind::RelayQuery => {
                let d = draw_relay_query(&self.vocab, &self.planner.diurnal, now, &mut sess.rng);
                let msg = WireMsg {
                    guid: d.guid,
                    hops: d.hops,
                    ttl: d.ttl,
                    wire: wire::query_len(d.text.text_len(), None) as u32,
                    payload: RecordedPayload::Query {
                        text: d.text,
                        sha1: false,
                    },
                    answer_origin: None,
                };
                self.session_send(node, sess, now, msg);
            }
            EmissionKind::RelayPong => {
                let d = draw_relay_pong(
                    &self.planner.diurnal,
                    &self.alloc,
                    &self.files,
                    now,
                    &mut sess.rng,
                );
                let msg = WireMsg {
                    guid: d.guid,
                    hops: d.hops,
                    ttl: d.ttl,
                    wire: wire::PONG_LEN as u32,
                    payload: RecordedPayload::Pong {
                        addr: d.addr,
                        shared_files: d.files,
                    },
                    answer_origin: None,
                };
                self.session_send(node, sess, now, msg);
            }
            EmissionKind::RelayHit => {
                let d = draw_relay_hit(&self.planner.diurnal, &self.alloc, now, &mut sess.rng);
                let n = d.results.len();
                let msg = WireMsg {
                    guid: d.guid,
                    hops: d.hops,
                    ttl: d.ttl,
                    wire: wire::query_hit_len(n, n * RELAY_HIT_NAME_LEN) as u32,
                    payload: RecordedPayload::QueryHit {
                        addr: d.addr,
                        results: n as u8,
                    },
                    answer_origin: None,
                };
                self.session_send(node, sess, now, msg);
            }
            EmissionKind::End => {
                if !sess.plan.vanish {
                    if sess.plan.send_bye {
                        let guid = Guid::random(&mut sess.rng);
                        let msg = WireMsg {
                            guid,
                            hops: 1,
                            ttl: DEFAULT_TTL - 1,
                            wire: wire::bye_len(BYE_REASON.len()) as u32,
                            payload: RecordedPayload::Bye,
                            answer_origin: None,
                        };
                        self.session_send(node, sess, now, msg);
                    }
                    let d = self.peer_latency.sample(&mut sess.rng);
                    let key = sess.next_key;
                    sess.next_key += 1;
                    self.push(now + d, node, key, Body::ConnClose(node));
                }
                return true;
            }
        }
        false
    }

    fn on_msg_arrive(&mut self, node: u32, at: SimTime, msg: WireMsg) {
        let Some(sid) = self.recorder.receive(NodeId(node), at) else {
            return; // message after close — TCP stragglers, unrecorded
        };
        self.recorder.record(
            MessageRecord {
                session: sid,
                guid: msg.guid,
                at,
                hops: msg.hops,
                ttl: msg.ttl,
                payload: msg.payload,
            },
            msg.wire,
        );
        match msg.payload {
            RecordedPayload::Ping => {
                // The collector's PONG reply, never seen.
                self.elided += 1;
            }
            RecordedPayload::Query { .. } => {
                // Fresh GUIDs never collide, so the routing-table insert
                // always succeeds; forward when TTL allows.
                if msg.ttl > 1 {
                    let mut sent = 0;
                    let mut idx = 0;
                    while sent < FORWARD_FANOUT {
                        let Some((id, slot)) = self.recorder.open_at(idx) else {
                            break;
                        };
                        idx += 1;
                        if id.0 == node {
                            continue;
                        }
                        let target = Peer { node: id.0, slot };
                        sent += 1;
                        let answers = self
                            .session(target)
                            .is_some_and(|s| s.plan.shared_files > 0);
                        if answers {
                            let body = Body::FwdQuery {
                                target,
                                origin: node,
                                guid: msg.guid,
                            };
                            self.deliver(target, at, body);
                        } else {
                            // Delivered-but-inert (or dropped) copy.
                            self.elided += 1;
                        }
                    }
                }
            }
            RecordedPayload::QueryHit { .. } => {
                if let Some(origin) = msg.answer_origin {
                    // Reverse-route along the GUID path; the origin peer
                    // ignores hits, so the delivery itself is elided.
                    if origin != node && self.recorder.is_open(NodeId(origin)) {
                        self.elided += 1;
                    }
                }
            }
            RecordedPayload::Pong { .. } => {}
            RecordedPayload::Bye => {
                self.recorder.close(NodeId(node), at, false);
            }
        }
    }

    fn on_idle_check(&mut self, node: u32, at: SimTime) {
        let Some((action, slot)) = self.recorder.idle_check(NodeId(node), at) else {
            return; // connection already gone; the chain dies
        };
        self.timers_fired += 1;
        let peer = Peer { node, slot };
        match action {
            IdleAction::CheckAt(deadline) => {
                let key = self.ckey();
                self.push(deadline, COLLECTOR_LANE, key, Body::IdleCheck(node));
            }
            IdleAction::SendProbe(deadline) => {
                self.closings.push_probe(at, deadline, NodeId(node));
                if self.session(peer).is_some() {
                    self.deliver(peer, at, Body::ProbePing(peer));
                } else {
                    // Probe toward a vanished peer: it would be dropped.
                    self.elided += 1;
                }
                let key = self.ckey();
                self.push(deadline, COLLECTOR_LANE, key, Body::IdleCheck(node));
            }
            IdleAction::Close => {
                if self.session(peer).is_some() {
                    self.deliver(peer, at, Body::PeerGone(peer));
                } else {
                    self.elided += 1;
                }
                self.recorder.close(NodeId(node), at, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::build_vocabulary;
    use trace::{Fanout, Trace};

    /// The flood rate, 2 M arrivals/day against 200 slots, for `hours`.
    fn flood(hours: f64) -> PopulationConfig {
        PopulationConfig {
            seed: 1964,
            days: hours / 24.0,
            sessions_per_day: 2_000_000.0,
            max_connections: 200,
            ..PopulationConfig::smoke()
        }
    }

    /// A hybrid campaign for `cfg` delivering to `sink`, built as the
    /// driver builds it.
    fn campaign(cfg: &PopulationConfig, sink: SharedSink) -> HybridCampaign {
        let seq = SeedSequence::new(cfg.seed);
        let vocab = Arc::new(build_vocabulary(&seq));
        HybridCampaign::new(cfg, vocab, seq, sink, Arc::new(Registry::new()))
    }

    /// One flood campaign run to its horizon: the session table's length
    /// and the arrivals.
    fn flood_table(hours: f64) -> (usize, u64) {
        let sink: SharedSink = Arc::new(parking_lot::Mutex::new(Fanout::new()));
        let mut campaign = campaign(&flood(hours), sink);
        campaign.run_until(campaign.horizon());
        (campaign.sessions.len(), campaign.spawned)
    }

    /// `cfg` run to its horizon into a retained trace, with the engine's
    /// shortcuts on or off.
    fn run_with(cfg: &PopulationConfig, shortcuts: bool) -> (Trace, CampaignStats) {
        let trace = Arc::new(parking_lot::Mutex::new(Trace::default()));
        let mut campaign = campaign(cfg, trace.clone());
        campaign.shortcuts = shortcuts;
        campaign.run_until(campaign.horizon());
        let stats = campaign.finish();
        let trace = Arc::try_unwrap(trace).expect("the campaign is gone");
        (trace.into_inner(), stats)
    }

    /// Both shortcuts are exact: against the same campaign with every
    /// collector delivery queued and every arrival planned, the observed
    /// trace and every engine count except the pops are equal, at the
    /// smoke rate, under cap churn and at the flood rate. At the flood
    /// rate nearly every refusal is decided at arrival, which saves its
    /// queued connect.
    #[test]
    fn shortcuts_match_the_all_queued_engine() {
        let saturated = PopulationConfig {
            seed: 1964,
            days: 0.5,
            sessions_per_day: 6_000.0,
            ..PopulationConfig::default()
        };
        for (cfg, flooded) in [
            (PopulationConfig::smoke(), false),
            (saturated, false),
            (flood(2.0), true),
        ] {
            let (trace, stats) = run_with(&cfg, true);
            let (oracle, queued) = run_with(&cfg, false);
            assert!(trace == oracle, "the observed trace changed");
            let counts = |s: &CampaignStats| {
                (
                    s.delivered,
                    s.dropped,
                    s.timers_fired,
                    s.spawned,
                    s.hybrid_elided_msgs,
                    s.hybrid_modeled_msgs,
                )
            };
            assert_eq!(counts(&stats), counts(&queued));
            assert!(stats.events_popped < queued.events_popped);
            if flooded {
                let refused = stats.spawned - 2 - trace.connections.len() as u64;
                let saved = queued.events_popped - stats.events_popped;
                assert!(
                    saved * 10 >= refused * 9,
                    "{saved} pops saved for {refused} refused arrivals"
                );
            }
        }
    }

    /// The edges of the window in which a close keeps an arrival on the
    /// queued path: a session end or an unanswered probe deadline at
    /// `now + D_max` may close a connection before the connect lands; one
    /// a millisecond later, an answered probe, or a session end whose
    /// close has landed cannot.
    #[test]
    fn refusal_window_edges() {
        let sink: SharedSink = Arc::new(parking_lot::Mutex::new(Fanout::new()));
        let mut recorder = Recorder::new(1, sink, Arc::new(Registry::new()));
        let node = NodeId(FIRST_SESSION_NODE);
        let addr = Ipv4Addr::LOCALHOST;
        recorder.admit(node, 0, SimTime::ZERO, addr, String::new(), false);
        assert!(recorder.is_full());
        let Some((IdleAction::SendProbe(deadline), _)) =
            recorder.idle_check(node, SimTime::ZERO + IDLE_PROBE_AFTER)
        else {
            panic!("an idle connection is probed");
        };
        let d_max = LatencyModel::intra_continent().bounds().1.as_millis();
        let at = SimTime::from_millis;
        // An arrival at `now` sends a connect landing by the deadline.
        let now = deadline.as_millis() - d_max;
        let closings = |ends: &[u64], probe: bool| {
            let mut c = Closings::new(LatencyModel::intra_continent());
            c.ends.extend(ends.iter().map(|&end| Reverse(at(end))));
            if probe {
                c.probes.push_back((deadline, node));
            }
            c
        };
        assert!(closings(&[now + d_max], false).may_close(at(now), &recorder));
        assert!(!closings(&[now + d_max + 1], false).may_close(at(now), &recorder));
        // A session that ended `D_max` ago may still be closing; one
        // that ended a millisecond earlier has closed.
        assert!(closings(&[now - d_max], false).may_close(at(now), &recorder));
        assert!(!closings(&[now - d_max - 1], false).may_close(at(now), &recorder));
        // The unanswered probe falls due at the window's edge, and a
        // millisecond past the window of an arrival a millisecond earlier.
        assert!(closings(&[], true).may_close(at(now), &recorder));
        assert!(!closings(&[], true).may_close(at(now - 1), &recorder));
        // Answered, it closes nothing.
        recorder.receive(node, at(now));
        assert!(!closings(&[], true).may_close(at(now), &recorder));
    }

    /// A probe PING that would be resolved is queued instead when it
    /// lands past the horizon, where the queued event would never pop.
    #[test]
    fn a_delivery_landing_past_the_horizon_is_queued() {
        let sink: SharedSink = Arc::new(parking_lot::Mutex::new(Fanout::new()));
        let mut c = campaign(&PopulationConfig::smoke(), sink);
        let now = SimTime::from_secs(3_600);
        c.run_until(now);
        let landing = now + LINK_DELAY;
        // Accepted sessions with no delivery queued and a later send.
        let mut idle = c.sessions.iter().zip(0u32..).filter_map(|(s, slot)| {
            let s = s.as_deref()?;
            let later = s.pending.is_some_and(|(send_at, _)| send_at > landing);
            (s.inflight == 0 && later).then_some(Peer { node: s.node, slot })
        });
        let (a, b) = (idle.next().unwrap(), idle.next().unwrap());
        let probe = |c: &mut HybridCampaign, p: Peer, horizon: SimTime| {
            c.horizon = horizon;
            let before = (c.delivered, c.queue.len());
            c.deliver(p, now, Body::ProbePing(p));
            (c.delivered - before.0, c.queue.len() - before.1)
        };
        // Resolved: delivered now, and only its answer is queued.
        assert_eq!(probe(&mut c, a, landing), (1, 1));
        // Queued: nothing delivered yet, the probe itself is queued.
        let early = SimTime::from_millis(landing.as_millis() - 1);
        assert_eq!(probe(&mut c, b, early), (0, 1));
    }

    /// The table holds live sessions only: its length stays under a bound
    /// set by the 200 slots, although nearly every arrival is refused, and
    /// doubling the window does not raise it by more than the slow creep
    /// of a stationary maximum.
    #[test]
    fn flood_session_table_stays_small() {
        let (short, _) = flood_table(1.0);
        let (long, spawned) = flood_table(2.0);
        let bound = 200 + 100;
        assert!(spawned > 100 * bound as u64, "only {spawned} arrivals");
        assert!(
            long <= bound,
            "session table length {long} over the bound {bound}"
        );
        assert!(
            long <= short + short / 10,
            "doubling the window grew the session table from {short} to {long}"
        );
    }
}
