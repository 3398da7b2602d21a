//! The simulated client peer.
//!
//! A [`ClientPeer`] executes one [`SessionPlan`] against the measurement
//! peer: handshake, planned queries (user + automation), keepalive PINGs,
//! and — for ultrapeer-mode peers — *relayed* traffic from their notional
//! subtrees: QUERYs with hops ≥ 2, PONGs and QUERYHITs advertising remote
//! peers' addresses and shared libraries. The relayed traffic is what
//! gives the trace its "all peers" population (Figures 1–2) and the
//! Table 1 message-volume ratios; it is generated rather than routed
//! through a million-node overlay because nothing the paper measures
//! depends on the topology behind the one-hop neighbors (see DESIGN.md).
//!
//! All traffic is drawn through [`crate::stream`] from the session's own
//! RNG, and every send/timer is scheduled with a `(lane, key)` ordering
//! pair — the peer's node id and a session-local schedule counter. Both
//! choices make the peer's observable behavior a pure function of its
//! session stream, which is what lets the hybrid-fidelity engine
//! ([`crate::hybrid`]) reproduce the observed trace bit for bit without
//! running the actor.
//!
//! The emission timeline is pulled lazily off a [`SessionEmitter`]: one
//! outstanding timer per session, re-armed at each emission, instead of
//! pre-arming every planned query up front.
//!
//! Session end follows §3.2 reality: most peers *vanish* (no teardown;
//! the measurement peer's probe closes the connection ≈30 s later), the
//! rest close the TCP connection visibly.

use crate::files::SharedFilesModel;
use crate::session::SessionPlan;
use crate::stream::{
    draw_query_answer, draw_relay_hit, draw_relay_pong, draw_relay_query, EmissionKind,
    SessionEmitter, ANSWER_FILE_NAME, BYE_REASON,
};
use crate::vocabulary::Vocabulary;
use geoip::{AddressAllocator, DiurnalModel};
use gnutella::message::{Message, Payload, Pong, Query, QueryHit, QueryHitResult};
use gnutella::net::{NetMsg, Transport};
use gnutella::wire::decode_message;
use gnutella::{Guid, Handshake, HandshakeResponse};
use rand::rngs::StdRng;
use simnet::{Actor, Context, LatencyModel, NodeId, SimDuration, SimTime};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Shared environment handed to every client peer.
#[derive(Clone)]
pub(crate) struct PeerEnv {
    /// Query vocabulary (for relayed query text).
    pub(crate) vocab: Arc<Vocabulary>,
    /// Diurnal model (for relayed traffic's remote-region mix).
    pub(crate) diurnal: DiurnalModel,
    /// Address allocator (for relayed remote addresses).
    pub(crate) alloc: Arc<AddressAllocator>,
    /// Shared-files model (for relayed PONG advertisements).
    pub(crate) files: SharedFilesModel,
    /// Link latency toward the measurement peer.
    pub(crate) latency: LatencyModel,
    /// How frames travel toward the measurement peer: typed (default,
    /// zero-copy) or byte-encoded (codec exercised on every send).
    pub(crate) transport: Transport,
}

/// One simulated client peer session.
pub(crate) struct ClientPeer {
    server: NodeId,
    addr: Ipv4Addr,
    plan: SessionPlan,
    env: PeerEnv,
    rng: StdRng,
    keepalive: SimDuration,
    emitter: Option<SessionEmitter>,
    /// The already-selected next emission (the armed timer's meaning).
    pending: Option<EmissionKind>,
    /// Session-local schedule counter: the `key` half of every
    /// `(lane, key)` this peer schedules with.
    next_key: u64,
}

impl ClientPeer {
    /// Create a peer that will execute `plan` from address `addr`.
    pub(crate) fn new(
        server: NodeId,
        addr: Ipv4Addr,
        plan: SessionPlan,
        env: PeerEnv,
        rng: StdRng,
        keepalive: SimDuration,
    ) -> ClientPeer {
        ClientPeer {
            server,
            addr,
            plan,
            env,
            rng,
            keepalive,
            emitter: None,
            pending: None,
            next_key: 0,
        }
    }

    fn take_key(&mut self) -> u64 {
        let k = self.next_key;
        self.next_key += 1;
        k
    }

    fn send_frame(&mut self, ctx: &mut Context<'_, NetMsg>, msg: Message) {
        let server = self.server;
        let d = self.env.latency.sample(&mut self.rng);
        let key = self.take_key();
        let lane = ctx.id().0;
        ctx.send_after_keyed(server, self.env.transport.frame(msg), d, lane, key);
    }

    /// Pull the next emission off the merged stream and arm its timer.
    fn arm_next(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let Some(emitter) = self.emitter.as_mut() else {
            return;
        };
        if let Some((at, kind)) = emitter.next(&self.plan, &mut self.rng) {
            self.pending = Some(kind);
            let key = self.take_key();
            let lane = ctx.id().0;
            let delay = at.since(ctx.now());
            ctx.set_timer_keyed(delay, 0, lane, key);
        }
    }

    fn emit(&mut self, ctx: &mut Context<'_, NetMsg>, kind: EmissionKind) {
        match kind {
            EmissionKind::Planned(i) => {
                let Some(pq) = self.plan.queries.get(i) else {
                    return;
                };
                let payload = Payload::Query(Query {
                    min_speed: 0,
                    text: pq.text,
                    sha1: pq.sha1.clone(),
                });
                let msg = Message::originate(Guid::random(&mut self.rng), payload).first_hop();
                self.send_frame(ctx, msg);
            }
            EmissionKind::Keepalive => {
                let ping =
                    Message::originate(Guid::random(&mut self.rng), Payload::Ping).first_hop();
                self.send_frame(ctx, ping);
            }
            EmissionKind::RelayQuery => {
                let d =
                    draw_relay_query(&self.env.vocab, &self.env.diurnal, ctx.now(), &mut self.rng);
                let msg = Message {
                    guid: d.guid,
                    ttl: d.ttl,
                    hops: d.hops,
                    payload: Payload::Query(Query::from_id(d.text)),
                };
                self.send_frame(ctx, msg);
            }
            EmissionKind::RelayPong => {
                let d = draw_relay_pong(
                    &self.env.diurnal,
                    &self.env.alloc,
                    &self.env.files,
                    ctx.now(),
                    &mut self.rng,
                );
                let msg = Message {
                    guid: d.guid,
                    ttl: d.ttl,
                    hops: d.hops,
                    payload: Payload::Pong(Pong {
                        port: 6346,
                        addr: d.addr,
                        shared_files: d.files,
                        shared_kb: d.kb,
                    }),
                };
                self.send_frame(ctx, msg);
            }
            EmissionKind::RelayHit => {
                let d =
                    draw_relay_hit(&self.env.diurnal, &self.env.alloc, ctx.now(), &mut self.rng);
                let results = d
                    .results
                    .iter()
                    .enumerate()
                    .map(|(i, r)| QueryHitResult {
                        index: i as u32,
                        size: r.size,
                        name: format!("file{:04}.mp3", r.name_num),
                    })
                    .collect();
                let msg = Message {
                    guid: d.guid,
                    ttl: d.ttl,
                    hops: d.hops,
                    payload: Payload::QueryHit(QueryHit {
                        port: 6346,
                        addr: d.addr,
                        speed: d.speed,
                        results,
                        servent: d.servent,
                    }),
                };
                self.send_frame(ctx, msg);
            }
            EmissionKind::End => {
                if !self.plan.vanish {
                    if self.plan.send_bye {
                        let bye = Message::originate(
                            Guid::random(&mut self.rng),
                            Payload::Bye(gnutella::message::Bye {
                                code: 200,
                                reason: BYE_REASON.into(),
                            }),
                        )
                        .first_hop();
                        self.send_frame(ctx, bye);
                    }
                    let server = self.server;
                    let d = self.env.latency.sample(&mut self.rng);
                    let key = self.take_key();
                    let lane = ctx.id().0;
                    ctx.send_after_keyed(server, NetMsg::Disconnect, d, lane, key);
                }
                // Either way the peer is gone; a vanished peer simply stops
                // responding and the measurement side probe-closes later.
                ctx.remove_self();
            }
        }
    }

    /// React to one frame from the measurement peer, however it traveled.
    fn handle_frame(&mut self, ctx: &mut Context<'_, NetMsg>, m: &Message) {
        match &m.payload {
            Payload::Ping => {
                // Answer probe / keepalive pings while alive.
                let pong = Message::originate(
                    Guid::random(&mut self.rng),
                    Payload::Pong(Pong {
                        port: 6346,
                        addr: self.addr,
                        shared_files: self.plan.shared_files,
                        shared_kb: self.plan.shared_files.saturating_mul(4_000),
                    }),
                )
                .first_hop();
                self.send_frame(ctx, pong);
            }
            Payload::Query(_) => {
                if let Some(a) = draw_query_answer(self.plan.shared_files, &mut self.rng) {
                    let msg = Message {
                        guid: m.guid,
                        ttl: gnutella::message::DEFAULT_TTL - 1,
                        hops: 1,
                        payload: Payload::QueryHit(QueryHit {
                            port: 6346,
                            addr: self.addr,
                            speed: a.speed,
                            results: vec![QueryHitResult {
                                index: 0,
                                size: a.size,
                                name: ANSWER_FILE_NAME.into(),
                            }],
                            servent: a.servent,
                        }),
                    };
                    self.send_frame(ctx, msg);
                }
            }
            _ => {}
        }
    }
}

impl Actor for ClientPeer {
    type Msg = NetMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let hs = Handshake::new(self.plan.user_agent, self.plan.ultrapeer).render();
        let addr = self.addr;
        let server = self.server;
        let d = self.env.latency.sample(&mut self.rng);
        let key = self.take_key();
        let lane = ctx.id().0;
        ctx.send_after_keyed(
            server,
            NetMsg::Connect {
                addr,
                handshake: hs,
            },
            d,
            lane,
            key,
        );
    }

    fn on_message(&mut self, ctx: &mut Context<'_, NetMsg>, _from: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::ConnectReply(HandshakeResponse::Accept) => {
                // Plan timeline starts now.
                self.emitter = Some(SessionEmitter::start(
                    &self.plan,
                    self.keepalive,
                    ctx.now(),
                    &mut self.rng,
                ));
                self.arm_next(ctx);
            }
            NetMsg::ConnectReply(HandshakeResponse::Busy) => {
                ctx.remove_self();
            }
            NetMsg::Frame(m) => self.handle_frame(ctx, &m),
            NetMsg::Data(mut bytes) => {
                while let Ok(m) = decode_message(&mut bytes) {
                    self.handle_frame(ctx, &m);
                }
            }
            NetMsg::Disconnect => {
                ctx.remove_self();
            }
            NetMsg::Connect { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, NetMsg>, _tag: u64) {
        if self.emitter.is_none() {
            return;
        }
        let Some(kind) = self.pending.take() else {
            return;
        };
        self.emit(ctx, kind);
        if kind != EmissionKind::End {
            self.arm_next(ctx);
        }
    }

    fn on_stop(&mut self, _now: SimTime) {}
}

// Quick-session note: quick disconnects are just plans with kind
// `SessionKind::Quick`, executed identically (short duration, usually no
// queries); the measurement side cannot tell the difference except by
// duration — which is the point of filter rule 3.
