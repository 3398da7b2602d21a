//! Replay a synthetic workload into a simulated network.
//!
//! [`WorkloadGenerator`] produces abstract events; a design study usually
//! wants those events to arrive as *protocol traffic* at the system under
//! test. [`replay`] bridges the two: it materializes every generated
//! session as a lightweight peer actor that performs the Gnutella 0.6
//! handshake, issues its queries as real QUERY frames (keyword text from
//! [`QueryRef::to_query_string`]), answers keepalive probes, and tears
//! down at session end — against any `simnet` node that speaks
//! [`gnutella::net::NetMsg`] (e.g. the `p2pq-trace` measurement peer, or
//! a prototype ultrapeer you are evaluating).

use crate::events::{PeerId, QueryRef, WorkloadEvent};
use crate::generator::{GeneratorConfig, WorkloadGenerator};
use crate::model::WorkloadModel;
use geoip::{AddressAllocator, GeoDb, Region};
use gnutella::message::{Message, Payload, Pong, Query};
use gnutella::net::{NetMsg, Transport};
use gnutella::{Guid, Handshake};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{Actor, Context, LatencyModel, NodeId, SimDuration, SimTime, Simulator};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Summary of a replay run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Sessions spawned toward the target.
    pub sessions: u64,
    /// QUERY frames scheduled.
    pub queries: u64,
    /// Events that fell outside the replay horizon (none under normal
    /// operation; kept for diagnosis).
    pub dropped_events: u64,
}

/// One replayed peer session.
struct ReplayPeer {
    target: NodeId,
    addr: Ipv4Addr,
    ultrapeer: bool,
    /// (offset from session start, query).
    queries: Vec<(SimDuration, QueryRef)>,
    end_offset: SimDuration,
    latency: LatencyModel,
    transport: Transport,
    rng: StdRng,
    connected: bool,
}

const TAG_END: u64 = u64::MAX;

impl ReplayPeer {
    /// Stay alive under the target's idle probing, whichever way the
    /// probe traveled.
    fn handle_frame(&mut self, ctx: &mut Context<'_, NetMsg>, m: &Message) {
        if matches!(m.payload, Payload::Ping) {
            let pong = Message::originate(
                Guid::random(&mut self.rng),
                Payload::Pong(Pong {
                    port: 6346,
                    addr: self.addr,
                    shared_files: 0,
                    shared_kb: 0,
                }),
            )
            .first_hop();
            let target = self.target;
            let latency = self.latency;
            ctx.send(target, self.transport.frame(pong), &latency);
        }
    }
}

impl Actor for ReplayPeer {
    type Msg = NetMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        let hs = Handshake::new("p2pq-replay/1.0", self.ultrapeer).render();
        let target = self.target;
        let addr = self.addr;
        let latency = self.latency;
        ctx.send(
            target,
            NetMsg::Connect {
                addr,
                handshake: hs,
            },
            &latency,
        );
    }

    fn on_message(&mut self, ctx: &mut Context<'_, NetMsg>, _from: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::ConnectReply(gnutella::HandshakeResponse::Accept) => {
                self.connected = true;
                for (i, (off, _)) in self.queries.iter().enumerate() {
                    ctx.set_timer(*off, i as u64);
                }
                ctx.set_timer(self.end_offset, TAG_END);
            }
            NetMsg::ConnectReply(gnutella::HandshakeResponse::Busy) => ctx.remove_self(),
            NetMsg::Frame(m) => self.handle_frame(ctx, &m),
            NetMsg::Data(mut bytes) => {
                while let Ok(m) = gnutella::wire::decode_message(&mut bytes) {
                    self.handle_frame(ctx, &m);
                }
            }
            NetMsg::Disconnect | NetMsg::Connect { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, NetMsg>, tag: u64) {
        if !self.connected {
            return;
        }
        let target = self.target;
        let latency = self.latency;
        if tag == TAG_END {
            ctx.send(target, NetMsg::Disconnect, &latency);
            ctx.remove_self();
            return;
        }
        let Some((_, query)) = self.queries.get(tag as usize) else {
            return;
        };
        let msg = Message::originate(
            Guid::random(&mut self.rng),
            Payload::Query(Query::keywords(query.to_query_string())),
        )
        .first_hop();
        ctx.send(target, self.transport.frame(msg), &latency);
    }
}

/// Spawner: injects each replayed session at its generated start time.
struct ReplaySpawner {
    target: NodeId,
    sessions: Vec<PendingSession>,
    latency: LatencyModel,
    seed: u64,
}

struct PendingSession {
    start: SimTime,
    region: Region,
    queries: Vec<(SimDuration, QueryRef)>,
    end_offset: SimDuration,
    addr: Ipv4Addr,
}

impl Actor for ReplaySpawner {
    type Msg = NetMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
        for (i, s) in self.sessions.iter().enumerate() {
            ctx.set_timer(s.start - ctx.now(), i as u64);
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, NetMsg>, _from: NodeId, _msg: NetMsg) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, NetMsg>, tag: u64) {
        let s = &self.sessions[tag as usize];
        let peer = ReplayPeer {
            target: self.target,
            addr: s.addr,
            ultrapeer: false,
            queries: s.queries.clone(),
            end_offset: s.end_offset,
            latency: self.latency,
            transport: Transport::default(),
            rng: StdRng::seed_from_u64(self.seed ^ tag),
            connected: false,
        };
        ctx.spawn(Box::new(peer));
    }
}

/// Generate a workload from `model` and replay it as protocol traffic
/// against `target` inside `sim`, up to simulated time `until`.
///
/// Addresses are drawn per region from `db` so the target (or a
/// downstream analysis) can resolve regions exactly as with a live trace.
pub fn replay(
    sim: &mut Simulator<NetMsg>,
    target: NodeId,
    model: &WorkloadModel,
    cfg: GeneratorConfig,
    until: SimTime,
    db: &GeoDb,
) -> ReplayStats {
    let mut generator = WorkloadGenerator::new(model, cfg);
    let events = generator.events_until(until);

    let alloc = AddressAllocator::new(db);
    let mut addr_rng = StdRng::seed_from_u64(cfg.seed ^ 0xADD4);
    let mut stats = ReplayStats::default();
    let mut open: HashMap<PeerId, PendingSession> = HashMap::new();
    let mut done = Vec::new();
    for ev in events {
        match ev {
            WorkloadEvent::SessionStart {
                peer, region, at, ..
            } => {
                open.insert(
                    peer,
                    PendingSession {
                        start: at,
                        region,
                        queries: Vec::new(),
                        end_offset: SimDuration::ZERO,
                        addr: Ipv4Addr::UNSPECIFIED,
                    },
                );
            }
            WorkloadEvent::Query { peer, at, query } => {
                if let Some(s) = open.get_mut(&peer) {
                    s.queries.push((at - s.start, query));
                    stats.queries += 1;
                } else {
                    stats.dropped_events += 1;
                }
            }
            WorkloadEvent::SessionEnd { peer, at } => {
                if let Some(mut s) = open.remove(&peer) {
                    s.end_offset = at - s.start;
                    s.addr = alloc.sample(s.region, &mut addr_rng);
                    stats.sessions += 1;
                    done.push(s);
                } else {
                    stats.dropped_events += 1;
                }
            }
        }
    }
    // Sessions still open at the horizon are replayed too, ending at it.
    for (_, mut s) in open {
        s.end_offset = until - s.start;
        s.addr = alloc.sample(s.region, &mut addr_rng);
        stats.sessions += 1;
        done.push(s);
    }

    sim.add_node(Box::new(ReplaySpawner {
        target,
        sessions: done,
        latency: LatencyModel::intra_continent(),
        seed: cfg.seed ^ 0x5EED,
    }));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use trace::{CollectorConfig, Fanout, MeasurementPeer, SharedSink, Trace};

    #[test]
    fn replayed_workload_reaches_a_measurement_peer() {
        let model = WorkloadModel::paper_default();
        let db = GeoDb::synthetic();
        let trace = Arc::new(Mutex::new(Trace::default()));
        let mut sim: Simulator<NetMsg> = Simulator::new(11);
        let target = sim.add_node(Box::new(MeasurementPeer::new(
            CollectorConfig {
                max_connections: 10_000,
                ..CollectorConfig::default()
            },
            trace.clone(),
            Arc::default(),
        )));

        let horizon = SimTime::from_secs(2 * 3600);
        let stats = replay(
            &mut sim,
            target,
            &model,
            GeneratorConfig {
                n_peers: 60,
                seed: 3,
                fixed_hour: Some(20),
                ..GeneratorConfig::default()
            },
            horizon,
            &db,
        );
        assert!(stats.sessions > 100, "sessions {}", stats.sessions);
        assert!(stats.queries > 20, "queries {}", stats.queries);
        assert_eq!(stats.dropped_events, 0);

        sim.run_until(horizon + SimDuration::from_hours(1));
        let tr = trace.lock();
        // Every replayed session produced a connection record…
        assert_eq!(tr.connections.len() as u64, stats.sessions);
        // …and every generated query arrived as a hop-1 QUERY frame.
        let hop1 = tr
            .messages
            .iter()
            .filter(|m| m.hops == 1 && matches!(m.payload, trace::RecordedPayload::Query { .. }))
            .count() as u64;
        assert_eq!(hop1, stats.queries);
        // Regions resolve through the same database.
        let na = tr
            .connections
            .iter()
            .filter(|c| db.lookup(c.addr) == Region::NorthAmerica)
            .count() as f64;
        let frac = na / tr.connections.len() as f64;
        assert!((0.55..0.9).contains(&frac), "NA fraction {frac}");
    }

    #[test]
    fn fanout_feeds_retain_and_streaming_identically() {
        // One replayed campaign into a Fanout(Trace, StreamingPipeline):
        // batch analysis of the retained trace must equal the streaming
        // pipeline's online result, event for event, on a live simulated
        // measurement peer (not just the campaign driver).
        let model = WorkloadModel::paper_default();
        let db = GeoDb::synthetic();
        let retained = Arc::new(Mutex::new(Trace::default()));
        let streaming = Arc::new(Mutex::new(analysis::StreamingPipeline::new(
            db.clone(),
            true,
        )));
        let mut fanout = Fanout::new();
        fanout.register(Arc::clone(&retained) as SharedSink);
        fanout.register(Arc::clone(&streaming) as SharedSink);

        let mut sim: Simulator<NetMsg> = Simulator::new(11);
        let target = sim.add_node(Box::new(MeasurementPeer::new(
            CollectorConfig {
                max_connections: 10_000,
                ..CollectorConfig::default()
            },
            Arc::new(Mutex::new(fanout)),
            Arc::default(),
        )));

        let horizon = SimTime::from_secs(2 * 3600);
        replay(
            &mut sim,
            target,
            &model,
            GeneratorConfig {
                n_peers: 60,
                seed: 3,
                fixed_hour: Some(20),
                ..GeneratorConfig::default()
            },
            horizon,
            &db,
        );
        sim.run_until(horizon + SimDuration::from_hours(1));
        drop(sim); // flush the collector

        let tr = Arc::try_unwrap(retained).unwrap().into_inner();
        let pipeline = Arc::try_unwrap(streaming)
            .unwrap_or_else(|_| panic!("streaming sink still shared"))
            .into_inner();
        let batch = analysis::analyze_retained(&tr, &db).ft;
        let online = pipeline.finish();
        assert!(batch.report.final_sessions > 50);
        assert_eq!(online.ft.report, batch.report);
        assert_eq!(online.ft.sessions, batch.sessions);
        assert_eq!(online.messages_seen as usize, tr.messages.len());
        assert_eq!(online.wire_bytes, tr.wire_bytes);
    }
}
