//! The passive measurement ultrapeer.
//!
//! Reproduces the paper's modified-mutella measurement node (§3.1–§3.3):
//!
//! * runs in ultrapeer mode and accepts up to 200 simultaneous connections
//!   (further connects are answered `503 Busy`);
//! * performs the 0.6 handshake and records `User-Agent` / `X-Ultrapeer`;
//! * **never originates queries** (passive measurement) but participates in
//!   routing: QUERYs are duplicate-suppressed through the GUID table and
//!   forwarded (TTL−1, hops+1) to other neighbors, QUERYHITs are
//!   reverse-routed along the GUID path;
//! * answers direct PINGs with its own PONG (shared files = 0 — the node
//!   shares nothing);
//! * applies the idle policy of §3.2: 15 s silence ⇒ probe PING, 15 s more
//!   ⇒ close (so probe-closed session durations overestimate by ≈30 s);
//! * logs a [`MessageRecord`] for every received Gnutella message and a
//!   [`ConnectionRecord`] per connection into a shared [`Trace`].
//!
//! Recording is lock-free on the per-message hot path: records accumulate
//! in a collector-local arrival-ordered buffer and are drained into the
//! shared trace in chunks — at session close, when the buffer fills, and
//! when the collector is dropped at simulation end — so the shared trace
//! ends up bit-identical to per-message appends at a fraction of the lock
//! traffic. Frames travel on the typed fast path ([`NetMsg::Frame`]) by
//! default; wire-volume accounting uses `gnutella::wire::encoded_len`, and
//! the byte codec stays covered by the conformance sampler and the
//! retained [`NetMsg::Data`] receive path.
//!
//! One deliberate scale knob: the real node forwards each query to all
//! ~199 other neighbors; `forward_fanout` caps that (default 4) because
//! forwarded copies leave the measurement point and influence nothing the
//! paper measures — only *received* messages are characterized. The cap is
//! configurable for fidelity experiments.

use crate::record::{ConnectionRecord, MessageRecord, RecordedPayload, SessionId};
use crate::sink::SharedSink;
use crate::store::Trace;
use gnutella::message::{Message, Payload, Pong};
use gnutella::net::{NetMsg, Transport};
use gnutella::peerlink::{IdleAction, IdleTracker};
use gnutella::wire::{decode_message, encoded_len, WireError};
use gnutella::{Guid, Handshake, HandshakeResponse, RoutingTable};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{Actor, Context, LatencyModel, NodeId, SimTime};
use std::net::Ipv4Addr;
use std::sync::Arc;
use telemetry::{Counter, Hist, Registry};

/// Measurement peer configuration.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Maximum simultaneous connections (paper: 200).
    pub max_connections: usize,
    /// Forwarding fan-out cap (see module docs).
    pub forward_fanout: usize,
    /// Link latency used for replies/forwards.
    pub latency: LatencyModel,
    /// The measurement node's own address (University of Dortmund).
    pub addr: Ipv4Addr,
    /// RNG seed for GUID generation.
    pub seed: u64,
    /// How outbound frames travel (typed fast path by default).
    pub transport: Transport,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            max_connections: 200,
            forward_fanout: 4,
            latency: LatencyModel::Fixed { millis: 50 },
            // A RIPE-looking address for the Dortmund node.
            addr: Ipv4Addr::new(129, 217, 12, 34),
            seed: 0x6d75_7465,
            transport: Transport::Typed,
        }
    }
}

struct Conn {
    sid: SessionId,
    idle: IdleTracker,
}

/// Live connections, ordered by [`NodeId`].
///
/// A sorted `Vec` rather than a tree map: the set is small (bounded by
/// `max_connections`) and hit on every received frame, so binary search
/// over one contiguous allocation beats pointer-chasing tree nodes. The
/// engine allocates `NodeId`s monotonically and never reuses them, but
/// connect latencies differ, so a later-spawned peer can be admitted
/// first and an insert can land mid-list. Iteration order is
/// ascending `NodeId` — the same order the previous `BTreeMap` gave the
/// forward fan-out loop, which keeps traces bit-identical.
#[derive(Default)]
struct ConnSet {
    entries: Vec<(NodeId, Conn)>,
}

impl ConnSet {
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn get_mut(&mut self, node: NodeId) -> Option<&mut Conn> {
        match self.entries.binary_search_by_key(&node, |e| e.0) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    fn contains(&self, node: NodeId) -> bool {
        self.entries.binary_search_by_key(&node, |e| e.0).is_ok()
    }

    fn insert(&mut self, node: NodeId, conn: Conn) {
        match self.entries.binary_search_by_key(&node, |e| e.0) {
            Ok(i) => self.entries[i].1 = conn,
            Err(i) => self.entries.insert(i, (node, conn)),
        }
    }

    fn remove(&mut self, node: NodeId) -> Option<Conn> {
        match self.entries.binary_search_by_key(&node, |e| e.0) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }
}

/// Counters the collector keeps in addition to the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorCounters {
    /// Connections refused at capacity.
    pub rejected_busy: u64,
    /// Handshakes that failed to parse.
    pub rejected_bad_handshake: u64,
    /// Wire decode errors on data frames.
    pub decode_errors: u64,
    /// Queries forwarded onward.
    pub forwarded_queries: u64,
    /// Duplicate queries suppressed by the routing table.
    pub duplicates_suppressed: u64,
    /// QUERYHITs reverse-routed.
    pub reverse_routed_hits: u64,
    /// Probe PINGs sent.
    pub probes_sent: u64,
    /// Connections closed by the idle-probe policy.
    pub probe_closes: u64,
}

/// Local-record buffer size that triggers a drain into the shared trace.
/// Chunked draining amortizes the trace lock to one acquisition per ~8k
/// messages in the worst case (no session closing for a long stretch);
/// in a normal campaign session closes drain the buffer far earlier.
/// A power-of-two divisor of the store's compressed-chunk size
/// (`trace::store::CHUNK_ROWS` = 8 × this), so retained-mode chunk
/// seals happen at drain boundaries, inside the batch append, never
/// mid-record.
const RECORD_FLUSH_CHUNK: usize = 8_192;

/// The measurement ultrapeer actor.
pub struct MeasurementPeer {
    cfg: CollectorConfig,
    conns: ConnSet,
    routing: RoutingTable,
    sink: SharedSink,
    counters: CollectorCounters,
    rng: StdRng,
    /// Arrival-ordered records not yet delivered to the sink. Recording
    /// appends here without taking any lock; [`Self::flush`] hands whole
    /// chunks to the sink under one lock acquisition at session close,
    /// buffer-full, or collector drop — so the delivered order is
    /// exactly the arrival order, bit-identical to per-message pushes.
    pending: Vec<MessageRecord>,
    /// Wire length of each record still in `pending` (parallel vector).
    pending_wire: Vec<u32>,
    /// Next session id — collector-local so recording works against any
    /// sink, not just a retained trace. Ids are dense from 0, which is
    /// what indexes a retained trace's `connections` vector.
    next_sid: u64,
    /// Lane-local schedule counter: the `key` half of the `(lane, key)`
    /// ordering pair on every send and timer this actor schedules. Keyed
    /// scheduling (plus sampling latency from the collector's own RNG
    /// rather than the engine's) makes the collector's event timing a
    /// pure function of its inbound stream — the contract the
    /// hybrid-fidelity engine replays.
    next_key: u64,
    /// Telemetry registry the drain boundary reports into: the
    /// campaign's registry under a campaign, a private one for
    /// standalone use.
    /// Relaxed counter bumps once per ~8k records — never per message.
    registry: Arc<Registry>,
}

impl MeasurementPeer {
    /// Create a measurement peer writing into the shared `trace`
    /// (retain mode — the trace consumes the record stream directly).
    pub fn new(cfg: CollectorConfig, trace: Arc<Mutex<Trace>>) -> Self {
        MeasurementPeer::with_sink(cfg, trace)
    }

    /// Create a measurement peer delivering the record stream to an
    /// arbitrary sink (streaming aggregators, fan-outs, or a trace).
    pub fn with_sink(cfg: CollectorConfig, sink: SharedSink) -> Self {
        MeasurementPeer::with_sink_and_registry(cfg, sink, Arc::new(Registry::new()))
    }

    /// As [`MeasurementPeer::with_sink`], but reporting drain telemetry
    /// into a caller-owned (e.g. campaign-wide) registry.
    pub fn with_sink_and_registry(
        cfg: CollectorConfig,
        sink: SharedSink,
        registry: Arc<Registry>,
    ) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        MeasurementPeer {
            cfg,
            conns: ConnSet::default(),
            routing: RoutingTable::new(),
            sink,
            counters: CollectorCounters::default(),
            rng,
            pending: Vec::with_capacity(RECORD_FLUSH_CHUNK),
            pending_wire: Vec::with_capacity(RECORD_FLUSH_CHUNK),
            next_sid: 0,
            next_key: 0,
            registry,
        }
    }

    fn take_key(&mut self) -> u64 {
        let k = self.next_key;
        self.next_key += 1;
        k
    }

    /// Current live connection count.
    pub fn live_connections(&self) -> usize {
        self.conns.len()
    }

    /// Collector-side counters.
    pub fn counters(&self) -> CollectorCounters {
        self.counters
    }

    /// Drain buffered message records into the sink (one lock
    /// acquisition, one batch delivery).
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        telemetry::scope!("drain");
        let n = self.pending.len() as u64;
        let virtual_secs = self.pending.last().map_or(0.0, |r| r.at.as_secs_f64());
        self.sink.lock().on_batch(&self.pending, &self.pending_wire);
        self.pending.clear();
        self.pending_wire.clear();
        self.registry.incr(Counter::SinkBatches);
        self.registry.add(Counter::SinkRecords, n);
        self.registry.observe(Hist::SinkBatchSize, n);
        telemetry::progress::record_batch(n, virtual_secs);
    }

    fn record_message(&mut self, sid: SessionId, at: SimTime, msg: &Message) {
        let payload = match &msg.payload {
            Payload::Ping => RecordedPayload::Ping,
            Payload::Pong(p) => RecordedPayload::Pong {
                addr: p.addr,
                shared_files: p.shared_files,
            },
            Payload::Query(q) => RecordedPayload::Query {
                text: q.text,
                sha1: q.sha1.is_some(),
            },
            Payload::QueryHit(qh) => RecordedPayload::QueryHit {
                addr: qh.addr,
                results: qh.results.len() as u8,
            },
            Payload::Bye(_) => RecordedPayload::Bye,
        };
        self.pending_wire.push(encoded_len(msg) as u32);
        self.pending.push(MessageRecord {
            session: sid,
            guid: msg.guid,
            at,
            hops: msg.hops,
            ttl: msg.ttl,
            payload,
        });
        if self.pending.len() >= RECORD_FLUSH_CHUNK {
            self.flush();
        }
    }

    fn finalize(&mut self, node: NodeId, end: SimTime, by_probe: bool) {
        if let Some(conn) = self.conns.remove(node) {
            // Drain-then-close in two acquisitions: only this actor
            // writes to its sink, so nothing can interleave, and the
            // drain goes through the one accounting point.
            self.flush();
            self.sink.lock().on_close(conn.sid, end, by_probe);
            if by_probe {
                self.counters.probe_closes += 1;
            }
        }
    }

    fn send_message(&mut self, ctx: &mut Context<'_, NetMsg>, to: NodeId, msg: Message) {
        let frame = self.cfg.transport.frame(msg);
        self.send_net(ctx, to, frame);
    }

    fn send_net(&mut self, ctx: &mut Context<'_, NetMsg>, to: NodeId, msg: NetMsg) {
        let d = self.cfg.latency.sample(&mut self.rng);
        let key = self.take_key();
        let lane = ctx.id().0;
        ctx.send_after_keyed(to, msg, d, lane, key);
    }

    fn arm_idle_timer(
        &mut self,
        ctx: &mut Context<'_, NetMsg>,
        delay: simnet::SimDuration,
        tag: u64,
    ) {
        let key = self.take_key();
        let lane = ctx.id().0;
        ctx.set_timer_keyed(delay, tag, lane, key);
    }

    fn handle_gnutella(
        &mut self,
        ctx: &mut Context<'_, NetMsg>,
        from: NodeId,
        msg: Message,
        sid: SessionId,
    ) {
        let now = ctx.now();
        self.record_message(sid, now, &msg);
        match &msg.payload {
            Payload::Ping => {
                // Answer direct pings with our own PONG (0 shared files —
                // the node is purely passive). Ping flooding is not
                // simulated; PONG advertisement traffic from remote peers
                // arrives relayed from neighbors instead.
                let pong = Message::originate(
                    Guid::random(&mut self.rng),
                    Payload::Pong(Pong {
                        port: 6346,
                        addr: self.cfg.addr,
                        shared_files: 0,
                        shared_kb: 0,
                    }),
                );
                let pong = pong.first_hop();
                self.send_message(ctx, from, pong);
            }
            Payload::Query(_) => {
                if self.routing.insert(msg.guid, from, now) {
                    // The forwarded copy is built once, outside the target
                    // loop; targets are streamed off the connection map
                    // (ordered by NodeId) without a temporary Vec.
                    if let Some(fwd) = msg.forwarded() {
                        let transport = self.cfg.transport;
                        let fanout = self.cfg.forward_fanout;
                        let lane = ctx.id().0;
                        let mut sent = 0u64;
                        // Targets are streamed off the connection map
                        // (ordered by NodeId) without a temporary Vec;
                        // indexed iteration lets each send draw its own
                        // latency and schedule key.
                        let mut idx = 0;
                        while idx < self.conns.entries.len() && (sent as usize) < fanout {
                            let t = self.conns.entries[idx].0;
                            idx += 1;
                            if t == from {
                                continue;
                            }
                            let d = self.cfg.latency.sample(&mut self.rng);
                            let key = self.take_key();
                            ctx.send_after_keyed(t, transport.frame(fwd.clone()), d, lane, key);
                            sent += 1;
                        }
                        self.counters.forwarded_queries += sent;
                    }
                } else {
                    self.counters.duplicates_suppressed += 1;
                }
            }
            Payload::QueryHit(_) => {
                if let Some(next) = self.routing.reverse_route(&msg.guid) {
                    if next != from && self.conns.contains(next) {
                        if let Some(fwd) = msg.forwarded() {
                            self.send_message(ctx, next, fwd);
                            self.counters.reverse_routed_hits += 1;
                        }
                    }
                }
            }
            Payload::Pong(_) => {}
            Payload::Bye(_) => {
                // Graceful close: the peer will tear down next.
                self.finalize(from, now, false);
            }
        }
    }
}

impl Drop for MeasurementPeer {
    /// Final drain: records buffered after the last session close (e.g.
    /// traffic on connections still open at simulation end) reach the
    /// shared trace when the simulator — and with it this actor — is
    /// dropped.
    fn drop(&mut self) {
        self.flush();
    }
}

impl Actor for MeasurementPeer {
    type Msg = NetMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, NetMsg>, from: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::Connect { addr, handshake } => {
                if self.conns.len() >= self.cfg.max_connections {
                    self.counters.rejected_busy += 1;
                    self.send_net(ctx, from, NetMsg::ConnectReply(HandshakeResponse::Busy));
                    return;
                }
                let parsed = match Handshake::parse(&handshake) {
                    Ok(h) => h,
                    Err(_) => {
                        self.counters.rejected_bad_handshake += 1;
                        self.send_net(ctx, from, NetMsg::ConnectReply(HandshakeResponse::Busy));
                        return;
                    }
                };
                let now = ctx.now();
                let sid = SessionId(self.next_sid);
                self.next_sid += 1;
                self.sink.lock().on_connect(ConnectionRecord {
                    id: sid,
                    addr,
                    user_agent: parsed.user_agent,
                    ultrapeer: parsed.ultrapeer,
                    start: now,
                    end: None,
                    closed_by_probe: false,
                });
                self.conns.insert(
                    from,
                    Conn {
                        sid,
                        idle: IdleTracker::new(now),
                    },
                );
                self.send_net(ctx, from, NetMsg::ConnectReply(HandshakeResponse::Accept));
                // Arm the idle-check chain for this connection.
                self.arm_idle_timer(ctx, gnutella::peerlink::IDLE_PROBE_AFTER, u64::from(from.0));
            }
            NetMsg::ConnectReply(_) => {
                // The measurement peer never dials out; ignore.
            }
            NetMsg::Frame(m) => {
                let Some(conn) = self.conns.get_mut(from) else {
                    return; // frame after close — TCP stragglers
                };
                conn.idle.on_receive(ctx.now());
                let sid = conn.sid;
                self.handle_gnutella(ctx, from, m, sid);
            }
            NetMsg::Data(mut bytes) => {
                let Some(conn) = self.conns.get_mut(from) else {
                    return; // data after close — TCP stragglers
                };
                conn.idle.on_receive(ctx.now());
                let sid = conn.sid;
                loop {
                    match decode_message(&mut bytes) {
                        Ok(m) => self.handle_gnutella(ctx, from, m, sid),
                        Err(WireError::Truncated) if bytes.is_empty() => break,
                        Err(_) => {
                            self.counters.decode_errors += 1;
                            break;
                        }
                    }
                }
            }
            NetMsg::Disconnect => {
                self.finalize(from, ctx.now(), false);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, NetMsg>, tag: u64) {
        let node = NodeId(tag as u32);
        let now = ctx.now();
        let action = match self.conns.get_mut(node) {
            Some(conn) => conn.idle.check(now),
            None => return, // connection already gone
        };
        match action {
            IdleAction::CheckAt(deadline) => {
                self.arm_idle_timer(ctx, deadline - now, tag);
            }
            IdleAction::SendProbe(deadline) => {
                let ping =
                    Message::originate(Guid::random(&mut self.rng), Payload::Ping).first_hop();
                self.send_message(ctx, node, ping);
                self.counters.probes_sent += 1;
                self.arm_idle_timer(ctx, deadline - now, tag);
            }
            IdleAction::Close => {
                self.send_net(ctx, node, NetMsg::Disconnect);
                self.finalize(node, now, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnutella::wire::encode_message;
    use simnet::{SimDuration, Simulator};

    /// A scripted client that connects, optionally sends frames at given
    /// offsets, and optionally disconnects.
    struct ScriptClient {
        server: NodeId,
        addr: Ipv4Addr,
        handshake: String,
        /// (offset-from-start, frames) pairs.
        script: Vec<(SimDuration, Vec<Message>)>,
        disconnect_at: Option<SimDuration>,
        accepted: bool,
        received: Arc<Mutex<Vec<Message>>>,
    }

    impl ScriptClient {
        fn new(server: NodeId, addr: Ipv4Addr) -> Self {
            ScriptClient {
                server,
                addr,
                handshake: Handshake::new("TestClient/1.0", false).render(),
                script: Vec::new(),
                disconnect_at: None,
                accepted: false,
                received: Arc::new(Mutex::new(Vec::new())),
            }
        }
    }

    impl Actor for ScriptClient {
        type Msg = NetMsg;

        fn on_start(&mut self, ctx: &mut Context<'_, NetMsg>) {
            let hs = self.handshake.clone();
            let addr = self.addr;
            ctx.send_after(
                self.server,
                NetMsg::Connect {
                    addr,
                    handshake: hs,
                },
                SimDuration::from_millis(10),
            );
        }

        fn on_message(&mut self, ctx: &mut Context<'_, NetMsg>, _from: NodeId, msg: NetMsg) {
            match msg {
                NetMsg::ConnectReply(HandshakeResponse::Accept) => {
                    self.accepted = true;
                    for (i, (off, frames)) in self.script.iter().enumerate() {
                        let _ = frames;
                        ctx.set_timer(*off, i as u64);
                    }
                    if let Some(d) = self.disconnect_at {
                        ctx.set_timer(d, 1_000_000);
                    }
                }
                NetMsg::ConnectReply(HandshakeResponse::Busy) => {}
                NetMsg::Frame(m) => self.received.lock().push(m),
                NetMsg::Data(mut b) => {
                    while let Ok(m) = decode_message(&mut b) {
                        self.received.lock().push(m);
                    }
                }
                NetMsg::Disconnect | NetMsg::Connect { .. } => {}
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, NetMsg>, tag: u64) {
            if tag == 1_000_000 {
                ctx.send_after(self.server, NetMsg::Disconnect, SimDuration::from_millis(5));
                return;
            }
            let (_, frames) = &self.script[tag as usize];
            let mut buf = bytes::BytesMut::new();
            for m in frames {
                buf.extend_from_slice(&encode_message(m));
            }
            ctx.send_after(
                self.server,
                NetMsg::Data(buf.freeze()),
                SimDuration::from_millis(20),
            );
        }
    }

    fn mk_query(seed: u64, text: &str) -> Message {
        let mut rng = StdRng::seed_from_u64(seed);
        Message::originate(
            Guid::random(&mut rng),
            Payload::Query(gnutella::message::Query::keywords(text)),
        )
        .first_hop()
    }

    fn setup() -> (Simulator<NetMsg>, NodeId, Arc<Mutex<Trace>>) {
        let trace = Arc::new(Mutex::new(Trace::new()));
        let mut sim: Simulator<NetMsg> = Simulator::new(42);
        let peer = MeasurementPeer::new(CollectorConfig::default(), trace.clone());
        let id = sim.add_node(Box::new(peer));
        (sim, id, trace)
    }

    #[test]
    fn records_connection_and_queries() {
        let (mut sim, server, trace) = setup();
        let mut client = ScriptClient::new(server, Ipv4Addr::new(24, 1, 2, 3));
        client.script = vec![
            (SimDuration::from_secs(5), vec![mk_query(1, "first song")]),
            (SimDuration::from_secs(9), vec![mk_query(2, "second song")]),
        ];
        client.disconnect_at = Some(SimDuration::from_secs(12));
        sim.add_node(Box::new(client));
        sim.run_until(SimTime::from_secs(60));

        let tr = trace.lock();
        assert_eq!(tr.connections.len(), 1);
        let c = &tr.connections[0];
        assert_eq!(c.user_agent, "TestClient/1.0");
        assert!(!c.ultrapeer);
        assert!(c.end.is_some());
        assert!(!c.closed_by_probe);
        let queries: Vec<_> = tr
            .messages
            .iter()
            .filter(|m| m.is_one_hop_query())
            .collect();
        assert_eq!(queries.len(), 2);
        assert_eq!(queries[0].hops, 1);
    }

    #[test]
    fn idle_connection_probed_then_closed() {
        let (mut sim, server, trace) = setup();
        // Client connects and never speaks again, never disconnects.
        let client = ScriptClient::new(server, Ipv4Addr::new(24, 9, 9, 9));
        let received = client.received.clone();
        let cid = sim.add_node(Box::new(client));
        sim.run_until(SimTime::from_secs(120));

        let tr = trace.lock();
        let c = &tr.connections[0];
        assert!(c.closed_by_probe, "connection should be probe-closed");
        // Closed ≈ 30 s after the last traffic (handshake), per §3.2.
        let dur = c.duration().unwrap().as_secs_f64();
        assert!((29.0..35.0).contains(&dur), "duration {dur}");
        drop(tr);
        // The client received the probe PING before the close.
        assert!(sim.node(cid).is_some());
        assert!(received
            .lock()
            .iter()
            .any(|m| matches!(m.payload, Payload::Ping)));
    }

    #[test]
    fn capacity_cap_rejects_with_busy() {
        let trace = Arc::new(Mutex::new(Trace::new()));
        let mut sim: Simulator<NetMsg> = Simulator::new(7);
        let cfg = CollectorConfig {
            max_connections: 2,
            ..CollectorConfig::default()
        };
        let server = sim.add_node(Box::new(MeasurementPeer::new(cfg, trace.clone())));
        for i in 0..5 {
            let mut c = ScriptClient::new(server, Ipv4Addr::new(24, 0, 0, 10 + i));
            // Keep the first two alive with periodic traffic.
            c.script = (1..8)
                .map(|k| {
                    (
                        SimDuration::from_secs(k * 10),
                        vec![mk_query(100 + u64::from(i) * 10 + k, &format!("q {i} {k}"))],
                    )
                })
                .collect();
            sim.add_node(Box::new(c));
        }
        sim.run_until(SimTime::from_secs(30));
        // Only 2 connection records; 3 busy rejections.
        assert_eq!(trace.lock().connections.len(), 2);
    }

    #[test]
    fn duplicate_queries_not_forwarded_twice() {
        let (mut sim, server, trace) = setup();
        let q = mk_query(55, "dup test");
        let mut a = ScriptClient::new(server, Ipv4Addr::new(24, 0, 0, 1));
        a.script = vec![(SimDuration::from_secs(2), vec![q.clone(), q.clone()])];
        a.disconnect_at = Some(SimDuration::from_secs(20));
        sim.add_node(Box::new(a));
        sim.run_until(SimTime::from_secs(60));
        // Both copies are *recorded* (the trace sees the raw stream)…
        assert_eq!(
            trace
                .lock()
                .messages
                .iter()
                .filter(|m| matches!(m.payload, RecordedPayload::Query { .. }))
                .count(),
            2
        );
        // …and forwarding happened at most once per other neighbor (here:
        // zero others, so nothing observable — the counter check happens in
        // the multi-client test below).
    }

    #[test]
    fn query_forwarded_to_other_neighbors() {
        let (mut sim, server, _trace) = setup();
        // Client A sends a query; clients B and C should receive it.
        let mut a = ScriptClient::new(server, Ipv4Addr::new(24, 0, 0, 1));
        a.script = vec![(SimDuration::from_secs(2), vec![mk_query(77, "fwd me")])];
        let keepalive = |seed: u64| -> Vec<(SimDuration, Vec<Message>)> {
            (1..6)
                .map(|k| {
                    (
                        SimDuration::from_secs(k * 9),
                        vec![mk_query(seed + k, "ka")],
                    )
                })
                .collect()
        };
        let mut b = ScriptClient::new(server, Ipv4Addr::new(24, 0, 0, 2));
        b.script = keepalive(200);
        let b_rx = b.received.clone();
        let mut c = ScriptClient::new(server, Ipv4Addr::new(24, 0, 0, 3));
        c.script = keepalive(300);
        let c_rx = c.received.clone();
        sim.add_node(Box::new(a));
        sim.add_node(Box::new(b));
        sim.add_node(Box::new(c));
        sim.run_until(SimTime::from_secs(65));

        // B and C received the forwarded query with hops = 2.
        for rx in [b_rx, c_rx] {
            let received = rx.lock();
            let got: Vec<_> = received
                .iter()
                .filter(|m| matches!(&m.payload, Payload::Query(q) if q.text == "fwd me"))
                .collect();
            assert_eq!(got.len(), 1, "client should see exactly one forwarded copy");
            assert_eq!(got[0].hops, 2);
        }
    }
}
