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
//!   [`ConnectionRecord`] per connection into a [`crate::sink::TraceSink`].
//!
//! The node has a recording half and a moving half. [`Recorder`] is the
//! recording half: the admission cap, dense session ids, the open
//! connections with their idle clocks, and the record buffer that feeds
//! the sink. It is the one implementation of the [`crate::sink`]
//! delivery contract, and it has two owners:
//!
//! * [`MeasurementPeer`], the `simnet` actor of full-fidelity campaigns,
//!   adds the moving half as simulator sends: handshake parsing, GUID
//!   routing, PONG replies, query forwards, probe PINGs and idle timers;
//! * the hybrid-fidelity engine (`behavior::hybrid`) moves the same
//!   replies and forwards as keyed events of its own, or elides the ones
//!   nothing observable depends on, and admits, records and closes every
//!   session through its own `Recorder`.
//!
//! Recording is lock-free on the per-message hot path: records accumulate
//! in a recorder-local arrival-ordered buffer and are drained into the
//! sink in batches of at most 8 192 — at session close, when the buffer
//! fills, and when the recorder is dropped at simulation end — so the
//! sink sees exactly the arrival order at a fraction of the lock
//! traffic. Frames travel on the typed fast path ([`NetMsg::Frame`]) by
//! default; wire-volume accounting uses `gnutella::wire::encoded_len`, and
//! the byte codec stays covered by the conformance sampler and the
//! retained [`NetMsg::Data`] receive path.
//!
//! One deliberate scale cut: the real node forwards each query to all
//! ~199 other neighbors; [`FORWARD_FANOUT`] caps that at 4 because
//! forwarded copies leave the measurement point and influence nothing the
//! paper measures — only *received* messages are characterized.

use crate::record::{ConnectionRecord, MessageRecord, RecordedPayload, SessionId};
use crate::sink::SharedSink;
use gnutella::message::{Message, Payload, Pong};
use gnutella::net::{NetMsg, Transport};
use gnutella::peerlink::{IdleAction, IdleTracker};
use gnutella::wire::{decode_message, encoded_len};
use gnutella::{Guid, Handshake, HandshakeResponse, RoutingTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{Actor, Context, NodeId, SimDuration, SimTime};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::net::Ipv4Addr;
use std::sync::Arc;
use telemetry::{Counter, Registry};

/// Measurement peer configuration.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Maximum simultaneous connections (paper: 200).
    pub max_connections: usize,
    /// RNG seed for GUID generation.
    pub seed: u64,
    /// How outbound frames travel (typed fast path by default).
    pub transport: Transport,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            max_connections: 200,
            seed: 0x6d75_7465,
            transport: Transport::Typed,
        }
    }
}

/// Most neighbors a received query is forwarded to (see module docs).
pub const FORWARD_FANOUT: usize = 4;

/// The delay of every reply and forward the collector sends. One fixed
/// delay keeps deliveries to a peer in send order, which the hybrid
/// engine's send-time resolution relies on.
pub const LINK_DELAY: SimDuration = SimDuration::from_millis(50);

/// The measurement node's own address, advertised in its PONGs: a
/// RIPE-looking address for the University of Dortmund node.
const COLLECTOR_ADDR: Ipv4Addr = Ipv4Addr::new(129, 217, 12, 34);

/// Record-buffer size that triggers a drain into the sink. Draining in
/// batches amortizes the sink lock to one acquisition per ~8k messages
/// in the worst case (no session closing for a long stretch); in a
/// normal campaign session closes drain the buffer far earlier. A
/// power-of-two divisor of the store's compressed-chunk size
/// (`trace::store::CHUNK_ROWS` = 8 × this), so retained-mode chunk
/// seals happen at drain boundaries, inside the batch append, never
/// mid-record.
const RECORD_FLUSH_CHUNK: usize = 8_192;

/// One open connection.
struct Open<T> {
    node: NodeId,
    sid: SessionId,
    idle: IdleTracker,
    /// The owner's tag for this connection.
    tag: T,
}

/// A hasher for [`NodeId`] keys: one multiply by an odd constant (the
/// 64-bit golden ratio), which spreads sequential ids over both the
/// bucket index (low bits) and the control byte (top bits) of the
/// table. Node ids are not adversarial, so SipHash's collision
/// resistance buys nothing on a lookup made for every received frame.
#[derive(Default)]
struct NodeIdHasher(u64);

impl Hasher for NodeIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }
}

/// The recording half of the measurement node (see the module docs).
///
/// Each open connection carries a caller tag `T`: the hybrid engine's
/// session slot, `()` for the actor. Dropping the recorder drains the
/// records still buffered, so the sink has seen the complete stream once
/// its owner is gone; sessions still open then never see `on_close`.
pub struct Recorder<T: Copy> {
    max_connections: usize,
    /// Next session id. Ids are dense from 0, which is what indexes a
    /// retained trace's `connections` vector.
    next_sid: u64,
    /// Open connections, dense and unordered: a close moves the last
    /// connection into the freed position.
    ///
    /// Every received frame and idle check looks its sender up here,
    /// through `index`: one multiply-hash probe where a binary search
    /// over hundreds of open connections takes ten dependent steps.
    open: Vec<Open<T>>,
    /// Position in `open` of each open node's connection.
    index: HashMap<NodeId, u32, BuildHasherDefault<NodeIdHasher>>,
    /// The open nodes with their tags, sorted by node id: the forward
    /// fan-out's target order, walked by [`Self::open_at`]. Node ids are
    /// handed out monotonically and never reused, but connect latencies
    /// differ, so a later-spawned peer can be admitted first and an
    /// insert can land mid-list. Admits and closes are rare next to
    /// lookups, so they pay the shift.
    by_node: Vec<(NodeId, T)>,
    /// Arrival-ordered records not yet delivered to the sink. Recording
    /// appends here without taking any lock; [`Self::flush`] hands the
    /// whole buffer to the sink under one lock acquisition.
    pending: Vec<MessageRecord>,
    /// Wire length of each record still in `pending` (parallel vector).
    pending_wire: Vec<u32>,
    sink: SharedSink,
    /// Registry the drain boundary reports into: the campaign's registry
    /// under a campaign, a private one for standalone use. Relaxed
    /// counter bumps once per drain, never per message.
    registry: Arc<Registry>,
}

impl<T: Copy> Recorder<T> {
    /// A recorder with `max_connections` slots, delivering its record
    /// stream to `sink` and its drain telemetry to `registry`.
    pub fn new(max_connections: usize, sink: SharedSink, registry: Arc<Registry>) -> Self {
        Recorder {
            max_connections,
            next_sid: 0,
            open: Vec::new(),
            index: HashMap::default(),
            by_node: Vec::new(),
            pending: Vec::with_capacity(RECORD_FLUSH_CHUNK),
            pending_wire: Vec::with_capacity(RECORD_FLUSH_CHUNK),
            sink,
            registry,
        }
    }

    /// Whether every slot is taken, so the next connect is refused.
    /// The hybrid engine also asks at each arrival, before it plans the
    /// session: with [`Self::probe_deadline`] it tells there whether
    /// the arrival's connect is certain to be refused.
    pub fn is_full(&self) -> bool {
        self.open.len() >= self.max_connections
    }

    /// Admit `node`'s connection at `at`: hand it the next session id,
    /// deliver its connection record, and start its idle clock. The
    /// caller checks [`Self::is_full`] first. A node that is already
    /// open is re-admitted under the new session; its old session never
    /// sees `on_close`.
    pub fn admit(
        &mut self,
        node: NodeId,
        tag: T,
        at: SimTime,
        addr: Ipv4Addr,
        user_agent: String,
        ultrapeer: bool,
    ) {
        debug_assert!(!self.is_full(), "admitted past the cap");
        let sid = SessionId(self.next_sid);
        self.next_sid += 1;
        self.sink.lock().on_connect(ConnectionRecord {
            id: sid,
            addr,
            user_agent,
            ultrapeer,
            start: at,
            end: None,
            closed_by_probe: false,
        });
        let conn = Open {
            node,
            sid,
            idle: IdleTracker::new(at),
            tag,
        };
        match self.by_node.binary_search_by_key(&node, |&(n, _)| n) {
            Ok(j) => {
                self.by_node[j].1 = tag;
                let i = self.index[&node] as usize;
                self.open[i] = conn;
            }
            Err(j) => {
                self.by_node.insert(j, (node, tag));
                self.index.insert(node, self.open.len() as u32);
                self.open.push(conn);
            }
        }
    }

    fn find(&self, node: NodeId) -> Option<usize> {
        self.index.get(&node).map(|&i| i as usize)
    }

    /// Traffic from `node` arrived at `at`: restart its idle clock and
    /// return its session, or `None` when no connection from `node` is
    /// open (a straggler after close, which goes unrecorded).
    pub fn receive(&mut self, node: NodeId, at: SimTime) -> Option<SessionId> {
        let i = self.find(node)?;
        let conn = &mut self.open[i];
        conn.idle.on_receive(at);
        Some(conn.sid)
    }

    /// Whether a connection from `node` is open.
    pub fn is_open(&self, node: NodeId) -> bool {
        self.find(node).is_some()
    }

    /// The `i`-th open connection in ascending node order, with its tag;
    /// `None` past the last. Walking by index lets the fan-out loop draw
    /// a latency and a schedule key per target while it walks.
    pub fn open_at(&self, i: usize) -> Option<(NodeId, T)> {
        self.by_node.get(i).copied()
    }

    /// The deadline of `node`'s unanswered probe, at which its idle
    /// check closes the connection; `None` when no probe is outstanding
    /// or no connection from `node` is open.
    pub fn probe_deadline(&self, node: NodeId) -> Option<SimTime> {
        self.open[self.find(node)?].idle.probe_deadline()
    }

    /// Evaluate `node`'s idle clock at `at` (§3.2), with the
    /// connection's tag; `None` when the connection is already closed.
    pub fn idle_check(&mut self, node: NodeId, at: SimTime) -> Option<(IdleAction, T)> {
        let i = self.find(node)?;
        let conn = &mut self.open[i];
        Some((conn.idle.check(at), conn.tag))
    }

    /// Buffer one received message and its wire length, draining when
    /// the buffer is full.
    pub fn record(&mut self, rec: MessageRecord, wire: u32) {
        self.pending.push(rec);
        self.pending_wire.push(wire);
        if self.pending.len() >= RECORD_FLUSH_CHUNK {
            self.flush();
        }
    }

    /// Close `node`'s connection at `end` (`by_probe` per the §3.2 idle
    /// policy); nothing happens when it is not open. Drains before the
    /// close, so every record of the session reaches the sink before its
    /// `on_close`.
    pub fn close(&mut self, node: NodeId, end: SimTime, by_probe: bool) {
        if let Some(i) = self.index.remove(&node) {
            let i = i as usize;
            let sid = self.open.swap_remove(i).sid;
            if let Some(moved) = self.open.get(i) {
                self.index.insert(moved.node, i as u32);
            }
            let j = self
                .by_node
                .binary_search_by_key(&node, |&(n, _)| n)
                .expect("an open node is in the sorted list");
            self.by_node.remove(j);
            // Drain-then-close in two acquisitions: only this recorder
            // writes to its sink, so nothing can interleave, and the
            // drain goes through the one accounting point.
            self.flush();
            self.sink.lock().on_close(sid, end, by_probe);
        }
    }

    /// Drain the buffered records into the sink: one lock acquisition,
    /// one batch, and the drain's counters.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let n = self.pending.len() as u64;
        let virtual_secs = self.pending.last().map_or(0.0, |r| r.at.as_secs_f64());
        self.sink.lock().on_batch(&self.pending, &self.pending_wire);
        self.pending.clear();
        self.pending_wire.clear();
        self.registry.incr(Counter::SinkBatches);
        self.registry.add(Counter::SinkRecords, n);
        telemetry::progress::record_batch(n, virtual_secs);
    }

    /// The registry drains report into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

impl<T: Copy> Drop for Recorder<T> {
    /// Final drain: records buffered after the last session close (e.g.
    /// traffic on connections still open at simulation end) reach the
    /// sink when the recorder's owner is dropped.
    fn drop(&mut self) {
        self.flush();
    }
}

/// The recorded form of a received payload.
fn recorded(payload: &Payload) -> RecordedPayload {
    match payload {
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
    }
}

/// The measurement ultrapeer actor.
pub struct MeasurementPeer {
    cfg: CollectorConfig,
    recorder: Recorder<()>,
    routing: RoutingTable,
    rng: StdRng,
    /// Lane-local schedule counter: the `key` half of the `(lane, key)`
    /// ordering pair on every send and timer this actor schedules. Keyed
    /// scheduling and the one fixed [`LINK_DELAY`] make the collector's
    /// event timing a pure function of its inbound stream — the contract
    /// the hybrid-fidelity engine replays.
    next_key: u64,
}

impl MeasurementPeer {
    /// Create a measurement peer delivering its record stream to `sink`
    /// (a [`crate::Trace`] to retain it, a streaming aggregator, or a
    /// [`crate::Fanout`] of both) and its drain telemetry to `registry`
    /// (the campaign's registry, or a fresh one for standalone use).
    pub fn new(cfg: CollectorConfig, sink: SharedSink, registry: Arc<Registry>) -> Self {
        MeasurementPeer {
            recorder: Recorder::new(cfg.max_connections, sink, registry),
            routing: RoutingTable::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
            next_key: 0,
            cfg,
        }
    }

    fn take_key(&mut self) -> u64 {
        let k = self.next_key;
        self.next_key += 1;
        k
    }

    fn send_message(&mut self, ctx: &mut Context<'_, NetMsg>, to: NodeId, msg: Message) {
        let frame = self.cfg.transport.frame(msg);
        self.send_net(ctx, to, frame);
    }

    fn send_net(&mut self, ctx: &mut Context<'_, NetMsg>, to: NodeId, msg: NetMsg) {
        let key = self.take_key();
        let lane = ctx.id().0;
        ctx.send_after_keyed(to, msg, LINK_DELAY, lane, key);
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
        self.recorder.record(
            MessageRecord {
                session: sid,
                guid: msg.guid,
                at: now,
                hops: msg.hops,
                ttl: msg.ttl,
                payload: recorded(&msg.payload),
            },
            encoded_len(&msg) as u32,
        );
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
                        addr: COLLECTOR_ADDR,
                        shared_files: 0,
                        shared_kb: 0,
                    }),
                );
                let pong = pong.first_hop();
                self.send_message(ctx, from, pong);
            }
            Payload::Query(_) => {
                // Duplicates are suppressed by the routing table. The
                // forwarded copy is built once, outside the target loop.
                if self.routing.insert(msg.guid, from, now) {
                    if let Some(fwd) = msg.forwarded() {
                        let transport = self.cfg.transport;
                        let lane = ctx.id().0;
                        let mut sent = 0;
                        let mut idx = 0;
                        while sent < FORWARD_FANOUT {
                            let Some((t, ())) = self.recorder.open_at(idx) else {
                                break;
                            };
                            idx += 1;
                            if t == from {
                                continue;
                            }
                            let key = self.take_key();
                            let frame = transport.frame(fwd.clone());
                            ctx.send_after_keyed(t, frame, LINK_DELAY, lane, key);
                            sent += 1;
                        }
                    }
                }
            }
            Payload::QueryHit(_) => {
                if let Some(next) = self.routing.reverse_route(&msg.guid) {
                    if next != from && self.recorder.is_open(next) {
                        if let Some(fwd) = msg.forwarded() {
                            self.send_message(ctx, next, fwd);
                        }
                    }
                }
            }
            Payload::Pong(_) => {}
            Payload::Bye(_) => {
                // Graceful close: the peer will tear down next.
                self.recorder.close(from, now, false);
            }
        }
    }
}

impl Actor for MeasurementPeer {
    type Msg = NetMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, NetMsg>, from: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::Connect { addr, handshake } => {
                if self.recorder.is_full() {
                    self.send_net(ctx, from, NetMsg::ConnectReply(HandshakeResponse::Busy));
                    return;
                }
                let Ok(parsed) = Handshake::parse(&handshake) else {
                    self.send_net(ctx, from, NetMsg::ConnectReply(HandshakeResponse::Busy));
                    return;
                };
                self.recorder.admit(
                    from,
                    (),
                    ctx.now(),
                    addr,
                    parsed.user_agent,
                    parsed.ultrapeer,
                );
                self.send_net(ctx, from, NetMsg::ConnectReply(HandshakeResponse::Accept));
                // Arm the idle-check chain for this connection.
                self.arm_idle_timer(ctx, gnutella::peerlink::IDLE_PROBE_AFTER, u64::from(from.0));
            }
            NetMsg::ConnectReply(_) => {
                // The measurement peer never dials out; ignore.
            }
            NetMsg::Frame(m) => {
                // A frame after close is a TCP straggler: unrecorded.
                if let Some(sid) = self.recorder.receive(from, ctx.now()) {
                    self.handle_gnutella(ctx, from, m, sid);
                }
            }
            NetMsg::Data(mut bytes) => {
                let Some(sid) = self.recorder.receive(from, ctx.now()) else {
                    return; // data after close — TCP stragglers
                };
                // Decode until the buffer is used up or a frame fails to
                // decode; the rest of the buffer is dropped.
                while let Ok(m) = decode_message(&mut bytes) {
                    self.handle_gnutella(ctx, from, m, sid);
                }
            }
            NetMsg::Disconnect => {
                self.recorder.close(from, ctx.now(), false);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, NetMsg>, tag: u64) {
        let node = NodeId(tag as u32);
        let now = ctx.now();
        let Some((action, ())) = self.recorder.idle_check(node, now) else {
            return; // connection already gone
        };
        match action {
            IdleAction::CheckAt(deadline) => {
                self.arm_idle_timer(ctx, deadline - now, tag);
            }
            IdleAction::SendProbe(deadline) => {
                let ping =
                    Message::originate(Guid::random(&mut self.rng), Payload::Ping).first_hop();
                self.send_message(ctx, node, ping);
                self.arm_idle_timer(ctx, deadline - now, tag);
            }
            IdleAction::Close => {
                self.send_net(ctx, node, NetMsg::Disconnect);
                self.recorder.close(node, now, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;
    use crate::store::Trace;
    use gnutella::wire::encode_message;
    use parking_lot::Mutex;
    use simnet::{LatencyModel, SimDuration, Simulator};

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
            ctx.send(
                self.server,
                NetMsg::Connect {
                    addr,
                    handshake: hs,
                },
                &LatencyModel::Fixed { millis: 10 },
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
                ctx.send(
                    self.server,
                    NetMsg::Disconnect,
                    &LatencyModel::Fixed { millis: 5 },
                );
                return;
            }
            let (_, frames) = &self.script[tag as usize];
            let mut buf = bytes::BytesMut::new();
            for m in frames {
                buf.extend_from_slice(&encode_message(m));
            }
            ctx.send(
                self.server,
                NetMsg::Data(buf.freeze()),
                &LatencyModel::Fixed { millis: 20 },
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
        let trace = Arc::new(Mutex::new(Trace::default()));
        let mut sim: Simulator<NetMsg> = Simulator::new(42);
        let peer = MeasurementPeer::new(
            CollectorConfig::default(),
            trace.clone(),
            Arc::new(Registry::new()),
        );
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
            .filter(|m| m.hops == 1 && matches!(m.payload, RecordedPayload::Query { .. }))
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
        sim.add_node(Box::new(client));
        sim.run_until(SimTime::from_secs(120));

        let tr = trace.lock();
        let c = &tr.connections[0];
        assert!(c.closed_by_probe, "connection should be probe-closed");
        // Closed ≈ 30 s after the last traffic (handshake), per §3.2.
        let dur = c.end.unwrap().since(c.start).as_secs_f64();
        assert!((29.0..35.0).contains(&dur), "duration {dur}");
        drop(tr);
        // The client received the probe PING before the close.
        assert!(received
            .lock()
            .iter()
            .any(|m| matches!(m.payload, Payload::Ping)));
    }

    #[test]
    fn capacity_cap_rejects_with_busy() {
        let trace = Arc::new(Mutex::new(Trace::default()));
        let mut sim: Simulator<NetMsg> = Simulator::new(7);
        let cfg = CollectorConfig {
            max_connections: 2,
            ..CollectorConfig::default()
        };
        let server = sim.add_node(Box::new(MeasurementPeer::new(
            cfg,
            trace.clone(),
            Arc::new(Registry::new()),
        )));
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

    /// One sink call, as [`LogSink`] saw it.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Connect(SessionId),
        /// The session of each record in the batch.
        Batch(Vec<SessionId>),
        Close(SessionId),
    }

    /// A sink that logs its calls in order.
    #[derive(Default)]
    struct LogSink(Vec<Call>);

    impl TraceSink for LogSink {
        fn on_connect(&mut self, rec: ConnectionRecord) {
            self.0.push(Call::Connect(rec.id));
        }

        fn on_batch(&mut self, records: &[MessageRecord], wire_lens: &[u32]) {
            assert_eq!(records.len(), wire_lens.len());
            self.0
                .push(Call::Batch(records.iter().map(|r| r.session).collect()));
        }

        fn on_close(&mut self, id: SessionId, _end: SimTime, _by_probe: bool) {
            self.0.push(Call::Close(id));
        }
    }

    fn logged_recorder(max_connections: usize) -> (Recorder<u32>, Arc<Mutex<LogSink>>) {
        let log = Arc::new(Mutex::new(LogSink::default()));
        let rec = Recorder::new(max_connections, log.clone(), Arc::new(Registry::new()));
        (rec, log)
    }

    /// Admit `node`, tagged `10 × node`.
    fn admit(rec: &mut Recorder<u32>, node: u32, at: SimTime) {
        let addr = Ipv4Addr::new(24, 0, 0, node as u8);
        rec.admit(NodeId(node), node * 10, at, addr, "X/1".into(), false);
    }

    fn ping(session: SessionId, at: SimTime) -> MessageRecord {
        MessageRecord {
            session,
            guid: Guid([1; 16]),
            at,
            hops: 1,
            ttl: 6,
            payload: RecordedPayload::Ping,
        }
    }

    /// The [`crate::sink`] delivery contract, driven on a recorder
    /// directly: session ids are dense from 0 in admission order, the
    /// cap holds, open connections walk in ascending node order after
    /// out-of-order admits, and every record of a session reaches the
    /// sink before that session's `on_close`.
    #[test]
    fn recorder_keeps_the_sink_contract() {
        let t = SimTime::from_secs;
        let (mut rec, log) = logged_recorder(3);
        for (i, node) in [7, 3, 5].into_iter().enumerate() {
            assert!(!rec.is_full());
            admit(&mut rec, node, t(i as u64));
        }
        assert!(rec.is_full(), "three admits fill three slots");
        let walk: Vec<_> = (0..).map_while(|i| rec.open_at(i)).collect();
        assert_eq!(walk, [(NodeId(3), 30), (NodeId(5), 50), (NodeId(7), 70)]);
        let [s7, s3, s5] = [7, 3, 5].map(|n| rec.receive(NodeId(n), t(10)).unwrap());
        assert_eq!([s7, s3, s5], [SessionId(0), SessionId(1), SessionId(2)]);
        assert_eq!(rec.receive(NodeId(4), t(10)), None, "never admitted");

        for k in 0..3 {
            rec.record(ping(s7, t(11 + k)), 23);
            rec.record(ping(s5, t(11 + k)), 23);
        }
        rec.close(NodeId(5), t(20), false);
        assert!(!rec.is_open(NodeId(5)) && !rec.is_full());
        rec.close(NodeId(5), t(21), true); // already closed: nothing happens
        admit(&mut rec, 9, t(22));
        let s9 = rec.receive(NodeId(9), t(23)).unwrap();
        rec.record(ping(s9, t(23)), 23);
        rec.close(NodeId(7), t(24), true);
        drop(rec);

        assert_eq!(
            log.lock().0,
            [
                Call::Connect(s7),
                Call::Connect(s3),
                Call::Connect(s5),
                Call::Batch(vec![s7, s5, s7, s5, s7, s5]),
                Call::Close(s5),
                Call::Connect(SessionId(3)),
                Call::Batch(vec![SessionId(3)]),
                Call::Close(s7),
            ]
        );
    }

    /// A full buffer drains at exactly 8 192 records, and records still
    /// buffered when the recorder is dropped reach the sink, without an
    /// `on_close` for the session that is still open.
    #[test]
    fn recorder_drains_a_full_buffer_and_at_drop() {
        let t = SimTime::from_secs;
        let (mut rec, log) = logged_recorder(1);
        admit(&mut rec, 1, t(0));
        let sid = rec.receive(NodeId(1), t(1)).unwrap();
        for _ in 1..RECORD_FLUSH_CHUNK {
            rec.record(ping(sid, t(1)), 23);
        }
        assert_eq!(log.lock().0, [Call::Connect(sid)], "drained early");
        rec.record(ping(sid, t(1)), 23);
        assert_eq!(
            log.lock().0.last(),
            Some(&Call::Batch(vec![sid; RECORD_FLUSH_CHUNK]))
        );
        rec.record(ping(sid, t(2)), 23);
        rec.record(ping(sid, t(3)), 23);
        let registry = Arc::clone(rec.registry());
        drop(rec);
        assert_eq!(
            log.lock().0,
            [
                Call::Connect(sid),
                Call::Batch(vec![sid; RECORD_FLUSH_CHUNK]),
                Call::Batch(vec![sid; 2]),
            ]
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter(Counter::SinkBatches), 2);
        assert_eq!(
            snap.counter(Counter::SinkRecords),
            RECORD_FLUSH_CHUNK as u64 + 2
        );
    }
}
