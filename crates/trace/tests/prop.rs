//! Property tests for trace records, the chunked store and the
//! collector's recorder.

use gnutella::peerlink::IdleTracker;
use gnutella::Guid;
use parking_lot::Mutex;
use proptest::prelude::*;
use simnet::{NodeId, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use telemetry::Registry;
use trace::{
    ConnectionRecord, MessageRecord, RecordedPayload, Recorder, SessionId, Trace, TraceSink,
    TraceStats,
};

fn arb_payload() -> impl Strategy<Value = RecordedPayload> {
    prop_oneof![
        Just(RecordedPayload::Ping),
        Just(RecordedPayload::Bye),
        (any::<[u8; 4]>(), any::<u32>()).prop_map(|(ip, files)| RecordedPayload::Pong {
            addr: ip.into(),
            shared_files: files,
        }),
        ("[a-z0-9 ]{0,24}", any::<bool>()).prop_map(|(text, sha1)| RecordedPayload::Query {
            text: text.into(),
            sha1,
        }),
        (any::<[u8; 4]>(), any::<u8>()).prop_map(|(ip, results)| RecordedPayload::QueryHit {
            addr: ip.into(),
            results,
        }),
    ]
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    let conns = proptest::collection::vec(
        (
            any::<[u8; 4]>(),
            any::<bool>(),
            0u64..100_000,
            1u64..10_000,
            any::<bool>(),
        ),
        1..12,
    );
    (
        conns,
        proptest::collection::vec(
            (
                any::<[u8; 16]>(),
                0u8..8,
                0u8..8,
                0u64..200_000,
                arb_payload(),
            ),
            0..40,
        ),
    )
        .prop_map(|(conns, msgs)| {
            let n = conns.len() as u64;
            let connections: Vec<ConnectionRecord> = conns
                .into_iter()
                .enumerate()
                .map(|(i, (ip, up, start, dur, probe))| ConnectionRecord {
                    id: SessionId(i as u64),
                    addr: Ipv4Addr::from(ip),
                    user_agent: format!("Agent/{i}"),
                    ultrapeer: up,
                    start: SimTime::from_secs(start),
                    end: Some(SimTime::from_secs(start + dur)),
                    closed_by_probe: probe,
                })
                .collect();
            let messages = msgs
                .into_iter()
                .enumerate()
                .map(|(i, (guid, hops, ttl, at, payload))| MessageRecord {
                    session: SessionId(i as u64 % n),
                    guid: Guid(guid),
                    at: SimTime::from_secs(at),
                    hops,
                    ttl,
                    payload,
                })
                .collect();
            Trace {
                connections,
                messages,
                wire_bytes: 0,
            }
        })
}

/// Adversarial message columns for the chunk codec: tied timestamps,
/// saturated hops/TTL, raw (non-collector) GUIDs, query texts interned
/// fresh per case, and extreme PONG counters.
fn arb_adversarial_records() -> impl Strategy<Value = Vec<MessageRecord>> {
    let payload = prop_oneof![
        Just(RecordedPayload::Ping),
        Just(RecordedPayload::Bye),
        (
            any::<[u8; 4]>(),
            prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()]
        )
            .prop_map(|(ip, files)| RecordedPayload::Pong {
                addr: ip.into(),
                shared_files: files,
            }),
        ("[a-z0-9 ]{0,24}", any::<u32>(), any::<bool>()).prop_map(|(text, salt, sha1)| {
            // Salted text: most cases intern a QueryId no chunk has
            // dictionary-coded before.
            RecordedPayload::Query {
                text: format!("{text} {salt}").as_str().into(),
                sha1,
            }
        }),
        (any::<[u8; 4]>(), any::<u8>()).prop_map(|(ip, results)| RecordedPayload::QueryHit {
            addr: ip.into(),
            results,
        }),
    ];
    proptest::collection::vec(
        (
            any::<[u8; 16]>(),
            prop_oneof![Just(0u8), Just(1u8), Just(255u8), any::<u8>()],
            prop_oneof![Just(0u8), Just(255u8), any::<u8>()],
            // Times from a tiny set → runs of exact ties (width-0 packs).
            prop_oneof![Just(0u64), Just(1u64), Just(86_400_000u64), 0u64..50],
            payload,
            any::<u32>(),
        ),
        0..120,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(
                |(i, (guid, hops, ttl, at_ms, payload, _wire))| MessageRecord {
                    session: SessionId(i as u64 % 7),
                    guid: Guid(guid),
                    at: SimTime::from_millis(at_ms),
                    hops,
                    ttl,
                    payload,
                },
            )
            .collect()
    })
}

/// One step of a recorder run, on one of a few node ids so that
/// re-admits, repeated closes and lookups of closed nodes are common.
#[derive(Debug, Clone)]
enum RecorderOp {
    Admit { node: u32, tag: u32 },
    Receive(u32),
    IdleCheck(u32),
    Close { node: u32, by_probe: bool },
}

fn arb_recorder_ops() -> impl Strategy<Value = Vec<(u64, RecorderOp)>> {
    let node = 0u32..12;
    let op = prop_oneof![
        (node.clone(), any::<u32>()).prop_map(|(node, tag)| RecorderOp::Admit { node, tag }),
        node.clone().prop_map(RecorderOp::Receive),
        node.clone().prop_map(RecorderOp::IdleCheck),
        (node, any::<bool>()).prop_map(|(node, by_probe)| RecorderOp::Close { node, by_probe }),
    ];
    // Each step advances the clock by up to 20 s, which spans the idle
    // policy's 15 s probe and close thresholds.
    proptest::collection::vec((0u64..20_000, op), 1..120)
}

/// The session ids a sink saw connect and close, in call order.
#[derive(Default)]
struct Lifecycle {
    connects: Vec<SessionId>,
    closes: Vec<SessionId>,
}

impl TraceSink for Lifecycle {
    fn on_connect(&mut self, rec: ConnectionRecord) {
        self.connects.push(rec.id);
    }

    fn on_batch(&mut self, _: &[MessageRecord], _: &[u32]) {}

    fn on_close(&mut self, id: SessionId, _: SimTime, _: bool) {
        self.closes.push(id);
    }
}

/// An open connection as the model holds it.
struct ModelConn {
    sid: SessionId,
    tag: u32,
    idle: IdleTracker,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// A recorder agrees with a `BTreeMap` model of its open connections
    /// after every step: the cap, which nodes are open, the session a
    /// receive returns, each idle check's action and tag, the fan-out
    /// walk in ascending node order, and session ids handed out densely
    /// in admission order.
    #[test]
    fn recorder_matches_a_sorted_map_model(
        cap in 1usize..8,
        ops in arb_recorder_ops(),
    ) {
        let log = Arc::new(Mutex::new(Lifecycle::default()));
        let mut rec: Recorder<u32> = Recorder::new(cap, log.clone(), Arc::new(Registry::new()));
        let mut model: BTreeMap<u32, ModelConn> = BTreeMap::new();
        let mut admitted = 0u64;
        let mut closed = Vec::new();
        let mut now = SimTime::ZERO;
        for (step_ms, op) in ops {
            now += SimDuration::from_millis(step_ms);
            match op {
                RecorderOp::Admit { node, tag } => {
                    // Callers check the cap first, and so does this run.
                    if rec.is_full() {
                        continue;
                    }
                    let addr = Ipv4Addr::from(node);
                    rec.admit(NodeId(node), tag, now, addr, format!("A/{node}"), false);
                    let sid = SessionId(admitted);
                    admitted += 1;
                    model.insert(node, ModelConn { sid, tag, idle: IdleTracker::new(now) });
                }
                RecorderOp::Receive(node) => {
                    let got = rec.receive(NodeId(node), now);
                    let want = model.get_mut(&node).map(|c| {
                        c.idle.on_receive(now);
                        c.sid
                    });
                    prop_assert_eq!(got, want);
                }
                RecorderOp::IdleCheck(node) => {
                    let got = rec.idle_check(NodeId(node), now);
                    let want = model.get_mut(&node).map(|c| (c.idle.check(now), c.tag));
                    prop_assert_eq!(got, want);
                }
                RecorderOp::Close { node, by_probe } => {
                    rec.close(NodeId(node), now, by_probe);
                    if let Some(c) = model.remove(&node) {
                        closed.push(c.sid);
                    }
                }
            }
            prop_assert_eq!(rec.is_full(), model.len() >= cap);
            for node in 0..12 {
                prop_assert_eq!(rec.is_open(NodeId(node)), model.contains_key(&node));
            }
            let walk: Vec<(NodeId, u32)> = (0..).map_while(|i| rec.open_at(i)).collect();
            let want: Vec<(NodeId, u32)> =
                model.iter().map(|(&n, c)| (NodeId(n), c.tag)).collect();
            prop_assert_eq!(walk, want);
        }
        drop(rec);
        let log = log.lock();
        let dense: Vec<SessionId> = (0..admitted).map(SessionId).collect();
        prop_assert_eq!(&log.connects, &dense);
        prop_assert_eq!(&log.closes, &closed);
    }

    /// The chunked store must agree with the flat (never-sealing) store
    /// on every access path, for any chunk size, under adversarial
    /// column values.
    #[test]
    fn chunked_store_matches_flat_on_adversarial_columns(
        records in arb_adversarial_records(),
        chunk_rows in 1usize..40,
    ) {
        let wire_lens: Vec<u32> = (0..records.len()).map(|i| 23 + i as u32).collect();
        let mut flat = trace::MessageColumns::default();
        let mut chunked = trace::MessageColumns::default();
        chunked.configure_chunks(chunk_rows);
        flat.push_batch(&records, &wire_lens);
        chunked.push_batch(&records, &wire_lens);

        prop_assert_eq!(&chunked, &flat);
        prop_assert_eq!(chunked.len(), records.len());
        // Sequential decode matches the records pushed.
        let decoded: Vec<MessageRecord> = chunked.iter().collect();
        prop_assert_eq!(&decoded, &records);
        // The cursor returns every row with its wire length.
        let mut cur = chunked.cursor();
        for (r, w) in records.iter().zip(&wire_lens) {
            prop_assert_eq!(cur.next_with_wire(), Some((*r, *w)));
        }
        prop_assert_eq!(cur.next_with_wire(), None);
        // The selective query scan sees exactly the one-hop queries.
        let mut seen = Vec::new();
        chunked.for_each_one_hop_query(|sid, at, text, sha1| {
            seen.push((sid, at, text, sha1));
        });
        let expected: Vec<_> = records
            .iter()
            .filter_map(|m| match m.payload {
                RecordedPayload::Query { text, sha1 } if m.hops == 1 => {
                    Some((m.session, m.at, text, sha1))
                }
                _ => None,
            })
            .collect();
        prop_assert_eq!(seen, expected);
    }

    #[test]
    fn stats_counts_are_conservative(trace in arb_trace()) {
        let mut s = TraceStats::default();
        for c in &trace.connections {
            s.on_connect(c.clone());
        }
        let records: Vec<MessageRecord> = trace.messages.iter().collect();
        s.on_batch(&records, &vec![0; records.len()]);
        for c in &trace.connections {
            if let Some(end) = c.end {
                s.on_close(c.id, end, c.closed_by_probe);
            }
        }
        let total = s.query_messages + s.queryhit_messages + s.ping_messages + s.pong_messages;
        // BYE messages are the only uncounted kind.
        prop_assert!(total <= trace.messages.len() as u64);
        prop_assert!(s.hop1_queries <= s.query_messages);
        prop_assert_eq!(s.direct_connections, trace.connections.len() as u64);
        prop_assert!(s.ultrapeer_connections <= s.direct_connections);
    }
}
