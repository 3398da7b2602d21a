//! Property tests for the analysis pipeline over arbitrary traces.

use analysis::analyze_retained;
use geoip::GeoDb;
use gnutella::Guid;
use proptest::prelude::*;
use simnet::SimTime;
use std::net::Ipv4Addr;
use trace::{ConnectionRecord, MessageRecord, RecordedPayload, SessionId, Trace};

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

/// Traces whose sessions have all finished, with messages of every kind
/// at any hop count spread over the sessions in no particular time order.
fn arb_finished_trace() -> impl Strategy<Value = Trace> {
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
    let msgs = proptest::collection::vec(
        (
            any::<[u8; 16]>(),
            0u8..8,
            0u8..8,
            0u64..200_000,
            arb_payload(),
        ),
        0..40,
    );
    (conns, msgs).prop_map(|(conns, msgs)| {
        let n = conns.len() as u64;
        let connections = conns
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Retained analysis reconstructs every session exhaustively: each
    /// hop-1 query lands in exactly one finished session, so the Table 2
    /// `raw_queries` counts it once.
    #[test]
    fn session_reconstruction_is_exhaustive(trace in arb_finished_trace()) {
        let r = analyze_retained(&trace, &GeoDb::synthetic());
        let hop1 = trace.messages.iter().filter(|m| m.hops == 1 && matches!(m.payload, RecordedPayload::Query { .. })).count() as u64;
        prop_assert_eq!(r.ft.report.raw_queries, hop1);
        prop_assert_eq!(r.ft.report.raw_sessions, trace.connections.len() as u64);
        prop_assert_eq!(r.ft.report.unfinished_sessions, 0);
        prop_assert_eq!(r.sessions_seen, trace.connections.len() as u64);
    }
}
