//! Property tests for the Gnutella protocol layer.

use gnutella::message::{Bye, Message, Payload, Pong, Query, QueryHit, QueryHitResult};
use gnutella::net::{NetMsg, Transport};
use gnutella::wire::{decode_message, encode_message, encoded_len};
use gnutella::{Guid, Handshake, QueryKey, RoutingTable};
use proptest::prelude::*;
use simnet::{NodeId, SimDuration, SimTime};

fn arb_guid() -> impl Strategy<Value = Guid> {
    any::<[u8; 16]>().prop_map(Guid)
}

/// NUL-free query text (NUL is the wire delimiter, never legal in keywords).
fn arb_text() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 äöü.]{0,40}"
}

/// Every payload variant, including SHA1-bearing queries and multi-result
/// query hits — the cases where `encoded_len` must track variable-size
/// extension blocks exactly.
fn arb_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        Just(Payload::Ping),
        (any::<u16>(), any::<[u8; 4]>(), any::<u32>(), any::<u32>()).prop_map(
            |(port, ip, files, kb)| Payload::Pong(Pong {
                port,
                addr: ip.into(),
                shared_files: files,
                shared_kb: kb,
            })
        ),
        (
            any::<u16>(),
            arb_text(),
            proptest::option::of("[A-Z2-7]{8,32}")
        )
            .prop_map(|(speed, text, sha1)| Payload::Query(Query {
                min_speed: speed,
                text: text.into(),
                sha1: sha1.map(|s| format!("urn:sha1:{s}")),
            })),
        (
            any::<u16>(),
            any::<[u8; 4]>(),
            any::<u32>(),
            proptest::collection::vec((any::<u32>(), any::<u32>(), "[a-z0-9 .]{1,24}"), 0..6),
            arb_guid()
        )
            .prop_map(|(port, ip, speed, results, servent)| {
                Payload::QueryHit(QueryHit {
                    port,
                    addr: ip.into(),
                    speed,
                    results: results
                        .into_iter()
                        .map(|(index, size, name)| QueryHitResult { index, size, name })
                        .collect(),
                    servent,
                })
            }),
        (any::<u16>(), "[a-z ]{0,20}")
            .prop_map(|(code, reason)| Payload::Bye(Bye { code, reason })),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    (arb_guid(), 0u8..8, 0u8..8, arb_payload()).prop_map(|(guid, ttl, hops, payload)| Message {
        guid,
        ttl,
        hops,
        payload,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn query_key_is_canonical(words in proptest::collection::vec("[a-zA-Z0-9]{1,10}", 0..8)) {
        let text = words.join(" ");
        let key = QueryKey::new(&text);
        // Idempotent: normalizing the canonical form changes nothing.
        prop_assert_eq!(QueryKey::new(key.as_str()), key.clone());
        // Keyword count never exceeds the input word count.
        prop_assert!(key.as_str().split_whitespace().count() <= words.len());
        // Order invariance.
        let mut rev = words.clone();
        rev.reverse();
        prop_assert_eq!(QueryKey::new(&rev.join(" ")), key);
    }

    #[test]
    fn handshake_render_parse_round_trip(agent in "[A-Za-z][A-Za-z0-9./-]{0,30}", up in any::<bool>()) {
        let h = Handshake::new(agent, up);
        let parsed = Handshake::parse(&h.render()).unwrap();
        prop_assert_eq!(parsed, h);
    }

    #[test]
    fn ttl_hops_sum_never_grows(ttl in 1u8..8, hops in 0u8..8) {
        let m = Message {
            guid: Guid([1; 16]),
            ttl,
            hops,
            payload: Payload::Query(Query::keywords("x y")),
        };
        let budget = u32::from(ttl) + u32::from(hops);
        let mut cur = m;
        while let Some(next) = cur.forwarded() {
            prop_assert!(u32::from(next.ttl) + u32::from(next.hops) <= budget);
            prop_assert_eq!(next.hops, cur.hops + 1);
            cur = next;
        }
        prop_assert!(cur.ttl <= 1);
    }

    #[test]
    fn routing_table_first_writer_wins(
        inserts in proptest::collection::vec((0u8..20, 0u32..5, 0u64..500), 1..100),
    ) {
        let mut rt = RoutingTable::with_expiry(SimDuration::from_secs(1_000_000));
        let mut expected: std::collections::HashMap<u8, u32> = Default::default();
        let mut t = 0u64;
        for (g, node, dt) in inserts {
            t += dt;
            let fresh = rt.insert(Guid([g; 16]), NodeId(node), SimTime::from_secs(t));
            let e = expected.entry(g);
            match e {
                std::collections::hash_map::Entry::Vacant(v) => {
                    prop_assert!(fresh);
                    v.insert(node);
                }
                std::collections::hash_map::Entry::Occupied(_) => {
                    prop_assert!(!fresh);
                }
            }
        }
        for (g, node) in expected {
            prop_assert_eq!(rt.reverse_route(&Guid([g; 16])), Some(NodeId(node)));
        }
    }

    #[test]
    fn encoded_len_matches_encoder_exactly(msg in arb_message()) {
        // The allocation-free size accounting must agree with the real
        // encoder on every message the protocol can express.
        let encoded = encode_message(&msg);
        prop_assert_eq!(encoded.len(), encoded_len(&msg));
        // The header always contributes its fixed 23 bytes.
        prop_assert!(encoded_len(&msg) >= 23);
    }

    #[test]
    fn typed_and_byte_frames_carry_the_same_message(msg in arb_message()) {
        // Transport equivalence: a typed frame IS the message; a byte
        // frame decodes back to it with nothing left over.
        match Transport::Typed.frame(msg.clone()) {
            NetMsg::Frame(m) => prop_assert_eq!(&m, &msg),
            other => prop_assert!(false, "typed transport produced {other:?}"),
        }
        match Transport::Bytes.frame(msg.clone()) {
            NetMsg::Data(mut bytes) => {
                prop_assert_eq!(bytes.len(), encoded_len(&msg));
                let decoded = decode_message(&mut bytes).unwrap();
                prop_assert_eq!(decoded, msg);
                prop_assert!(bytes.is_empty());
            }
            other => prop_assert!(false, "byte transport produced {other:?}"),
        }
    }

    #[test]
    fn conformance_check_accepts_every_valid_frame(msg in arb_message()) {
        // The sampled in-flight round-trip check must never fire on a
        // well-formed message (it panics on divergence).
        gnutella::wire::conformance::check_frame(&msg);
    }

    #[test]
    fn routing_table_expiry_is_complete(n in 1usize..200) {
        let mut rt = RoutingTable::with_expiry(SimDuration::from_secs(5));
        for i in 0..n {
            rt.insert(Guid([(i % 251) as u8; 16]), NodeId(0), SimTime::from_secs(i as u64));
        }
        // An insert far past every other one sweeps them all.
        rt.insert(Guid([255; 16]), NodeId(0), SimTime::from_secs(n as u64 + 10));
        prop_assert_eq!(rt.counters().1, n as u64);
    }
}
