//! Property-based tests over cross-crate invariants.

use gnutella::message::{Bye, Message, Payload, Pong, Query, QueryHit, QueryHitResult};
use gnutella::wire::{decode_message, encode_message};
use gnutella::{Guid, QueryKey};
use proptest::prelude::*;
use simnet::{EventQueue, SimTime};
use stats::dist::{BodyTail, Continuous, Lognormal, Pareto, Weibull};
use stats::Ecdf;

// ---------- wire codec ----------------------------------------------------

fn arb_guid() -> impl Strategy<Value = Guid> {
    any::<[u8; 16]>().prop_map(Guid)
}

fn arb_text() -> impl Strategy<Value = String> {
    // NUL-free strings (NUL is the wire delimiter, never legal in keywords).
    "[a-zA-Z0-9 äöü.]{0,40}"
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wire_round_trip(guid in arb_guid(), ttl in 0u8..8, hops in 0u8..8, payload in arb_payload()) {
        let msg = Message { guid, ttl, hops, payload };
        let mut encoded = encode_message(&msg);
        let decoded = decode_message(&mut encoded).unwrap();
        prop_assert_eq!(decoded, msg);
        prop_assert!(encoded.is_empty());
    }

    #[test]
    fn wire_concatenation_preserves_order(msgs in proptest::collection::vec(
        (arb_guid(), arb_payload()).prop_map(|(g, p)| Message { guid: g, ttl: 5, hops: 1, payload: p }),
        1..8
    )) {
        let mut buf = bytes::BytesMut::new();
        for m in &msgs {
            buf.extend_from_slice(&encode_message(m));
        }
        let mut stream = buf.freeze();
        for m in &msgs {
            prop_assert_eq!(&decode_message(&mut stream).unwrap(), m);
        }
        prop_assert!(stream.is_empty());
    }

    // ---------- query identity ---------------------------------------------

    #[test]
    fn query_key_is_order_and_case_insensitive(words in proptest::collection::vec("[a-z]{1,8}", 1..6)) {
        let forward = words.join(" ");
        let mut rev = words.clone();
        rev.reverse();
        let upper = rev.join(" ").to_uppercase();
        prop_assert_eq!(QueryKey::new(&forward), QueryKey::new(&upper));
    }

    // ---------- event queue --------------------------------------------------

    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..100_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        let mut prev = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= prev);
            prev = at;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    // ---------- distributions -------------------------------------------------

    #[test]
    fn lognormal_quantile_inverts_cdf(mu in -3.0f64..6.0, sigma in 0.2f64..3.0, p in 0.01f64..0.99) {
        let d = Lognormal::new(mu, sigma).unwrap();
        let x = d.quantile(p);
        prop_assert!((d.cdf(x) - p).abs() < 1e-6);
    }

    #[test]
    fn weibull_quantile_inverts_cdf(alpha in 0.3f64..4.0, lambda in 1e-4f64..1.0, p in 0.01f64..0.99) {
        let d = Weibull::new(alpha, lambda).unwrap();
        let x = d.quantile(p);
        prop_assert!((d.cdf(x) - p).abs() < 1e-6);
    }

    #[test]
    fn pareto_quantile_inverts_cdf(alpha in 0.3f64..4.0, beta in 1.0f64..1_000.0, p in 0.01f64..0.99) {
        let d = Pareto::new(alpha, beta).unwrap();
        let x = d.quantile(p);
        prop_assert!((d.cdf(x) - p).abs() < 1e-6);
    }

    #[test]
    fn body_tail_split_carries_body_weight(
        w in 0.05f64..0.95,
        split in 10.0f64..500.0,
        mu_b in 0.0f64..3.0,
        mu_t in 4.0f64..8.0,
    ) {
        let body = Lognormal::new(mu_b, 1.5).unwrap();
        let tail = Lognormal::new(mu_t, 1.5).unwrap();
        let d = BodyTail::new(body, tail, split, w).unwrap();
        prop_assert!((d.cdf(split) - w).abs() < 1e-9);
        // CDF is monotone across the split.
        prop_assert!(d.cdf(split * 0.5) <= d.cdf(split));
        prop_assert!(d.cdf(split) <= d.cdf(split * 2.0));
    }

    #[test]
    fn ecdf_matches_manual_count(samples in proptest::collection::vec(0.0f64..1_000.0, 1..300), probe in 0.0f64..1_000.0) {
        let e = Ecdf::new(samples.clone()).unwrap();
        let manual = samples.iter().filter(|&&x| x > probe).count() as f64 / samples.len() as f64;
        prop_assert!((e.ccdf(probe) - manual).abs() < 1e-12);
    }

    // ---------- generator invariants -------------------------------------------

    #[test]
    fn generator_stream_is_well_formed(seed in 0u64..500) {
        use p2pq::{GeneratorConfig, WorkloadEvent, WorkloadGenerator, WorkloadModel};
        let model = WorkloadModel::paper_default();
        let gen = WorkloadGenerator::new(
            &model,
            GeneratorConfig {
                n_peers: 10,
                seed,
                fixed_hour: Some(12),
                ..GeneratorConfig::default()
            },
        );
        let mut prev = SimTime::ZERO;
        let mut open = std::collections::HashSet::new();
        for ev in gen.take(400) {
            prop_assert!(ev.at() >= prev);
            prev = ev.at();
            match ev {
                WorkloadEvent::SessionStart { peer, .. } => {
                    prop_assert!(open.insert(peer));
                }
                WorkloadEvent::Query { peer, query, .. } => {
                    prop_assert!(open.contains(&peer));
                    prop_assert!(query.rank >= 1);
                }
                WorkloadEvent::SessionEnd { peer, .. } => {
                    prop_assert!(open.remove(&peer));
                }
            }
        }
    }
}
