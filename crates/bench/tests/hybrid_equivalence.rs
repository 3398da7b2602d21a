//! Golden equivalence: the hybrid-fidelity engine must reproduce the
//! full simulation's observed trace **bit for bit** at smoke scale.
//!
//! This is the contract that makes `Fidelity::Hybrid` safe to use for
//! every experiment: the far-cloud flow model may skip work, but it may
//! not change a single recorded byte. Checked over both the
//! retained-trace path and the streaming-aggregation path.

use analysis::streaming::finish_shards;
use analysis::StreamingPipeline;
use behavior::{run_population, run_population_into, Fidelity, PopulationConfig};
use geoip::GeoDb;
use parking_lot::Mutex;
use std::sync::Arc;
use trace::SharedSink;

fn smoke(fidelity: Fidelity) -> PopulationConfig {
    PopulationConfig {
        fidelity,
        ..PopulationConfig::smoke()
    }
}

#[test]
fn hybrid_trace_is_bit_identical_single_shard() {
    let full = run_population(&smoke(Fidelity::Full));
    let hybrid = run_population(&smoke(Fidelity::Hybrid));
    assert_eq!(
        full.connections, hybrid.connections,
        "hybrid connection records diverged from full simulation"
    );
    assert_eq!(
        full.messages, hybrid.messages,
        "hybrid message records diverged from full simulation"
    );
    assert_eq!(
        full.wire_bytes, hybrid.wire_bytes,
        "hybrid wire-byte accounting diverged from full simulation"
    );
    assert_eq!(full, hybrid);
}

#[test]
fn hybrid_streaming_matches_full_streaming() {
    // Drive the streaming pipeline (retaining filtered sessions so the
    // comparison covers per-session outputs, not just scalar aggregates)
    // from both fidelities.
    let db = GeoDb::synthetic();
    let mut results = Vec::new();
    for fidelity in [Fidelity::Full, Fidelity::Hybrid] {
        let cfg = smoke(fidelity);
        let sink = Arc::new(Mutex::new(StreamingPipeline::new(db.clone(), true)));
        let stats = run_population_into(&cfg, Arc::clone(&sink) as SharedSink);
        if fidelity == Fidelity::Hybrid {
            assert!(
                stats.hybrid_elided_msgs > 0,
                "hybrid run elided no messages — far cloud not engaged"
            );
        } else {
            assert_eq!(stats.hybrid_elided_msgs, 0);
        }
        results.push(finish_shards(vec![sink]));
    }
    let (full, hybrid) = (&results[0], &results[1]);
    assert_eq!(
        full.messages_seen, hybrid.messages_seen,
        "streaming message count diverged"
    );
    assert_eq!(
        full.wire_bytes, hybrid.wire_bytes,
        "streaming wire bytes diverged"
    );
    assert_eq!(full.sessions_seen, hybrid.sessions_seen);
    assert_eq!(full.ft.report, hybrid.ft.report, "filter report diverged");
    assert_eq!(
        full.ft.sessions, hybrid.ft.sessions,
        "retained filtered sessions diverged"
    );
}

/// The cap-saturated regime: arrivals flood a full admission table, so
/// busy rejections are constant and — crucially — two arrivals within
/// the connect-latency spread can be admitted in the opposite order of
/// their spawn (node ids are not admission-monotone). This regression
/// case caught a hybrid connection-table ordering bug the light smoke
/// config never exercises.
#[test]
fn hybrid_trace_is_bit_identical_under_cap_churn() {
    let saturated = |fidelity| PopulationConfig {
        seed: 1964,
        days: 0.5,
        sessions_per_day: 6_000.0,
        fidelity,
        ..PopulationConfig::default()
    };
    let full = run_population(&saturated(Fidelity::Full));
    let hybrid = run_population(&saturated(Fidelity::Hybrid));
    assert_eq!(
        full, hybrid,
        "hybrid trace diverged from full simulation under cap churn"
    );
    assert_eq!(full.wire_bytes, hybrid.wire_bytes);
}

/// The flood regime (`Scale::Mega`'s rate and cap): about 2 % of
/// consecutive arrivals share a millisecond, and their tie order decides
/// which session takes a freed slot. Both drivers must release arrivals
/// in the same order.
#[test]
fn hybrid_trace_is_bit_identical_at_flood_rate() {
    let flood = |fidelity| PopulationConfig {
        days: 0.25 / 24.0,
        fidelity,
        ..bench_support::Scale::Mega.population()
    };
    let full = run_population(&flood(Fidelity::Full));
    let hybrid = run_population(&flood(Fidelity::Hybrid));
    assert_eq!(
        full, hybrid,
        "hybrid trace diverged from full simulation at flood rate"
    );
    assert_eq!(full.wire_bytes, hybrid.wire_bytes);
}

#[test]
fn hybrid_runs_are_deterministic() {
    let cfg = smoke(Fidelity::Hybrid);
    let a = run_population(&cfg);
    let b = run_population(&cfg);
    assert_eq!(a, b, "hybrid runs with the same seed must be identical");
    let mut cfg2 = cfg;
    cfg2.seed += 1;
    let c = run_population(&cfg2);
    assert_ne!(a, c, "different seeds must produce different traces");
}
