//! Deterministic health gates on whole campaigns, for both fidelities.
//!
//! Every bound here is on a count, never on a timing, so it holds the
//! same way on any host:
//!
//! * far-heap spills stay at most 5 % of popped events: the timing
//!   wheel keeps timers off the far heap's round trip;
//! * a `Scale::Smoke` campaign's retained trace and its streaming
//!   pipeline stay within 1.3× of their recorded sizes.

use analysis::streaming::finish_shards;
use analysis::StreamingPipeline;
use behavior::{
    run_population_into, run_population_with_stats, CampaignStats, Fidelity, PopulationConfig,
};
use bench_support::Scale;
use geoip::GeoDb;
use parking_lot::Mutex;
use std::sync::Arc;
use telemetry::Counter;
use trace::SharedSink;

/// Far-heap spills per popped event.
const MAX_SPILL_FRAC: f64 = 0.05;
/// Growth allowed over the recorded `Scale::Smoke` sizes below.
const MEM_TOLERANCE: f64 = 1.3;
/// `Trace::mem_bytes()` of the retained `Scale::Smoke` trace.
const SMOKE_TRACE_BYTES: u64 = 9_863_161;
/// `StreamingResult::peak_bytes` of a `Scale::Smoke` streaming pipeline
/// that keeps no filtered sessions.
const SMOKE_STREAMING_BYTES: u64 = 45_203;

fn assert_spill_bound(label: &str, stats: &CampaignStats) {
    assert!(
        stats.events_popped > 0,
        "{label}: the campaign popped no events"
    );
    let spills = stats.telemetry.counter(Counter::HeapSpills);
    let spill = spills as f64 / stats.events_popped as f64;
    assert!(
        spill <= MAX_SPILL_FRAC,
        "{label}: {spills} heap spills over {} popped events ({spill}) over {MAX_SPILL_FRAC}",
        stats.events_popped
    );
}

fn smoke_gates(fidelity: Fidelity) {
    let cfg = PopulationConfig {
        fidelity,
        ..Scale::Smoke.population()
    };
    let label = format!("{fidelity:?} smoke");

    let (trace, stats) = run_population_with_stats(&cfg);
    assert_spill_bound(&label, &stats);
    let retained = trace.mem_bytes();
    assert!(
        retained as f64 <= MEM_TOLERANCE * SMOKE_TRACE_BYTES as f64,
        "{label}: retained trace {retained} B over {MEM_TOLERANCE} × {SMOKE_TRACE_BYTES} B"
    );

    let sink = Arc::new(Mutex::new(StreamingPipeline::new(
        GeoDb::synthetic(),
        false,
    )));
    run_population_into(&cfg, Arc::clone(&sink) as SharedSink);
    let streaming = finish_shards(vec![sink]).peak_bytes;
    assert!(
        streaming as f64 <= MEM_TOLERANCE * SMOKE_STREAMING_BYTES as f64,
        "{label}: streaming pipeline peak {streaming} B over {MEM_TOLERANCE} × {SMOKE_STREAMING_BYTES} B"
    );
}

#[test]
fn full_smoke_campaign_within_gates() {
    smoke_gates(Fidelity::Full);
}

#[test]
fn hybrid_smoke_campaign_within_gates() {
    smoke_gates(Fidelity::Hybrid);
}

/// One virtual hour at `Scale::Mega`'s 2 M arrivals/day against 200
/// slots, where nearly every arrival is refused.
#[test]
fn flood_campaign_within_gates() {
    let cfg = PopulationConfig {
        days: 1.0 / 24.0,
        fidelity: Fidelity::Hybrid,
        ..Scale::Mega.population()
    };
    let (_, stats) = run_population_with_stats(&cfg);
    assert_spill_bound("hybrid flood", &stats);
}
