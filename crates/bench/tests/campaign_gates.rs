//! Deterministic health gates on whole campaigns, for both fidelities.
//!
//! Every bound here is on a count, never on a timing, so it holds the
//! same way on any host:
//!
//! * far-heap spills stay at most 5 % of popped events: the timing
//!   wheel keeps timers off the far heap's round trip;
//! * the stage profiler opens at most one scope per hundred popped
//!   events: scopes sit at coarse boundaries (campaign phases, record
//!   drains, chunk seals), never on a per-event path;
//! * a `Scale::Smoke` campaign's retained trace and its streaming
//!   pipeline stay within 1.3× of their recorded sizes.
//!
//! The scope count reads the process-global stage table, so every test
//! in this file holds [`STAGE_LOCK`] while its campaigns run.

use analysis::streaming::finish_shards;
use analysis::StreamingPipeline;
use behavior::{
    run_population_into, run_population_with_stats, CampaignStats, Fidelity, PopulationConfig,
};
use bench_support::Scale;
use geoip::GeoDb;
use parking_lot::Mutex;
use std::sync::{Arc, PoisonError};
use trace::SharedSink;

static STAGE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Far-heap spills per popped event.
const MAX_SPILL_FRAC: f64 = 0.05;
/// Stage-scope entries per popped event.
const MAX_SCOPES_PER_EVENT: f64 = 0.01;
/// Growth allowed over the recorded `Scale::Smoke` sizes below.
const MEM_TOLERANCE: f64 = 1.3;
/// `Trace::mem_bytes()` of the retained `Scale::Smoke` trace.
const SMOKE_TRACE_BYTES: u64 = 9_863_161;
/// `StreamingResult::peak_bytes` of a `Scale::Smoke` streaming pipeline
/// that keeps no filtered sessions.
const SMOKE_STREAMING_BYTES: u64 = 45_203;

/// Run `campaign` against an empty stage table; return its result and
/// the number of stage-scope entries it recorded.
fn counting_scopes<T>(campaign: impl FnOnce() -> T) -> (T, u64) {
    telemetry::profile::reset_stages();
    let out = campaign();
    let scopes = telemetry::profile::take_stages()
        .iter()
        .map(|(_, s)| s.count)
        .sum();
    (out, scopes)
}

fn assert_queue_and_scopes(label: &str, stats: &CampaignStats, scopes: u64) {
    let spill = stats
        .telemetry
        .heap_spill_frac()
        .expect("the campaign popped events");
    assert!(
        spill <= MAX_SPILL_FRAC,
        "{label}: heap_spill_frac {spill} over {MAX_SPILL_FRAC}"
    );
    let per_event = scopes as f64 / stats.events_popped as f64;
    assert!(
        per_event <= MAX_SCOPES_PER_EVENT,
        "{label}: {scopes} stage scopes over {} popped events ({per_event:.2e} per event)",
        stats.events_popped
    );
}

fn smoke_gates(fidelity: Fidelity) {
    let _guard = STAGE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = PopulationConfig {
        fidelity,
        ..Scale::Smoke.population()
    };
    let label = format!("{fidelity:?} smoke");

    let ((trace, stats), scopes) = counting_scopes(|| run_population_with_stats(&cfg));
    assert_queue_and_scopes(&label, &stats, scopes);
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
/// slots: nearly every arrival is refused, so events are cheap and a
/// scope on any per-arrival path would show at once.
#[test]
fn flood_campaign_within_gates() {
    let _guard = STAGE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = PopulationConfig {
        days: 1.0 / 24.0,
        fidelity: Fidelity::Hybrid,
        ..Scale::Mega.population()
    };
    let ((_, stats), scopes) = counting_scopes(|| run_population_with_stats(&cfg));
    assert_queue_and_scopes("hybrid flood", &stats, scopes);
}
