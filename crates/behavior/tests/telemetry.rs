//! Telemetry integration: the instrumentation must be provably free
//! (identical traces with profiling on and off) and the counters must
//! agree with the campaign's own ground truth.

use behavior::{run_population, run_population_with_stats, Fidelity, PopulationConfig};
use telemetry::{Counter, Gauge};

/// Serialize the tests that toggle the process-global profiling flag or
/// read the global stage table, so they cannot race each other.
static PROFILE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn trace_identical_with_profiling_on_and_off() {
    let _guard = PROFILE_LOCK.lock().unwrap();
    let cfg = PopulationConfig::smoke();
    telemetry::profile::set_enabled(true);
    let on = run_population(&cfg);
    telemetry::profile::set_enabled(false);
    let off = run_population(&cfg);
    telemetry::profile::set_enabled(true);
    telemetry::profile::reset_stages();
    assert_eq!(
        on, off,
        "stage profiling must not perturb the observed trace"
    );
}

#[test]
fn stage_tree_covers_campaign() {
    let _guard = PROFILE_LOCK.lock().unwrap();
    telemetry::profile::set_enabled(true);
    telemetry::profile::reset_stages();
    let cfg = PopulationConfig::smoke();
    let _ = run_population_with_stats(&cfg);
    let stages = telemetry::profile::take_stages();
    let tree = telemetry::stage_tree(&stages);
    let coverage = telemetry::profile::root_child_coverage(&tree, "campaign")
        .expect("campaign root must be recorded");
    assert!(
        coverage >= 0.9,
        "campaign children must cover ≥90 % of the campaign scope, got {coverage}"
    );
}

#[test]
fn campaign_counters_match_ground_truth() {
    let cfg = PopulationConfig::smoke();
    let (trace, stats) = run_population_with_stats(&cfg);
    let t = &stats.telemetry;
    assert_eq!(
        t.counter(Counter::SinkRecords),
        trace.messages.len() as u64,
        "every recorded message passes the sink-batch boundary exactly once"
    );
    assert!(t.counter(Counter::SinkBatches) > 0);
    assert_eq!(t.counter(Counter::EventsPopped), stats.events_popped);
    assert_eq!(t.gauge(Gauge::PeakQueueLen), stats.peak_queue_len);
    // The batch-size histogram holds one observation per batch.
    let batches: u64 = t.hist(telemetry::Hist::SinkBatchSize).iter().sum();
    assert_eq!(batches, t.counter(Counter::SinkBatches));
}

/// Fixed-seed smoke-campaign regression: the event queue's pop order
/// fully determines the observed trace, so pinning the event count plus
/// an order-sensitive digest of the message stream catches any queue
/// change that silently reorders equal-time or cross-level pops. Re-pin
/// only after the simnet model-check property passes.
#[test]
fn smoke_campaign_events_and_order_pinned() {
    let cfg = PopulationConfig::smoke();
    let (trace, stats) = run_population_with_stats(&cfg);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fnv = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for m in trace.messages.iter() {
        fnv(m.session.0);
        fnv(m.at.as_millis());
    }
    assert_eq!(
        (
            stats.events_popped,
            trace.connections.len() as u64,
            trace.messages.len() as u64,
            h,
        ),
        (
            PINNED_EVENTS_POPPED,
            PINNED_CONNECTIONS,
            PINNED_MESSAGES,
            PINNED_MESSAGE_DIGEST,
        ),
        "smoke-campaign event count or observed message order changed"
    );
}

const PINNED_EVENTS_POPPED: u64 = 255_372;
const PINNED_CONNECTIONS: u64 = 504;
const PINNED_MESSAGES: u64 = 62_714;
const PINNED_MESSAGE_DIGEST: u64 = 15_634_722_281_550_164_242;

#[test]
fn full_and_hybrid_sink_counters_agree() {
    let mut cfg = PopulationConfig::smoke();
    cfg.fidelity = Fidelity::Full;
    let (full_trace, full) = run_population_with_stats(&cfg);
    cfg.fidelity = Fidelity::Hybrid;
    let (hybrid_trace, hybrid) = run_population_with_stats(&cfg);
    assert_eq!(full_trace, hybrid_trace);
    // Sink batch boundaries are part of the observed-trace contract, so
    // the sink-layer counters must match across fidelities too.
    for c in [Counter::SinkRecords, Counter::SinkBatches] {
        assert_eq!(
            full.telemetry.counter(c),
            hybrid.telemetry.counter(c),
            "{} must match across fidelities",
            c.name()
        );
    }
    assert_eq!(
        full.telemetry.hist(telemetry::Hist::SinkBatchSize),
        hybrid.telemetry.hist(telemetry::Hist::SinkBatchSize)
    );
}
