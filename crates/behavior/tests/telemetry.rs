//! Telemetry integration: the campaign registry's sink counters must
//! agree with the campaign's own ground truth, and with each other
//! across fidelities.

use behavior::{
    run_population_into, run_population_with_stats, CampaignStats, Fidelity, PopulationConfig,
};
use parking_lot::Mutex;
use simnet::SimTime;
use std::sync::Arc;
use telemetry::Counter;
use trace::{ConnectionRecord, Fanout, MessageRecord, SessionId, Trace, TraceSink};

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
/// The smoke config once shrank the vocabulary (day sets 400, 380, 60,
/// 20, 3, 3 and 2 over a 2-day horizon); it now draws from the paper's
/// popularity model like every campaign (1 931, 1 875, 145, 54, 3, 3 and
/// 2). A planned query text that collides with one the session already
/// chose is drawn again (up to 3 times for user queries, 8 in a burst),
/// so the larger day sets change how many draws a session takes from
/// its stream, and with them its later draws: repeat times, keepalive
/// and relay gaps. The digest hashes each message's session and arrival
/// time, so it moved (from 15 634 722 281 550 164 242); the event,
/// connection and message counts did not.
const PINNED_MESSAGE_DIGEST: u64 = 4_978_498_609_679_464_692;

/// Records the length of every batch the collector drains.
#[derive(Default)]
struct BatchLens(Vec<usize>);

impl TraceSink for BatchLens {
    fn on_connect(&mut self, _: ConnectionRecord) {}

    fn on_batch(&mut self, records: &[MessageRecord], _: &[u32]) {
        self.0.push(records.len());
    }

    fn on_close(&mut self, _: SessionId, _: SimTime, _: bool) {}
}

/// One smoke campaign at `fidelity`: its retained trace, the length of
/// each sink batch in drain order, and its statistics.
fn smoke_campaign(fidelity: Fidelity) -> (Trace, Vec<usize>, CampaignStats) {
    let cfg = PopulationConfig {
        fidelity,
        ..PopulationConfig::smoke()
    };
    let trace = Arc::new(Mutex::new(Trace::default()));
    let lens = Arc::new(Mutex::new(BatchLens::default()));
    let mut fanout = Fanout::new();
    fanout.register(trace.clone());
    fanout.register(lens.clone());
    let stats = run_population_into(&cfg, Arc::new(Mutex::new(fanout)));
    let trace = std::mem::take(&mut *trace.lock());
    let lens = std::mem::take(&mut lens.lock().0);
    (trace, lens, stats)
}

#[test]
fn full_and_hybrid_sink_counters_agree() {
    let (full_trace, full_lens, full) = smoke_campaign(Fidelity::Full);
    let (hybrid_trace, hybrid_lens, hybrid) = smoke_campaign(Fidelity::Hybrid);
    assert_eq!(full_trace, hybrid_trace);
    // Sink batch boundaries are part of the observed-trace contract, so
    // both fidelities must drain the same batches in the same order, and
    // the sink-layer counters must count exactly those batches.
    assert_eq!(full_lens, hybrid_lens, "sink batch sequence differs");
    for (label, lens, stats) in [
        ("full", &full_lens, &full),
        ("hybrid", &hybrid_lens, &hybrid),
    ] {
        assert_eq!(
            stats.telemetry.counter(Counter::SinkBatches),
            lens.len() as u64,
            "{label}: SinkBatches"
        );
        assert_eq!(
            stats.telemetry.counter(Counter::SinkRecords),
            lens.iter().sum::<usize>() as u64,
            "{label}: SinkRecords"
        );
    }
}
