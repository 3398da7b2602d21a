//! Retained analysis must be bit-identical to live analysis.
//!
//! Runs the same fixed-seed smoke-scale campaign twice: once retaining
//! the full chunked trace and folding it through
//! [`analysis::analyze_retained`], once through the live
//! [`analysis::streaming::StreamingPipeline`] sink. Both front ends share
//! the pipeline's close path, so every product must be *equal*, not
//! approximately equal: the filtered trace (sessions and Table 2 report),
//! the per-day popularity observations, the §4.3–§4.5 session histograms,
//! the Figure 3 load accumulator and the session/message/byte counts.
//! The aggregates must also equal the batch functions recomputed over
//! the filtered sessions.

use analysis::characterize::histograms::SessionHistograms;
use analysis::load::query_load_by_time;
use analysis::popularity::DailyObservations;
use analysis::streaming::finish_shards;
use analysis::{analyze_retained, StreamingPipeline};
use behavior::{run_population_into, run_population_with_stats, PopulationConfig};
use geoip::{GeoDb, Region};
use parking_lot::Mutex;
use std::sync::Arc;
use trace::SharedSink;

fn smoke() -> PopulationConfig {
    PopulationConfig {
        seed: 1964,
        days: 0.5,
        sessions_per_day: 6_000.0,
        ..PopulationConfig::default()
    }
}

#[test]
fn streaming_equals_retain_unsharded() {
    let cfg = smoke();
    let db = GeoDb::synthetic();

    // Retained: materialize the chunked trace, then fold it.
    let (trace, retain_stats) = run_population_with_stats(&cfg);
    let replay = analyze_retained(&trace, &db);

    // Live: same campaign into a pipeline; the trace is never
    // materialized.
    let sink = Arc::new(Mutex::new(StreamingPipeline::new(db.clone(), true)));
    let stream_stats = run_population_into(&cfg, Arc::clone(&sink) as SharedSink);
    let live = finish_shards(vec![sink]);

    // The generated campaign itself is identical…
    assert_eq!(retain_stats, stream_stats, "campaign stats diverged");
    assert_eq!(replay.sessions_seen, live.sessions_seen);
    assert_eq!(replay.messages_seen, live.messages_seen);
    assert_eq!(replay.wire_bytes, live.wire_bytes);
    assert_eq!(live.sessions_seen as usize, trace.connections.len());

    // …and so is every analysis product, bit for bit.
    assert_eq!(replay.ft.report, live.ft.report, "filter report diverged");
    assert_eq!(
        replay.ft.sessions.len(),
        live.ft.sessions.len(),
        "filtered session count diverged"
    );
    assert_eq!(replay.ft.sessions, live.ft.sessions, "sessions diverged");
    assert_eq!(replay.obs, live.obs, "popularity observations diverged");
    assert_eq!(replay.hist, live.hist, "session histograms diverged");
    assert_eq!(replay.load, live.load, "load accumulator diverged");

    // The folds equal the batch functions over the filtered sessions.
    let ft = &replay.ft;
    assert_eq!(replay.obs, DailyObservations::collect(ft));
    assert_eq!(replay.hist, SessionHistograms::from_filtered(ft));
    for region in Region::ALL {
        assert_eq!(
            replay.load.panel(region),
            query_load_by_time(ft, region),
            "load panel diverged for {region:?}"
        );
    }

    // Sanity: the campaign produced enough data for the comparisons to
    // mean something.
    assert!(
        ft.sessions.len() > 500,
        "campaign too small to be probative"
    );
    assert!(replay.obs.n_days() >= 1);
    assert!(live.peak_bytes > 0 && live.peak_bytes < trace.mem_bytes());
}
