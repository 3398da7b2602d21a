//! Streaming mode must be bit-identical to retain mode.
//!
//! Runs the same fixed-seed smoke-scale campaign twice — once retaining
//! the full columnar trace and analyzing it in batch, once through the
//! [`analysis::streaming::StreamingPipeline`] sink — and asserts every
//! analysis product is *equal*, not approximately equal: the filtered
//! trace (sessions and Table 2 report), the per-day popularity
//! observations and rank tables, the §4.3–§4.5 session histograms, and
//! the Figure 3 load panels.

use analysis::characterize::histograms::SessionHistograms;
use analysis::filter::apply_filters;
use analysis::load::query_load_by_time;
use analysis::popularity::{day_ranking, DailyObservations};
use analysis::streaming::finish_shards;
use analysis::StreamingPipeline;
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

    // Retain mode: materialize the columnar trace, analyze in batch.
    let (trace, retain_stats) = run_population_with_stats(&cfg);
    let ft = apply_filters(&trace, &db);
    let obs = DailyObservations::collect(&ft);
    let hist = SessionHistograms::from_filtered(&ft);

    // Streaming mode: same campaign into a pipeline; the trace is never
    // materialized.
    let sink = Arc::new(Mutex::new(StreamingPipeline::new(db.clone(), true)));
    let stream_stats = run_population_into(&cfg, Arc::clone(&sink) as SharedSink);
    let r = finish_shards(vec![sink]);

    // The generated campaign itself is identical…
    assert_eq!(retain_stats, stream_stats, "campaign stats diverged");
    assert_eq!(r.sessions_seen as usize, trace.connections.len());
    assert_eq!(r.messages_seen as usize, trace.messages.len());
    assert_eq!(r.wire_bytes, trace.wire_bytes);

    // …and so is every analysis product, bit for bit.
    assert_eq!(r.ft.report, ft.report, "filter report diverged");
    assert_eq!(
        r.ft.sessions.len(),
        ft.sessions.len(),
        "filtered session count diverged"
    );
    assert_eq!(r.ft.sessions, ft.sessions, "filtered sessions diverged");
    assert_eq!(r.obs, obs, "popularity observations diverged");
    assert_eq!(r.hist, hist, "session histograms diverged");
    for region in [
        Region::NorthAmerica,
        Region::Europe,
        Region::Asia,
        Region::Other,
    ] {
        assert_eq!(
            r.load.panel(region),
            query_load_by_time(&ft, region),
            "load panel diverged for {region:?}"
        );
    }
    for day in 0..obs.n_days() {
        for region in Region::CHARACTERIZED {
            assert_eq!(
                day_ranking(&r.obs, region, day),
                day_ranking(&obs, region, day),
                "rank table diverged for {region:?} day {day}"
            );
        }
    }

    // Sanity: the campaign produced enough data for the comparisons to
    // mean something.
    assert!(
        ft.sessions.len() > 500,
        "campaign too small to be probative"
    );
    assert!(obs.n_days() >= 1);
    assert!(r.peak_bytes > 0 && r.peak_bytes < trace.mem_bytes());
}
