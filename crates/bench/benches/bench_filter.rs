//! Retained-analysis throughput.

use analysis::analyze_retained;
use behavior::{run_population, PopulationConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use geoip::GeoDb;

fn bench_filter(c: &mut Criterion) {
    // One medium trace shared across the benches.
    let trace = run_population(&PopulationConfig {
        seed: 55,
        days: 0.25,
        sessions_per_day: 8_000.0,
        ..PopulationConfig::default()
    });
    let db = GeoDb::synthetic();
    let n_msgs = trace.messages.len() as u64;

    let mut group = c.benchmark_group("analysis");
    group.throughput(Throughput::Elements(n_msgs));
    group.sample_size(20);

    // The one analysis pass over a retained trace: the selective hop-1
    // scan, then rules 1–5 and the folds per connection. Per message, so
    // that ns/message × `trace.sink_records` predicts the pass's time on
    // a campaign.
    group.bench_function("retained_analysis", |b| {
        b.iter(|| black_box(analyze_retained(&trace, &db)))
    });
    group.finish();
}

criterion_group!(benches, bench_filter);
criterion_main!(benches);
