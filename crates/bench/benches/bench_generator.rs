//! Generator throughput: events/second of the Figure 12 algorithm, plus
//! the interned-vocabulary hot path (query sampling and symbol resolution).
//!
//! `generator/events/*` builds a generator at a fixed hour in every
//! iteration, so it includes set-up; `generator/events_warm_rolling/500`
//! is the perfbench `generate` shape (500 peers on the rolling clock)
//! with the generator built before timing, so its ns per event is the
//! unit cost behind that workload's `core.generate_s`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use p2pq::{GeneratorConfig, WorkloadGenerator, WorkloadModel};
use simnet::SimDuration;

fn bench_generator(c: &mut Criterion) {
    let model = WorkloadModel::paper_default();
    let mut group = c.benchmark_group("generator");
    for &n_peers in &[10usize, 100, 1_000] {
        group.throughput(Throughput::Elements(10_000));
        group.bench_with_input(
            BenchmarkId::new("events", n_peers),
            &n_peers,
            |b, &n_peers| {
                b.iter(|| {
                    let gen = WorkloadGenerator::new(
                        &model,
                        GeneratorConfig {
                            n_peers,
                            seed: 7,
                            fixed_hour: Some(20),
                            warmup: SimDuration::from_secs(60),
                            ..GeneratorConfig::default()
                        },
                    );
                    let mut count = 0u64;
                    for ev in gen.take(10_000) {
                        count += u64::from(matches!(ev, p2pq::WorkloadEvent::Query { .. }));
                    }
                    black_box(count)
                })
            },
        );
    }
    group.bench_function("events_warm_rolling/500", |b| {
        let mut gen = WorkloadGenerator::new(
            &model,
            GeneratorConfig {
                n_peers: 500,
                seed: 7,
                fixed_hour: None,
                ..GeneratorConfig::default()
            },
        );
        b.iter(|| {
            let mut count = 0u64;
            for ev in gen.by_ref().take(10_000) {
                count += u64::from(matches!(ev, p2pq::WorkloadEvent::Query { .. }));
            }
            black_box(count)
        })
    });
    group.finish();

    // Model materialization cost (cold start).
    c.bench_function("generator/cold_start_1000_peers", |b| {
        b.iter(|| {
            let gen = WorkloadGenerator::new(
                &model,
                GeneratorConfig {
                    n_peers: 1_000,
                    seed: 9,
                    fixed_hour: Some(12),
                    ..GeneratorConfig::default()
                },
            );
            black_box(gen.sessions_started())
        })
    });
}

/// The per-query hot path after interning: sampling returns a `Copy`
/// [`gnutella::QueryId`] (no allocation), and resolving it back to text is
/// a read-locked table lookup yielding a `&'static str`.
fn bench_vocabulary(c: &mut Criterion) {
    use behavior::Vocabulary;
    use geoip::Region;
    use rand::{rngs::StdRng, SeedableRng};

    let popularity = WorkloadModel::paper_default().popularity;
    let laws = popularity.laws().expect("the paper's laws build");
    let vocab = Vocabulary::build(7, laws);
    let mut group = c.benchmark_group("vocabulary");
    group.throughput(Throughput::Elements(10_000));
    for (name, region) in [
        ("na", Region::NorthAmerica),
        ("eu", Region::Europe),
        ("asia", Region::Asia),
    ] {
        group.bench_with_input(
            BenchmarkId::new("sample_interned", name),
            &region,
            |b, &region| {
                let mut rng = StdRng::seed_from_u64(11);
                b.iter(|| {
                    let mut acc = 0u64;
                    for i in 0..10_000usize {
                        let id = vocab.sample_query(region, i % 8, &mut rng);
                        acc = acc.wrapping_add(u64::from(id.raw()));
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.bench_function("resolve_static_str", |b| {
        let mut rng = StdRng::seed_from_u64(13);
        let ids: Vec<gnutella::QueryId> = (0..10_000usize)
            .map(|i| vocab.sample_query(Region::NorthAmerica, i % 8, &mut rng))
            .collect();
        b.iter(|| {
            let mut len = 0usize;
            for id in &ids {
                len += id.resolve().len();
            }
            black_box(len)
        })
    });
    group.bench_function("canonical_keyword_set", |b| {
        let mut rng = StdRng::seed_from_u64(17);
        let ids: Vec<gnutella::QueryId> = (0..10_000usize)
            .map(|i| vocab.sample_query(Region::Europe, i % 8, &mut rng))
            .collect();
        b.iter(|| {
            let mut acc = 0u64;
            for id in &ids {
                acc = acc.wrapping_add(u64::from(id.canonical().raw()));
            }
            black_box(acc)
        })
    });
    // The pre-interning baseline: canonicalizing the keyword set from the
    // query string on every use (what filter rule 2 and popularity ranking
    // did per message before `QueryId` stored the canonical id).
    group.bench_function("canonical_keyword_set_string_baseline", |b| {
        let mut rng = StdRng::seed_from_u64(17);
        let texts: Vec<&'static str> = (0..10_000usize)
            .map(|i| {
                vocab
                    .sample_query(Region::Europe, i % 8, &mut rng)
                    .resolve()
            })
            .collect();
        b.iter(|| {
            let mut acc = 0usize;
            for t in &texts {
                acc += gnutella::QueryKey::new(t).as_str().len();
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_generator, bench_vocabulary);
criterion_main!(benches);
