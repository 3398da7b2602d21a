//! Routing-table ablation: duplicate-suppression cost vs GUID expiry
//! interval (DESIGN.md ablation 4).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gnutella::{Guid, RoutingTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{NodeId, SimDuration, SimTime};

fn bench_routing(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    // A query stream with 20 % duplicates, 1 query per ~50 ms of sim time.
    let mut guids: Vec<Guid> = (0..50_000).map(|_| Guid::random(&mut rng)).collect();
    for i in 0..10_000 {
        let dup_from = rng.gen_range(0..40_000);
        guids[40_000 + i] = guids[dup_from];
    }

    let mut group = c.benchmark_group("routing_table");
    group.throughput(Throughput::Elements(guids.len() as u64));
    group.sample_size(20);
    for &expiry_secs in &[60u64, 600, 1_800] {
        group.bench_with_input(
            BenchmarkId::new("insert_sweep_expiry", expiry_secs),
            &expiry_secs,
            |b, &expiry_secs| {
                b.iter(|| {
                    let mut rt = RoutingTable::with_expiry(SimDuration::from_secs(expiry_secs));
                    for (i, g) in guids.iter().enumerate() {
                        rt.insert(*g, NodeId(1), SimTime::from_millis(i as u64 * 50));
                    }
                    black_box(rt.counters())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
