//! Routing-table ablation: duplicate-suppression cost vs GUID expiry
//! interval (DESIGN.md ablation 4); and the collector's per-frame
//! connection lookups, the unit cost of collector admission/recording.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gnutella::{Guid, RoutingTable};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{NodeId, SimDuration, SimTime};
use std::net::Ipv4Addr;
use std::sync::Arc;
use telemetry::Registry;
use trace::{Fanout, Recorder};

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

/// Operations per timed iteration of the `collector` group.
const COLLECTOR_OPS: usize = 10_000;

/// `Recorder` lookups at `Scale::Default`'s 600 open connections,
/// admitted out of node order. `receive_idle_check` is one received
/// frame's `receive` plus one idle timer's `idle_check` on a random open
/// node; `open_at_walk` is a query's 4-target fan-out walk from the
/// lowest node. Both report per 10 000 operations.
fn bench_collector(c: &mut Criterion) {
    const OPEN: u32 = 600;
    let mut rng = StdRng::seed_from_u64(11);
    let mut nodes: Vec<u32> = (2..2 + OPEN).collect();
    for i in (1..nodes.len()).rev() {
        nodes.swap(i, rng.gen_range(0..=i));
    }
    let sink = Arc::new(Mutex::new(Fanout::new()));
    let mut rec: Recorder<u32> = Recorder::new(OPEN as usize, sink, Arc::new(Registry::new()));
    for (slot, &node) in (0u32..).zip(&nodes) {
        let at = SimTime::from_millis(u64::from(slot));
        rec.admit(
            NodeId(node),
            slot,
            at,
            Ipv4Addr::from(node),
            "X/1".into(),
            false,
        );
    }
    let lookups: Vec<NodeId> = (0..COLLECTOR_OPS)
        .map(|_| NodeId(nodes[rng.gen_range(0..nodes.len())]))
        .collect();
    let at = SimTime::from_secs(1);

    let mut group = c.benchmark_group("collector");
    group.throughput(Throughput::Elements(COLLECTOR_OPS as u64));
    group.bench_function("receive_idle_check/600", |b| {
        b.iter(|| {
            for &node in &lookups {
                black_box(rec.receive(node, at));
                black_box(rec.idle_check(node, at));
            }
        })
    });
    group.bench_function("open_at_walk/4", |b| {
        b.iter(|| {
            for _ in 0..COLLECTOR_OPS {
                for i in 0..4 {
                    black_box(rec.open_at(black_box(i)));
                }
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_routing, bench_collector);
criterion_main!(benches);
