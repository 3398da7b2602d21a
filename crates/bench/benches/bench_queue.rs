//! Event-queue throughput across timer horizons: push+pop events/s for
//! the hierarchical timing wheel in [`simnet::EventQueue`].
//!
//! Three workloads bracket the campaign's real mix:
//!
//! - `near_only`: every delay < 512 ms, pure L0 traffic, all pushed
//!   before the first pop. That puts about 128 events in every L0
//!   bucket, and each pop walks its whole bucket list: the worst case
//!   for the pop's walk, not the campaign's shape (campaign buckets hold
//!   1.2–1.5 events at pop on average).
//! - `far_heavy`: every delay beyond the wheel's ~37 h horizon, so each
//!   event takes the far-heap round-trip (push, migrate on chunk entry,
//!   cascade down, pop) — the worst case this queue was rebuilt to make
//!   rare.
//! - `mixed_horizon`: a steady-state sliding window over all four
//!   levels (L0/L1/L2/far), pop-one-push-one against an advancing
//!   cursor, which is the shape session keepalives + arrivals produce.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use simnet::{EventQueue, SimTime};

const N: usize = 65_536;

/// Deterministic pseudo-random stream (no RNG dependency in the loop).
fn h(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17)
}

fn delays_near() -> Vec<u64> {
    (0..N as u64).map(|i| h(i) % 512).collect()
}

fn delays_far() -> Vec<u64> {
    // Beyond L2's admission window (~37 h = 134,479,872 ms): every push
    // lands in the far heap.
    (0..N as u64)
        .map(|i| 134_479_872 + h(i) % 400_000_000)
        .collect()
}

fn delays_mixed() -> Vec<u64> {
    (0..N as u64)
        .map(|i| match i % 4 {
            0 => h(i) % 512,
            1 => 512 + h(i) % (262_144 - 512),
            2 => 262_144 + h(i) % (134_479_872 - 262_144),
            _ => 134_479_872 + h(i) % 400_000_000,
        })
        .collect()
}

/// Push everything up front, then drain to empty.
fn burst(delays: &[u64]) -> u64 {
    let mut q = EventQueue::new();
    for (i, &d) in delays.iter().enumerate() {
        q.push(SimTime::from_millis(d), i);
    }
    let mut count = 0u64;
    while q.pop().is_some() {
        count += 1;
    }
    count
}

/// Steady state: prefill a window, then pop-one-push-one with delays
/// relative to the advancing cursor, then drain.
fn sliding(delays: &[u64], window: usize) -> u64 {
    let mut q = EventQueue::new();
    for (i, &d) in delays[..window].iter().enumerate() {
        q.push(SimTime::from_millis(d), i);
    }
    let mut count = 0u64;
    for (i, &d) in delays[window..].iter().enumerate() {
        let (at, _) = q.pop().expect("window keeps the queue non-empty");
        count += 1;
        let now = at.as_millis();
        q.push(SimTime::from_millis(now + d), window + i);
    }
    while q.pop().is_some() {
        count += 1;
    }
    count
}

fn bench_queue(c: &mut Criterion) {
    let near = delays_near();
    let far = delays_far();
    let mixed = delays_mixed();

    let mut group = c.benchmark_group("event_queue");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("near_only_burst_64k", |b| {
        b.iter(|| black_box(burst(black_box(&near))))
    });
    group.bench_function("far_heavy_burst_64k", |b| {
        b.iter(|| black_box(burst(black_box(&far))))
    });
    group.bench_function("mixed_horizon_sliding_64k", |b| {
        b.iter(|| black_box(sliding(black_box(&mixed), 4096)))
    });
    group.finish();
}

criterion_group!(benches, bench_queue);
criterion_main!(benches);
