//! Far-cloud flow sampling: the hybrid engine's statistical hot path.
//!
//! `Fidelity::Hybrid` replaces full actor simulation of the unobserved
//! cloud with direct draws from `behavior::stream` — one
//! `draw_relay_*` call per recorded relay message plus a
//! `SessionEmitter` merge per session. These benches measure that per-
//! draw and per-session cost, which bounds how cheap the far cloud can
//! ever be relative to the full engine, and the per-arrival cost of
//! planning a session and of everything an arrival draws before its
//! connect is queued, which the hybrid engine skips for an arrival it
//! refuses at arrival.

use std::sync::Arc;

use behavior::stream::{
    draw_relay_hit, draw_relay_pong, draw_relay_query, EmissionKind, SessionEmitter,
};
use behavior::{SessionPlan, SessionPlanner, Vocabulary};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use geoip::{AddressAllocator, GeoDb, Region};
use p2pq::WorkloadModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{LatencyModel, SimDuration, SimTime};
use stats::rng::SeedSequence;

const DRAWS: usize = 10_000;

/// A vocabulary over the paper's popularity laws, as campaigns build it.
fn paper_vocabulary(seed: u64) -> Arc<Vocabulary> {
    let popularity = WorkloadModel::paper_default().popularity;
    let laws = popularity.laws().expect("the paper's laws build");
    Arc::new(Vocabulary::build(seed, laws))
}

/// Per-message draw throughput for the three relay flavors, swept across
/// the diurnal cycle so region sampling exercises the full table.
fn bench_relay_draws(c: &mut Criterion) {
    let vocab = paper_vocabulary(7);
    let planner = SessionPlanner::paper_default(Arc::clone(&vocab));
    let db = GeoDb::synthetic();
    let alloc = AddressAllocator::new(&db);
    let at = |i: usize| SimTime::ZERO + SimDuration::from_secs_f64(i as f64 * 17.0);

    let mut group = c.benchmark_group("farcloud");
    group.throughput(Throughput::Elements(DRAWS as u64));
    group.bench_function("draw_relay_query", |b| {
        let mut rng = StdRng::seed_from_u64(11);
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..DRAWS {
                let q = draw_relay_query(&vocab, &planner.diurnal, at(i), &mut rng);
                acc = acc.wrapping_add(u64::from(q.text.raw()) + u64::from(q.hops));
            }
            black_box(acc)
        })
    });
    group.bench_function("draw_relay_pong", |b| {
        let mut rng = StdRng::seed_from_u64(12);
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..DRAWS {
                let p = draw_relay_pong(&planner.diurnal, &alloc, &planner.files, at(i), &mut rng);
                acc = acc.wrapping_add(u64::from(p.files) + u64::from(p.guid.0[0]));
            }
            black_box(acc)
        })
    });
    group.bench_function("draw_relay_hit", |b| {
        let mut rng = StdRng::seed_from_u64(13);
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..DRAWS {
                let h = draw_relay_hit(&planner.diurnal, &alloc, at(i), &mut rng);
                acc = acc.wrapping_add(h.results.len() as u64 + u64::from(h.speed));
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// Arrival layer unit costs, per 1 000 arrivals swept across the
/// diurnal cycle as the campaign drivers sweep it. `plan` is the region
/// draw and session plan of an arrival whose connect is queued.
/// `arrival` is all that such an arrival draws, and what an arrival
/// refused at arrival skips: its RNG seeded as the drivers seed it, the
/// region, the plan, the address, the keepalive and the connect delay.
fn bench_arrival_layer(c: &mut Criterion) {
    const PLANS: usize = 1_000;
    let planner = SessionPlanner::paper_default(paper_vocabulary(5));
    let alloc = AddressAllocator::new(&GeoDb::synthetic());
    let latency = LatencyModel::intra_continent();
    let population = SeedSequence::new(1964).child("population");
    let mut group = c.benchmark_group("farcloud");
    group.throughput(Throughput::Elements(PLANS as u64));
    group.bench_function("plan", |b| {
        let mut rng = StdRng::seed_from_u64(31);
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..PLANS {
                let hour = (i % 24) as u32;
                let region = planner.diurnal.sample_region(hour, &mut rng);
                let plan = planner.plan(0, hour, region, &mut rng);
                acc = acc.wrapping_add(plan.queries.len() as u64 + plan.duration.as_millis());
            }
            black_box(acc)
        })
    });
    group.bench_function("arrival", |b| {
        let mut next = 0u64;
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..PLANS {
                let hour = (i % 24) as u32;
                let mut rng = population.rng_indexed("peer", next);
                next += 1;
                let region = planner.diurnal.sample_region(hour, &mut rng);
                let plan = planner.plan(0, hour, region, &mut rng);
                let addr = alloc.sample(region, &mut rng);
                // The default keepalive range; its bounds cost nothing.
                let keepalive = SimDuration::from_secs_f64(rng.gen_range(18.0..28.0));
                let connect = latency.sample(&mut rng);
                acc = acc.wrapping_add(
                    plan.duration.as_millis()
                        + u64::from(u32::from(addr))
                        + keepalive.as_millis()
                        + connect.as_millis(),
                );
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// An ultrapeer plan (the expensive kind: three live relay streams).
fn ultrapeer_plan(planner: &SessionPlanner, rng: &mut StdRng) -> SessionPlan {
    loop {
        let plan = planner.plan(0, 12, Region::Europe, rng);
        if plan.ultrapeer {
            return plan;
        }
    }
}

/// Cost of merging a session's emission streams: `start` draws the three
/// initial relay gaps; the drain loop picks the minimum sub-stream and
/// redraws its exponential gap per emission, exactly as both fidelities
/// schedule traffic.
fn bench_session_emitter(c: &mut Criterion) {
    let planner = SessionPlanner::paper_default(paper_vocabulary(3));
    let keepalive = SimDuration::from_secs_f64(45.0);
    let mut rng = StdRng::seed_from_u64(21);
    let plan = ultrapeer_plan(&planner, &mut rng);

    let mut group = c.benchmark_group("farcloud_emitter");
    group.throughput(Throughput::Elements(1_000));
    group.bench_with_input(BenchmarkId::new("start", "ultrapeer"), &plan, |b, plan| {
        let mut rng = StdRng::seed_from_u64(22);
        b.iter(|| {
            for i in 0..1_000u64 {
                let now = SimTime::ZERO + SimDuration::from_secs_f64(i as f64);
                black_box(SessionEmitter::start(plan, keepalive, now, &mut rng));
            }
        })
    });
    group.finish();

    c.bench_function("farcloud_emitter/drain", |b| {
        let mut rng = StdRng::seed_from_u64(23);
        let em = SessionEmitter::start(&plan, keepalive, SimTime::ZERO, &mut rng);
        b.iter(|| {
            let mut em = em.clone();
            let mut rng = StdRng::seed_from_u64(24);
            let mut counts = [0u64; 6];
            while let Some((at, kind)) = em.next(&plan, &mut rng) {
                let slot = match kind {
                    EmissionKind::Planned(_) => 0,
                    EmissionKind::Keepalive => 1,
                    EmissionKind::RelayQuery => 2,
                    EmissionKind::RelayPong => 3,
                    EmissionKind::RelayHit => 4,
                    EmissionKind::End => 5,
                };
                counts[slot] += 1;
                black_box(at);
            }
            black_box(counts)
        })
    });
}

criterion_group!(
    benches,
    bench_relay_draws,
    bench_arrival_layer,
    bench_session_emitter
);
criterion_main!(benches);
