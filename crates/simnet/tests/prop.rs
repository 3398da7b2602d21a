//! Property tests for the simulation engine.

use proptest::prelude::*;
use simnet::{EventQueue, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One step of the interleaved push/pop model check. Push delays are
/// relative to the latest popped time so the workload tracks the
/// queue's moving horizon; the ranges are chosen to land in each wheel
/// level (L0 < 512 ms, L1 < 512 s, L2 < ~37 h) and the far heap beyond.
#[derive(Debug, Clone)]
enum QueueOp {
    Push(u64),
    /// Push at exactly the current time: exact-tie burst material.
    PushTie,
    Pop,
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    // `Pop` appears twice: the vendored `prop_oneof!` is unweighted, and
    // pops should run at roughly the combined push rate so the cursor
    // advances through frame/chunk boundaries mid-sequence.
    prop_oneof![
        (0u64..512).prop_map(QueueOp::Push),
        (512u64..262_144).prop_map(QueueOp::Push),
        (262_144u64..134_479_872).prop_map(QueueOp::Push),
        (134_479_872u64..500_000_000).prop_map(QueueOp::Push),
        Just(QueueOp::PushTie),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn time_arithmetic_consistency(a in 0u64..1_000_000_000, d in 0u64..1_000_000_000) {
        let t = SimTime::from_millis(a);
        let dur = SimDuration::from_millis(d);
        let t2 = t + dur;
        prop_assert_eq!(t2 - t, dur);
        prop_assert_eq!(t2.since(t), dur);
        // Subtraction saturates instead of wrapping.
        prop_assert_eq!(t - t2, SimDuration::ZERO);
    }

    #[test]
    fn day_and_hour_decomposition(ms in 0u64..(100 * 86_400_000)) {
        let t = SimTime::from_millis(ms);
        let reconstructed = t.day() * 24 + u64::from(t.hour_of_day());
        prop_assert_eq!(reconstructed, t.as_secs() / 3_600);
        prop_assert!(t.hour_of_day() < 24);
    }

    #[test]
    fn queue_is_stable_within_equal_times(
        entries in proptest::collection::vec((0u64..100, any::<u16>()), 1..300),
    ) {
        let mut q = EventQueue::new();
        for (i, &(t, tag)) in entries.iter().enumerate() {
            q.push(SimTime::from_millis(t), (i, tag));
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0usize;
        while let Some((at, (idx, _))) = q.pop() {
            popped += 1;
            if let Some((pt, pidx)) = last {
                prop_assert!(at >= pt, "time order violated");
                if at == pt {
                    prop_assert!(idx > pidx, "FIFO violated at equal timestamps");
                }
            }
            last = Some((at, idx));
        }
        prop_assert_eq!(popped, entries.len());
    }

    /// Model check against a reference `BinaryHeap<Reverse<(time, push
    /// index)>>`: interleaved pushes and pops must pop the exact same
    /// `(time, payload)` sequence, where each payload is its push index,
    /// the FIFO tie-break among equal times. Push horizons span every
    /// wheel level plus the far heap, pops interleave so the cursor
    /// crosses frame and chunk boundaries mid-stream, and `PushTie`
    /// manufactures exact-timestamp bursts that exercise the FIFO
    /// tie-break.
    #[test]
    fn wheel_matches_binary_heap_model(
        ops in proptest::collection::vec(queue_op(), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut next_id = 0u64;
        let check_pop = |q: &mut EventQueue<u64>,
                         model: &mut BinaryHeap<Reverse<(u64, u64)>>,
                         now: &mut u64| {
            let got = q.pop();
            let want = model.pop();
            match (got, want) {
                (None, None) => {}
                (Some((at, id)), Some(Reverse((mt, mid)))) => {
                    prop_assert_eq!(at.as_millis(), mt, "pop time diverged from model");
                    prop_assert_eq!(id, mid, "pop order diverged from model");
                    *now = mt;
                }
                (g, w) => prop_assert!(false, "emptiness diverged: queue {g:?} vs model {w:?}"),
            }
        };
        for op in &ops {
            let delay = match op {
                QueueOp::Push(d) => Some(*d),
                QueueOp::PushTie => Some(0),
                QueueOp::Pop => None,
            };
            if let Some(delay) = delay {
                let at = now + delay;
                let id = next_id;
                next_id += 1;
                q.push(SimTime::from_millis(at), id);
                model.push(Reverse((at, id)));
            } else {
                check_pop(&mut q, &mut model, &mut now);
            }
        }
        // Drain to empty: both sides must agree on every remaining event
        // and on when they run out.
        while !model.is_empty() || !q.is_empty() {
            check_pop(&mut q, &mut model, &mut now);
        }
        prop_assert_eq!(q.len(), 0usize);
    }
}

/// Fixed-seed regression: a smoke-campaign-shaped workload (every wheel
/// level plus the far heap, with interleaved partial drains) must keep
/// popping in exactly the order it does today. The pinned digest is the
/// FNV-1a of the full pop stream, hashing each event's time, its push
/// index (the queue's own sequence number: a fresh queue numbers pushes
/// from 0) and its payload, which is that same index — any reordering or
/// lost/duplicated event changes it.
#[test]
fn fixed_seed_pop_order_regression() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x5eed_2026);
    let mut q = EventQueue::new();
    let mut now = 0u64;
    let mut id = 0u64;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let fnv = |h: &mut u64, v: u64| {
        for b in v.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    let mut popped = 0u64;
    for round in 0..64 {
        // A burst of pushes across all horizons, some exact ties.
        for _ in 0..48 {
            let delay = match rng.gen_range(0..6u32) {
                0 => 0,
                1 => rng.gen_range(0..512),
                2 => rng.gen_range(512..262_144),
                3 => rng.gen_range(262_144..134_479_872),
                _ => rng.gen_range(134_479_872..500_000_000),
            };
            q.push(SimTime::from_millis(now + delay), id);
            id += 1;
        }
        // Partial drain so later rounds push relative to a cursor that
        // has crossed frame/chunk boundaries; the final round drains all.
        let drain = if round == 63 { usize::MAX } else { 24 };
        for _ in 0..drain {
            let Some((at, pid)) = q.pop() else { break };
            fnv(&mut h, at.as_millis());
            fnv(&mut h, pid);
            fnv(&mut h, pid);
            popped += 1;
            now = at.as_millis();
        }
    }
    assert_eq!(popped, 64 * 48, "every pushed event pops once");
    assert_eq!(q.popped(), 64 * 48);
    assert!(q.far_pushed() > 0, "workload must exercise the far heap");
    assert!(q.cascades() > 0, "workload must exercise L1/L2 cascades");
    // Pinned pop-order digest of the first 63 partial drains. If an
    // intentional queue change reorders pops, re-pin after re-verifying
    // the model-check property above passes.
    assert_eq!(h, PINNED_POP_DIGEST, "pop order changed for the fixed seed");
}

const PINNED_POP_DIGEST: u64 = 6_465_657_190_714_289_166;
