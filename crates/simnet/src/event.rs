//! The event queue: a hierarchical timing wheel backed by a 4-ary
//! min-heap overflow for the truly far future.
//!
//! Ordering contract: events pop in ascending `(time, lane, key, seq)`
//! order. The `(lane, key)` pair is an optional caller-supplied ordering
//! key (see [`EventQueue::push_keyed`]); unkeyed pushes get the maximum
//! lane, so among themselves they pop in FIFO (sequence) order at equal
//! timestamps — the property that makes runs reproducible regardless of
//! queue internals.
//!
//! # Why a hierarchy of wheels
//!
//! Campaign workloads schedule three very different kinds of events:
//! message deliveries a few tens of milliseconds out, behavioral timers
//! seconds to minutes out (think times, keepalives, probes), and
//! hour-scale timers (the arrival driver's hour tick, session ends,
//! diurnal phases).
//! A single heap is the worst structure for that mix: the pending set is
//! dominated by far-future timers, so a near-future delivery sifts past
//! almost all of them to reach the root. A single flat wheel is barely
//! better — anything beyond its window spills to the heap and later
//! migrates back, two extra ordered-structure operations that previously
//! hit ~a third of all popped events.
//!
//! [`SimTime`] has millisecond resolution, so the near future is
//! discretized exactly. Three levels of `WHEEL_SLOTS` buckets each
//! cover geometrically wider horizons:
//!
//! - **L0**: 1 ms per bucket — the window `[start, start + 512 ms)`.
//! - **L1**: one 512 ms *frame* per bucket — out to ~4.4 minutes.
//! - **L2**: one 512-frame (≈4.4 min) *chunk* per bucket — out to
//!   ~37 hours.
//!
//! Events beyond the L2 horizon wait in a 4-ary overflow min-heap
//! (`far`), which now holds only multi-day timers. An event is inserted
//! at the lowest level whose window covers it, sits there until
//! simulated time enters its frame/chunk, then *cascades* one level
//! down — at most two cheap moves over its whole lifetime, replacing
//! the old heap-spill + sift + migrate round-trip.
//!
//! Bucket indices are time-aligned: level-`k` slot `i` holds the spans
//! whose index (`ms`, `ms / 512`, or `ms / 512²`) is congruent to `i`
//! modulo 512. Each level's admission window spans at most 512
//! consecutive spans, so a slot never mixes two spans. Per-level
//! occupancy bitmaps (8 × `u64` per level) let [`EventQueue::pop`] jump
//! straight to the next pending instant instead of stepping empty
//! buckets one millisecond at a time; advancement always targets the
//! global minimum pending timestamp, so only the entered frame's and
//! chunk's buckets ever need cascading.
//!
//! # One node slab
//!
//! Every wheel event lives in one node of a single slab (`Vec<Node<E>>`)
//! holding its ordering key, its payload and the index of the next node
//! in its bucket. A bucket is just the `u32` index of its first node, so
//! each level is 512 list heads, and freed nodes form a LIFO free list
//! threaded through the same `next` field. The slab therefore grows only
//! when every node is in use: its length is the high-water mark of
//! wheel-resident events, never more than [`EventQueue::peak_len`], and a
//! bucket keeps no capacity after it drains. A cascade relinks a node's
//! index into a lower level's list; key and payload stay where they
//! are. A far event moves its payload into a node once, on migration.
//!
//! Bucket contents are unordered: the pop side walks the cursor
//! bucket's list for its full-key minimum (campaign buckets hold
//! 1.2–1.5 events at pop on average, so the walk is a few comparisons),
//! which makes link order — direct push, cascade, or far-heap migration
//! — irrelevant to pop order. That is what keeps the pop sequence
//! bit-identical to a reference sort on `(time, lane, key, seq)` no
//! matter which path an event took. The price is paid by a bucket
//! holding many events at once: each pop walks the whole list, node by
//! node.
//!
//! The engine only schedules at or after the current instant, but the
//! queue still accepts pushes "in the past" (before the last popped
//! event); they land in the cursor bucket, whose min-scan handles the
//! mixed timestamps.

use crate::time::SimTime;

const ARITY: usize = 4;

/// Number of buckets per wheel level; each level's window covers
/// `WHEEL_SLOTS` spans of geometrically increasing width. Sized so
/// typical link latencies (tens of milliseconds) land deep inside the
/// innermost window.
const WHEEL_SLOTS: usize = 512;

/// Millisecond span of one L1 bucket (one *frame*).
const FRAME_MS: u64 = WHEEL_SLOTS as u64;

/// Millisecond span of one L2 bucket (one *chunk*): 512 frames,
/// ≈ 4.4 minutes; the full L2 window covers ≈ 37 hours.
const CHUNK_MS: u64 = FRAME_MS * WHEEL_SLOTS as u64;

/// Occupancy bitmap: one bit per bucket of a 512-slot wheel level.
type Occupancy = [u64; WHEEL_SLOTS / 64];

/// List end: the head of an empty bucket, the `next` of a bucket's last
/// node, and the head of an empty free list.
const NIL: u32 = u32::MAX;

/// Lane assigned to events scheduled without an explicit ordering key
/// ([`EventQueue::push`]): they sort after every keyed event at the same
/// instant, in FIFO (sequence) order among themselves.
pub const UNKEYED_LANE: u32 = u32::MAX;

/// The full ordering key of a scheduled event. Derived `Ord` gives the
/// pop order contract directly: ascending `(at, lane, key, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    at: SimTime,
    /// Ordering lane: who scheduled the event. Ties at the same instant
    /// pop in ascending `(lane, key, seq)` order, which lets two
    /// different executions (e.g. full and hybrid fidelity) agree on
    /// tie order without agreeing on global sequence numbers.
    lane: u32,
    /// Per-lane ordering key (a lane-local schedule counter).
    key: u64,
    seq: u64,
}

/// A scheduled event in the far overflow heap, which sifts whole
/// elements and therefore keeps key and payload together.
#[derive(Debug)]
struct Scheduled<E> {
    k: EventKey,
    payload: E,
}

impl<E> Scheduled<E> {
    #[inline]
    fn key(&self) -> EventKey {
        self.k
    }
}

/// One slab node: a wheel event linked into its bucket's list, or a
/// free node linked into the free list (`payload` is `None` then).
#[derive(Debug)]
struct Node<E> {
    k: EventKey,
    next: u32,
    payload: Option<E>,
}

#[inline]
fn bit_set(occ: &mut Occupancy, idx: usize) {
    occ[idx / 64] |= 1u64 << (idx % 64);
}

#[inline]
fn bit_clear(occ: &mut Occupancy, idx: usize) {
    occ[idx / 64] &= !(1u64 << (idx % 64));
}

/// First occupied slot at or after `from`, scanning circularly through
/// all 512 slots; returns the absolute slot index.
fn next_occupied(occ: &Occupancy, from: usize) -> Option<usize> {
    let w0 = from / 64;
    let b0 = from % 64;
    let first = occ[w0] & (!0u64 << b0);
    if first != 0 {
        return Some(w0 * 64 + first.trailing_zeros() as usize);
    }
    for k in 1..=occ.len() {
        let wi = (w0 + k) % occ.len();
        let w = if k == occ.len() {
            // Wrapped back to the first word: only the bits below `from`.
            occ[wi] & (1u64 << b0).wrapping_sub(1)
        } else {
            occ[wi]
        };
        if w != 0 {
            return Some(wi * 64 + w.trailing_zeros() as usize);
        }
    }
    None
}

/// Min-queue of scheduled events with stable FIFO ordering at equal
/// timestamps. See the module docs for the hierarchical-wheel +
/// overflow-heap design.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Every wheel-resident event, plus the free nodes.
    slab: Vec<Node<E>>,
    /// First free slab node (LIFO), or `NIL`.
    free: u32,
    /// L0: one list head per millisecond of `[start, start + 512)`;
    /// `l0[cursor]` is the instant `start` (plus any past pushes).
    l0: [u32; WHEEL_SLOTS],
    /// L1: one list head per 512 ms frame, frames `(start/512, start/512 + 512]`.
    l1: [u32; WHEEL_SLOTS],
    /// L2: one list head per ≈4.4 min chunk, chunks `(start/512², start/512² + 512]`.
    l2: [u32; WHEEL_SLOTS],
    occ0: Occupancy,
    occ1: Occupancy,
    occ2: Occupancy,
    cursor: usize,
    /// Absolute millisecond the cursor bucket represents.
    start: u64,
    /// Exclusive upper bounds of each level's admission window,
    /// refreshed whenever `start` advances: `start + 512`,
    /// `(start/512 + 513) · 512`, `(start/512² + 513) · 512²`.
    l0_limit: u64,
    l1_limit: u64,
    l2_limit: u64,
    l0_len: usize,
    l1_len: usize,
    l2_len: usize,
    /// Overflow 4-ary min-heap for events at or beyond the L2 horizon
    /// (≳ 37 hours out).
    far: Vec<Scheduled<E>>,
    next_seq: u64,
    popped: u64,
    peak_len: usize,
    /// Pushes that overflowed every wheel window into the far heap.
    far_pushed: u64,
    /// Far events migrated into wheel buckets.
    migrated: u64,
    /// Level-down moves (L2→L1/L0, L1→L0) as time entered an event's
    /// chunk or frame. An event cascading twice counts twice.
    cascades: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            l0: [NIL; WHEEL_SLOTS],
            l1: [NIL; WHEEL_SLOTS],
            l2: [NIL; WHEEL_SLOTS],
            occ0: [0; WHEEL_SLOTS / 64],
            occ1: [0; WHEEL_SLOTS / 64],
            occ2: [0; WHEEL_SLOTS / 64],
            cursor: 0,
            start: 0,
            l0_limit: WHEEL_SLOTS as u64,
            l1_limit: (WHEEL_SLOTS as u64 + 1) * FRAME_MS,
            l2_limit: (WHEEL_SLOTS as u64 + 1) * CHUNK_MS,
            l0_len: 0,
            l1_len: 0,
            l2_len: 0,
            far: Vec::new(),
            next_seq: 0,
            popped: 0,
            peak_len: 0,
            far_pushed: 0,
            migrated: 0,
            cascades: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Unkeyed events sort after all keyed events at the same instant,
    /// FIFO among themselves.
    pub fn push(&mut self, at: SimTime, payload: E) {
        self.push_keyed(at, UNKEYED_LANE, u64::MAX, payload)
    }

    /// Schedule `payload` at `at` with an explicit `(lane, key)` ordering
    /// pair. Events at the same instant pop in ascending
    /// `(lane, key, seq)` order; callers that key every trace-affecting
    /// event get a pop order that is a pure function of `(at, lane, key)`
    /// — independent of how many *other* events were scheduled in
    /// between, which is what lets an elided-fidelity execution replay
    /// the exact tie order of the full one.
    pub fn push_keyed(&mut self, at: SimTime, lane: u32, key: u64, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let k = EventKey { at, lane, key, seq };
        if at.as_millis() < self.l2_limit {
            let i = self.alloc(k, payload);
            self.link(i);
        } else {
            heap_push(&mut self.far, Scheduled { k, payload });
            self.far_pushed += 1;
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Store an event in a slab node, reusing the most recently freed
    /// one if any; returns the node's index, not yet linked anywhere.
    fn alloc(&mut self, k: EventKey, payload: E) -> u32 {
        if self.free != NIL {
            let i = self.free;
            let node = &mut self.slab[i as usize];
            self.free = node.next;
            node.k = k;
            node.payload = Some(payload);
            return i;
        }
        let i = u32::try_from(self.slab.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("fewer than u32::MAX wheel events pending");
        self.slab.push(Node {
            k,
            next: NIL,
            payload: Some(payload),
        });
        i
    }

    /// Link node `i` at the head of its bucket in the lowest level whose
    /// admission window covers it. Also the landing spot for cascades
    /// and far migrations: both run after the window limits advance, so
    /// a relinked event never climbs a level. The node's time must lie
    /// inside the L2 window.
    fn link(&mut self, i: u32) {
        let ms = self.slab[i as usize].k.at.as_millis();
        let head = if ms < self.l0_limit {
            // `ms <= start` covers pushes at or before the cursor
            // instant; both belong in the cursor bucket.
            let idx = if ms <= self.start {
                self.cursor
            } else {
                (ms % WHEEL_SLOTS as u64) as usize
            };
            bit_set(&mut self.occ0, idx);
            self.l0_len += 1;
            &mut self.l0[idx]
        } else if ms < self.l1_limit {
            let idx = ((ms / FRAME_MS) % WHEEL_SLOTS as u64) as usize;
            bit_set(&mut self.occ1, idx);
            self.l1_len += 1;
            &mut self.l1[idx]
        } else {
            debug_assert!(ms < self.l2_limit, "linked an event past the L2 horizon");
            let idx = ((ms / CHUNK_MS) % WHEEL_SLOTS as u64) as usize;
            bit_set(&mut self.occ2, idx);
            self.l2_len += 1;
            &mut self.l2[idx]
        };
        self.slab[i as usize].next = *head;
        *head = i;
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::from_millis(u64::MAX))
    }

    /// Pop the earliest event if its time is at or before `limit`;
    /// leave the queue untouched otherwise. The limit is checked against
    /// the minimum the pop finds anyway — the cursor bucket's walk, or
    /// on an empty cursor bucket the occupancy-bitmap search for the
    /// next instant, before the wheel advances — so a bounded event loop
    /// pays one bucket walk per event, and a refused pop moves nothing.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.is_empty() {
            return None;
        }
        if self.l0[self.cursor] == NIL {
            let t = self.next_event_ms();
            if t > limit.as_millis() {
                return None;
            }
            self.advance_to(t);
        }
        let head = self.l0[self.cursor];
        debug_assert!(head != NIL, "advance landed on an empty bucket");
        // Buckets are unordered with respect to `(lane, key)` (and the
        // cursor bucket can also mix timestamps); take the full-key
        // minimum, remembering its predecessor for the unlink. The full
        // key is a strict total order (`seq` is unique), so link order
        // within the bucket carries no information.
        let first = &self.slab[head as usize];
        let (mut min, mut min_prev, mut min_k) = (head, NIL, first.k);
        let (mut prev, mut i) = (head, first.next);
        while i != NIL {
            let node = &self.slab[i as usize];
            if node.k < min_k {
                (min, min_prev, min_k) = (i, prev, node.k);
            }
            prev = i;
            i = node.next;
        }
        if min_k.at > limit {
            return None;
        }
        let node = &mut self.slab[min as usize];
        let next = node.next;
        let payload = node.payload.take().expect("a linked node holds a payload");
        node.next = self.free;
        self.free = min;
        if min_prev == NIL {
            self.l0[self.cursor] = next;
            if next == NIL {
                bit_clear(&mut self.occ0, self.cursor);
            }
        } else {
            self.slab[min_prev as usize].next = next;
        }
        self.l0_len -= 1;
        self.popped += 1;
        Some((min_k.at, payload))
    }

    /// Earliest timestamp in the bucket list that starts at node `i`, in
    /// milliseconds (`u64::MAX` for an empty list).
    fn min_at_ms(&self, mut i: u32) -> u64 {
        let mut best = u64::MAX;
        while i != NIL {
            let node = &self.slab[i as usize];
            best = best.min(node.k.at.as_millis());
            i = node.next;
        }
        best
    }

    /// Earliest pending timestamp in milliseconds. Requires at least one
    /// pending event and an empty cursor bucket.
    ///
    /// Levels bound each other from below — every L1 event sits in a
    /// frame after the current one, every L2 event in a later chunk, and
    /// far events beyond the L2 horizon — so each level is consulted
    /// only when its lower bound could still beat the running minimum.
    fn next_event_ms(&self) -> u64 {
        let mut best = u64::MAX;
        if self.l0_len > 0 {
            let from = (self.cursor + 1) % WHEEL_SLOTS;
            if let Some(pos) = next_occupied(&self.occ0, from) {
                let steps = (pos + WHEEL_SLOTS - from) % WHEEL_SLOTS;
                best = self.start + 1 + steps as u64;
            }
        }
        if self.l1_len > 0 {
            let frame0 = self.start / FRAME_MS + 1;
            if frame0.saturating_mul(FRAME_MS) < best {
                let from = (frame0 % WHEEL_SLOTS as u64) as usize;
                let pos = next_occupied(&self.occ1, from).expect("l1_len > 0");
                let steps = (pos + WHEEL_SLOTS - from) % WHEEL_SLOTS;
                let frame = frame0 + steps as u64;
                if frame.saturating_mul(FRAME_MS) < best {
                    // Frames are disjoint ascending spans, so the first
                    // occupied frame contains the level's minimum.
                    best = best.min(self.min_at_ms(self.l1[pos]));
                }
            }
        }
        if self.l2_len > 0 {
            let chunk0 = self.start / CHUNK_MS + 1;
            if chunk0.saturating_mul(CHUNK_MS) < best {
                let from = (chunk0 % WHEEL_SLOTS as u64) as usize;
                let pos = next_occupied(&self.occ2, from).expect("l2_len > 0");
                let steps = (pos + WHEEL_SLOTS - from) % WHEEL_SLOTS;
                let chunk = chunk0 + steps as u64;
                if chunk.saturating_mul(CHUNK_MS) < best {
                    best = best.min(self.min_at_ms(self.l2[pos]));
                }
            }
        }
        if let Some(top) = self.far.first() {
            best = best.min(top.k.at.as_millis());
        }
        debug_assert!(best != u64::MAX, "next_event_ms on an empty queue");
        best
    }

    /// Advance the wheel to `t`, the globally earliest pending
    /// timestamp, cascading the newly entered chunk and frame down a
    /// level and migrating far events that came inside the L2 horizon.
    ///
    /// Because `t` is the global minimum, no pending event lives in any
    /// frame or chunk that the jump skips over — only the entered ones
    /// can be occupied, so a single bucket per level needs draining.
    fn advance_to(&mut self, t: u64) {
        debug_assert!(t > self.start, "advance must move forward");
        let old_frame = self.start / FRAME_MS;
        let old_chunk = self.start / CHUNK_MS;
        let new_frame = t / FRAME_MS;
        let new_chunk = t / CHUNK_MS;
        self.start = t;
        self.cursor = (t % WHEEL_SLOTS as u64) as usize;
        self.l0_limit = t + WHEEL_SLOTS as u64;
        self.l1_limit = (new_frame + WHEEL_SLOTS as u64 + 1).saturating_mul(FRAME_MS);
        self.l2_limit = (new_chunk + WHEEL_SLOTS as u64 + 1).saturating_mul(CHUNK_MS);
        if new_chunk != old_chunk {
            // Far events now inside the L2 horizon enter the wheel once
            // and never return to the heap (their timestamps sit below
            // every freshly raised window limit).
            while self
                .far
                .first()
                .is_some_and(|s| s.k.at.as_millis() < self.l2_limit)
            {
                let s = heap_pop(&mut self.far);
                self.migrated += 1;
                let i = self.alloc(s.k, s.payload);
                self.link(i);
            }
            let b = (new_chunk % WHEEL_SLOTS as u64) as usize;
            let head = std::mem::replace(&mut self.l2[b], NIL);
            bit_clear(&mut self.occ2, b);
            self.l2_len -= self.cascade(head);
        }
        if new_frame != old_frame {
            let b = (new_frame % WHEEL_SLOTS as u64) as usize;
            let head = std::mem::replace(&mut self.l1[b], NIL);
            bit_clear(&mut self.occ1, b);
            self.l1_len -= self.cascade(head);
        }
    }

    /// Relink every node of the detached bucket list `head`; returns how
    /// many moved. An event of the span 512 slots on (which a far
    /// migration or an L2 cascade can link into the slot before it
    /// drains) lands back in the drained slot.
    fn cascade(&mut self, mut i: u32) -> usize {
        let mut moved = 0;
        while i != NIL {
            let next = self.slab[i as usize].next;
            self.link(i);
            moved += 1;
            i = next;
        }
        self.cascades += moved as u64;
        moved
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.l0_len + self.l1_len + self.l2_len + self.far.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events popped so far (engine statistics).
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// High-water mark of pending events over the queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Pushes that landed in the overflow heap (beyond every wheel
    /// level's window, ≳ 37 hours out) over the queue's lifetime.
    pub fn far_pushed(&self) -> u64 {
        self.far_pushed
    }

    /// Far events migrated into wheel buckets as the window advanced.
    pub fn migrated(&self) -> u64 {
        self.migrated
    }

    /// Level-down cascade moves (L2→L1/L0, L1→L0) over the queue's
    /// lifetime; an event entering at L2 and leaving via L0 counts two.
    pub fn cascades(&self) -> u64 {
        self.cascades
    }
}

fn heap_push<E>(heap: &mut Vec<Scheduled<E>>, s: Scheduled<E>) {
    heap.push(s);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / ARITY;
        if heap[i].key() < heap[parent].key() {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn heap_pop<E>(heap: &mut Vec<Scheduled<E>>) -> Scheduled<E> {
    let last = heap.len() - 1;
    heap.swap(0, last);
    let s = heap.pop().expect("non-empty heap");
    let len = heap.len();
    let mut i = 0;
    loop {
        let first = ARITY * i + 1;
        if first >= len {
            break;
        }
        let end = (first + ARITY).min(len);
        let mut min = first;
        let mut min_key = heap[first].key();
        for (off, s) in heap[first + 1..end].iter().enumerate() {
            let k = s.key();
            if k < min_key {
                min = first + 1 + off;
                min_key = k;
            }
        }
        if min_key < heap[i].key() {
            heap.swap(i, min);
            i = min;
        } else {
            break;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(3), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), 10);
        q.push(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        q.push(SimTime::from_secs(5), 5);
        q.push(SimTime::from_secs(1), 1); // in the "past" — still pops first
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 10);
        assert!(q.pop().is_none());
        assert_eq!(q.popped(), 4);
    }

    /// The earliest instant, observed through bounded pops: one limit
    /// short of it pops nothing and leaves the length alone.
    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(u64::MAX)), None);
        q.push(SimTime::from_secs(4), ());
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(1_999)), None);
        assert_eq!(q.len(), 2);
        let (at, ()) = q.pop_at_or_before(SimTime::from_secs(2)).unwrap();
        assert_eq!(at, SimTime::from_secs(2));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        for i in 0..5 {
            q.push(SimTime::from_secs(i), i);
        }
        assert_eq!(q.peak_len(), 5);
        q.pop();
        q.pop();
        // Draining does not lower the mark…
        assert_eq!(q.peak_len(), 5);
        // …and the mark only moves when the live length exceeds it.
        q.push(SimTime::from_secs(9), 9);
        assert_eq!(q.peak_len(), 5);
        for i in 10..14 {
            q.push(SimTime::from_secs(i), i);
        }
        assert_eq!(q.peak_len(), 8);
    }

    /// An out-of-window event and a direct push landing on the same
    /// instant must pop in sequence order even though they took
    /// different paths (coarse level + cascade vs. straight to an L0
    /// bucket).
    #[test]
    fn cascade_preserves_fifo_across_paths() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(10_000); // beyond the L0 window
        q.push(t, "coarse-path"); // seq 0
        q.push(SimTime::from_millis(1), "near"); // seq 1
        assert_eq!(q.pop().unwrap().1, "near");
        // The window has advanced to 1 ms; t is still beyond it. The
        // next pop jumps straight to t, cascading the coarse event into
        // its L0 bucket — a direct push at t must queue *behind* it.
        q.push(t, "direct-path"); // seq 2
        assert_eq!(q.pop().unwrap(), (t, "coarse-path"));
        assert_eq!(q.pop().unwrap(), (t, "direct-path"));
        assert!(q.pop().is_none());
    }

    /// Same, but spanning the L2 window and the far overflow heap: a
    /// multi-day timer heap-spills, then migrates down through the
    /// levels as pops re-anchor the wheel at its chunk.
    #[test]
    fn far_heap_preserves_fifo_across_levels() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(40 * 3_600_000); // 40 h: beyond L2
        q.push(t, "far-path"); // seq 0
        assert_eq!(q.far_pushed(), 1);
        q.push(SimTime::from_millis(3), "near"); // seq 1
        assert_eq!(q.pop().unwrap().1, "near");
        q.push(t, "direct-path"); // seq 2 — still beyond L2 from 3 ms
        assert_eq!(q.pop().unwrap(), (t, "far-path"));
        assert_eq!(q.pop().unwrap(), (t, "direct-path"));
        assert!(q.pop().is_none());
        assert_eq!(q.migrated(), 2);
    }

    /// The hierarchy must order exactly like a reference sort on
    /// `(time, insertion sequence)` under heavy interleaved churn, with
    /// delays spanning the L0/L1 boundary.
    #[test]
    fn matches_reference_order_under_churn() {
        let mut rng = StdRng::seed_from_u64(12345);
        let mut q = EventQueue::new();
        let mut reference: Vec<(SimTime, u64)> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut next_tag = 0u64;
        for round in 0..2_000 {
            let pushes = rng.gen_range(0..4);
            for _ in 0..pushes {
                let at = now + crate::time::SimDuration::from_millis(rng.gen_range(0..5_000));
                q.push(at, next_tag);
                reference.push((at, next_tag));
                next_tag += 1;
            }
            if round % 3 == 0 {
                if let Some((at, tag)) = q.pop() {
                    now = at;
                    reference.sort();
                    let expect = reference.remove(0);
                    assert_eq!((at, tag), expect);
                }
            }
        }
        reference.sort();
        for expect in reference {
            assert_eq!(q.pop().unwrap(), expect);
        }
        assert!(q.pop().is_none());
    }

    /// Same churn, but with sparse bursts separated by long idle gaps so
    /// the wheel repeatedly drains and re-anchors via the jump path.
    #[test]
    fn matches_reference_order_across_idle_gaps() {
        let mut rng = StdRng::seed_from_u64(999);
        let mut q = EventQueue::new();
        let mut reference: Vec<(SimTime, u64)> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut next_tag = 0u64;
        for _burst in 0..50 {
            for _ in 0..rng.gen_range(1..6) {
                // Mix of in-window and multi-minute delays.
                let delay = if rng.gen_bool(0.5) {
                    rng.gen_range(0..400)
                } else {
                    rng.gen_range(60_000..300_000)
                };
                let at = now + crate::time::SimDuration::from_millis(delay);
                q.push(at, next_tag);
                reference.push((at, next_tag));
                next_tag += 1;
            }
            for _ in 0..rng.gen_range(0..4) {
                if let Some(got) = q.pop() {
                    now = got.0;
                    reference.sort();
                    assert_eq!(got, reference.remove(0));
                }
            }
        }
        reference.sort();
        for expect in reference {
            assert_eq!(q.pop().unwrap(), expect);
        }
    }

    /// As above, but with horizons spanning every level — L0 deliveries,
    /// L1 think times, L2 hour-scale timers, and multi-day far spills —
    /// so cascades and heap migrations interleave.
    #[test]
    fn matches_reference_order_across_all_levels() {
        let mut rng = StdRng::seed_from_u64(4242);
        let mut q = EventQueue::new();
        let mut reference: Vec<(SimTime, u64)> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut next_tag = 0u64;
        for _burst in 0..40 {
            for _ in 0..rng.gen_range(1..8) {
                let delay = match rng.gen_range(0..4) {
                    0 => rng.gen_range(0..512),                   // L0
                    1 => rng.gen_range(512..262_144),             // L1
                    2 => rng.gen_range(262_144..134_479_872),     // L2
                    _ => rng.gen_range(134_479_872..500_000_000), // far
                };
                let at = now + crate::time::SimDuration::from_millis(delay);
                q.push(at, next_tag);
                reference.push((at, next_tag));
                next_tag += 1;
            }
            for _ in 0..rng.gen_range(0..5) {
                if let Some(got) = q.pop() {
                    now = got.0;
                    reference.sort();
                    assert_eq!(got, reference.remove(0));
                }
            }
        }
        reference.sort();
        for expect in reference {
            assert_eq!(q.pop().unwrap(), expect);
        }
        assert!(q.far_pushed() > 0, "workload never reached the far heap");
        assert!(q.cascades() > 0, "workload never cascaded");
    }

    /// Keyed events at the same instant pop in `(lane, key)` order no
    /// matter the push order, and unkeyed events sort after all of them.
    #[test]
    fn keyed_events_order_by_lane_then_key() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, "unkeyed-0");
        q.push_keyed(t, 2, 7, "lane2-key7");
        q.push_keyed(t, 0, 9, "lane0-key9");
        q.push_keyed(t, 2, 3, "lane2-key3");
        q.push_keyed(t, 0, 1, "lane0-key1");
        q.push(t, "unkeyed-1");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(
            order,
            [
                "lane0-key1",
                "lane0-key9",
                "lane2-key3",
                "lane2-key7",
                "unkeyed-0",
                "unkeyed-1",
            ]
        );
    }

    /// The keyed order survives the coarse levels and cascade paths.
    #[test]
    fn keyed_events_order_across_levels() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(60_000); // beyond the L0 window
        q.push_keyed(t, 5, 0, "b");
        q.push_keyed(t, 1, 4, "a");
        q.push(SimTime::from_millis(1), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        q.push_keyed(t, 0, 2, "direct"); // still coarse from 1 ms
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["direct", "a", "b"]);
    }

    /// Bounded pop stops at the limit without disturbing the queue,
    /// both when the earliest event sits in the cursor bucket (scan
    /// path) and when reaching it would require advancing the wheel
    /// (bitmap path).
    #[test]
    fn bounded_pop_respects_limit() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(100), "far-ish");
        q.push(SimTime::from_millis(700_000), "l1");
        // Earliest event is beyond the limit: nothing pops, nothing moves.
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(99)), None);
        assert_eq!(q.len(), 2);
        // Within the limit: pops normally.
        let (at, p) = q.pop_at_or_before(SimTime::from_millis(100)).unwrap();
        assert_eq!((at, p), (SimTime::from_millis(100), "far-ish"));
        // The L1 resident needs a wheel advance; the limit check happens
        // before the advance, so a refused pop leaves the cursor alone.
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(500_000)), None);
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(699_999)), None);
        assert_eq!(q.len(), 1);
        let (at, p) = q.pop_at_or_before(SimTime::from_millis(u64::MAX)).unwrap();
        assert_eq!((at, p), (SimTime::from_millis(700_000), "l1"));
        assert!(q.is_empty());
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(u64::MAX)), None);
    }

    /// Queue memory follows pending events, not pushes: 120 000 events
    /// churn through every wheel level and the far heap with at most
    /// 1 000 pending, and the node slab never grows past the high-water
    /// mark of pending events, because freed nodes are reused.
    #[test]
    fn slab_stays_within_peak_len_under_churn() {
        const PENDING: usize = 1_000;
        let mut rng = StdRng::seed_from_u64(0x51ab);
        let mut q = EventQueue::new();
        let delay = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => rng.gen_range(0..512),                   // L0
            1 => rng.gen_range(512..262_144),             // L1
            2 => rng.gen_range(262_144..134_479_872),     // L2
            _ => rng.gen_range(134_479_872..500_000_000), // far
        };
        for i in 0..PENDING as u64 {
            q.push(SimTime::from_millis(delay(&mut rng)), i);
        }
        let mut saw_l2 = false;
        for i in PENDING as u64..120_000 {
            let (at, _) = q.pop().expect("the queue holds PENDING events");
            q.push(SimTime::from_millis(at.as_millis() + delay(&mut rng)), i);
            saw_l2 |= q.l2_len > 0;
            assert!(q.len() <= PENDING);
            assert!(q.slab.len() <= q.peak_len(), "slab outgrew peak_len");
        }
        while q.pop().is_some() {
            assert!(q.slab.len() <= q.peak_len(), "slab outgrew peak_len");
        }
        assert_eq!(q.peak_len(), PENDING);
        assert!(saw_l2, "workload never held an L2 event");
        assert!(
            q.far_pushed() > 0 && q.migrated() > 0,
            "workload never used the far heap"
        );
        assert!(q.cascades() > 0, "workload never cascaded");
    }

    #[test]
    fn drop_with_pending_events_is_clean() {
        // Owned payloads drop with the queue.
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::from_secs(i), format!("payload {i}"));
        }
        q.pop();
        drop(q);
    }
}
