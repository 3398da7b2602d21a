//! Lock-free counter/gauge registry.
//!
//! A [`Registry`] is a fixed array of relaxed [`AtomicU64`]s — no
//! allocation after construction, no locks, no ordering constraints.
//! A campaign's registry is snapshotted when the campaign finishes, and
//! the [`Snapshot`] travels in its statistics.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Monotone event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Events pushed beyond the timing wheel's L2 horizon (≈ 37 h out)
    /// into the 4-ary far heap.
    HeapSpills = 0,
    /// Record batches handed to the trace sink (collector drains).
    SinkBatches,
    /// Message records delivered through the sink.
    SinkRecords,
    /// Trace-store tail seals into compressed chunks.
    ChunkSeals,
    /// Hierarchical-wheel level-down moves (L2→L1/L0, L1→L0) as
    /// simulated time entered an event's chunk or frame.
    WheelCascades,
}

const NUM_COUNTERS: usize = 5;

/// High-water marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Peak retained trace bytes (sealed chunks resident in memory plus
    /// the flat tail), sampled at seal boundaries.
    PeakTraceBytes = 0,
}

const NUM_GAUGES: usize = 1;

/// A lock-free registry of counters and gauges.
///
/// All operations are relaxed atomics: safe from any thread, no
/// synchronization edges, no effect on execution order. A campaign's
/// single-writer registry pays an uncontended atomic add, bumped once
/// per record batch or chunk seal, never per message.
pub struct Registry {
    counters: [AtomicU64; NUM_COUNTERS],
    gauges: [AtomicU64; NUM_GAUGES],
}

// `AtomicU64` is not `Copy`; a const item makes array-repeat legal.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

impl Registry {
    /// An empty registry.
    pub const fn new() -> Registry {
        Registry {
            counters: [ZERO; NUM_COUNTERS],
            gauges: [ZERO; NUM_GAUGES],
        }
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Relaxed);
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Raise a gauge to `v` if `v` exceeds its current value.
    #[inline]
    pub fn gauge_max(&self, g: Gauge, v: u64) {
        self.gauges[g as usize].fetch_max(v, Relaxed);
    }

    /// Copy out the current values.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Relaxed)),
            gauges: std::array::from_fn(|i| self.gauges[i].load(Relaxed)),
        }
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-global registry: components that are not naturally
/// campaign-scoped (the trace store, standalone tools) record here.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// A point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    counters: [u64; NUM_COUNTERS],
    gauges: [u64; NUM_GAUGES],
}

impl Snapshot {
    /// Value of one counter.
    #[inline]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Value of one gauge.
    #[inline]
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Add `n` to a counter (folding non-atomic sources, e.g. the
    /// engine's plain queue counters, into a campaign snapshot).
    #[inline]
    pub fn add_counter(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] = self.counters[c as usize].wrapping_add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_snapshot_round_trip() {
        let r = Registry::new();
        r.add(Counter::SinkRecords, 8192);
        r.incr(Counter::SinkBatches);
        r.gauge_max(Gauge::PeakTraceBytes, 10);
        r.gauge_max(Gauge::PeakTraceBytes, 7); // lower: ignored
        let s = r.snapshot();
        assert_eq!(s.counter(Counter::SinkRecords), 8192);
        assert_eq!(s.counter(Counter::SinkBatches), 1);
        assert_eq!(s.gauge(Gauge::PeakTraceBytes), 10);
    }
}
