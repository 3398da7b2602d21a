//! Lock-free counter/gauge/histogram registry.
//!
//! A [`Registry`] is a fixed array of relaxed [`AtomicU64`]s — no
//! allocation after construction, no locks, no ordering constraints.
//! A campaign's registry is snapshotted when the campaign finishes, and
//! the [`Snapshot`] travels in its statistics.

use serde_json::JsonValue;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Monotone event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Events popped off a campaign's timing-wheel queue.
    EventsPopped = 0,
    /// Events pushed beyond the timing wheel's L2 horizon (≈ 37 h out)
    /// into the 4-ary far heap.
    HeapSpills,
    /// Far-heap events migrated back into wheel buckets as the window
    /// advanced.
    HeapMigrations,
    /// Messages whose delivery the hybrid engine elided entirely.
    HybridElided,
    /// Peer→collector messages the hybrid engine modeled as events.
    HybridModeled,
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

impl Counter {
    /// Every counter, in id order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::EventsPopped,
        Counter::HeapSpills,
        Counter::HeapMigrations,
        Counter::HybridElided,
        Counter::HybridModeled,
        Counter::SinkBatches,
        Counter::SinkRecords,
        Counter::ChunkSeals,
        Counter::WheelCascades,
    ];

    /// snake_case name used in `telemetry.json`.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EventsPopped => "events_popped",
            Counter::HeapSpills => "heap_spills",
            Counter::HeapMigrations => "heap_migrations",
            Counter::HybridElided => "hybrid_elided",
            Counter::HybridModeled => "hybrid_modeled",
            Counter::SinkBatches => "sink_batches",
            Counter::SinkRecords => "sink_records",
            Counter::ChunkSeals => "chunk_seals",
            Counter::WheelCascades => "wheel_cascades",
        }
    }
}

/// Number of [`Counter`] ids.
pub const NUM_COUNTERS: usize = 9;

/// High-water marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Peak retained trace bytes (sealed chunks resident in memory plus
    /// the flat tail), sampled at seal boundaries.
    PeakTraceBytes = 0,
    /// Peak pending events in a campaign's queue.
    PeakQueueLen,
}

impl Gauge {
    /// Every gauge, in id order.
    pub const ALL: [Gauge; NUM_GAUGES] = [Gauge::PeakTraceBytes, Gauge::PeakQueueLen];

    /// snake_case name used in `telemetry.json`.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::PeakTraceBytes => "peak_trace_bytes",
            Gauge::PeakQueueLen => "peak_queue_len",
        }
    }
}

/// Number of [`Gauge`] ids.
pub const NUM_GAUGES: usize = 2;

/// Log₂-bucketed histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Size of each record batch handed to the trace sink.
    SinkBatchSize = 0,
}

impl Hist {
    /// Every histogram, in id order.
    pub const ALL: [Hist; NUM_HISTS] = [Hist::SinkBatchSize];

    /// snake_case name used in `telemetry.json`.
    pub fn name(self) -> &'static str {
        match self {
            Hist::SinkBatchSize => "sink_batch_size",
        }
    }
}

/// Number of [`Hist`] ids.
pub const NUM_HISTS: usize = 1;

/// Buckets per histogram: bucket `i` counts values in
/// `[2^i, 2^(i+1))` (bucket 0 additionally holds 0, the last bucket is
/// open-ended).
pub const HIST_BUCKETS: usize = 24;

/// Bucket index for a histogram observation.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((63 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// A lock-free registry of counters, gauges, and histograms.
///
/// All operations are relaxed atomics: safe from any thread, no
/// synchronization edges, no effect on execution order. A campaign's
/// single-writer registry pays an uncontended atomic add, bumped once
/// per record batch or chunk seal, never per message.
pub struct Registry {
    counters: [AtomicU64; NUM_COUNTERS],
    gauges: [AtomicU64; NUM_GAUGES],
    hists: [[AtomicU64; HIST_BUCKETS]; NUM_HISTS],
}

// `AtomicU64` is not `Copy`; a const item makes array-repeat legal.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_HIST: [AtomicU64; HIST_BUCKETS] = [ZERO; HIST_BUCKETS];

impl Registry {
    /// An empty registry.
    pub const fn new() -> Registry {
        Registry {
            counters: [ZERO; NUM_COUNTERS],
            gauges: [ZERO; NUM_GAUGES],
            hists: [ZERO_HIST; NUM_HISTS],
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

    /// Record one observation of `v` into a histogram.
    #[inline]
    pub fn observe(&self, h: Hist, v: u64) {
        self.hists[h as usize][bucket_of(v)].fetch_add(1, Relaxed);
    }

    /// Copy out the current values.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        for i in 0..NUM_COUNTERS {
            s.counters[i] = self.counters[i].load(Relaxed);
        }
        for i in 0..NUM_GAUGES {
            s.gauges[i] = self.gauges[i].load(Relaxed);
        }
        for (h, row) in self.hists.iter().enumerate() {
            for (b, cell) in row.iter().enumerate() {
                s.hists[h][b] = cell.load(Relaxed);
            }
        }
        s
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("snapshot", &self.snapshot())
            .finish()
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
    /// Counter values, indexed by [`Counter`].
    pub counters: [u64; NUM_COUNTERS],
    /// Gauge values, indexed by [`Gauge`].
    pub gauges: [u64; NUM_GAUGES],
    /// Histogram buckets, indexed by [`Hist`].
    pub hists: [[u64; HIST_BUCKETS]; NUM_HISTS],
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

    /// Buckets of one histogram.
    #[inline]
    pub fn hist(&self, h: Hist) -> &[u64; HIST_BUCKETS] {
        &self.hists[h as usize]
    }

    /// Add `n` to a counter (folding non-atomic sources, e.g. the
    /// engine's plain queue counters, into a campaign snapshot).
    #[inline]
    pub fn add_counter(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] = self.counters[c as usize].wrapping_add(n);
    }

    /// Raise a gauge.
    #[inline]
    pub fn max_gauge(&mut self, g: Gauge, v: u64) {
        let cell = &mut self.gauges[g as usize];
        *cell = (*cell).max(v);
    }

    /// Fraction of popped events that had to take the far-heap spill
    /// path (pushed beyond every wheel level). `None` before any pops.
    pub fn heap_spill_frac(&self) -> Option<f64> {
        let popped = self.counter(Counter::EventsPopped);
        if popped == 0 {
            None
        } else {
            Some(self.counter(Counter::HeapSpills) as f64 / popped as f64)
        }
    }

    /// JSON object `{counters: {...}, gauges: {...}, hists: {name:
    /// [buckets...]}}`, zero histogram tails trimmed.
    pub fn to_json(&self) -> JsonValue {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name().to_string(), JsonValue::U64(self.counter(c))))
            .collect();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| (g.name().to_string(), JsonValue::U64(self.gauge(g))))
            .collect();
        let hists = Hist::ALL
            .iter()
            .map(|&h| {
                let row = self.hist(h);
                let last = row.iter().rposition(|&v| v != 0).map_or(0, |i| i + 1);
                (
                    h.name().to_string(),
                    JsonValue::Array(row[..last].iter().map(|&v| JsonValue::U64(v)).collect()),
                )
            })
            .collect();
        JsonValue::Object(vec![
            ("counters".to_string(), JsonValue::Object(counters)),
            ("gauges".to_string(), JsonValue::Object(gauges)),
            ("hists".to_string(), JsonValue::Object(hists)),
        ])
    }
}

// `Snapshot` travels inside serialized campaign stats; the JSON form is
// exactly `to_json` (names keyed, zero hist tails trimmed), and missing
// names deserialize to zero so snapshots from older traces default
// cleanly.
impl serde::Serialize for Snapshot {
    fn to_value(&self) -> serde::Value {
        self.to_json()
    }
}

impl serde::Deserialize for Snapshot {
    fn from_value(v: &serde::Value) -> Result<Snapshot, serde::Error> {
        fn num(v: Option<&serde::Value>) -> Result<u64, serde::Error> {
            match v {
                None => Ok(0),
                Some(serde::Value::U64(n)) => Ok(*n),
                Some(serde::Value::I64(n)) if *n >= 0 => Ok(*n as u64),
                Some(other) => Err(serde::Error::msg(format!(
                    "expected unsigned integer, found {}",
                    other.type_name()
                ))),
            }
        }
        let mut s = Snapshot::default();
        let counters = v.get("counters");
        for c in Counter::ALL {
            s.counters[c as usize] = num(counters.and_then(|o| o.get(c.name())))?;
        }
        let gauges = v.get("gauges");
        for g in Gauge::ALL {
            s.gauges[g as usize] = num(gauges.and_then(|o| o.get(g.name())))?;
        }
        let hists = v.get("hists");
        for h in Hist::ALL {
            if let Some(serde::Value::Array(row)) = hists.and_then(|o| o.get(h.name())) {
                for (b, cell) in row.iter().take(HIST_BUCKETS).enumerate() {
                    s.hists[h as usize][b] = num(Some(cell))?;
                }
            }
        }
        Ok(s)
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
        r.observe(Hist::SinkBatchSize, 8192);
        let s = r.snapshot();
        assert_eq!(s.counter(Counter::SinkRecords), 8192);
        assert_eq!(s.counter(Counter::SinkBatches), 1);
        assert_eq!(s.gauge(Gauge::PeakTraceBytes), 10);
        assert_eq!(s.hist(Hist::SinkBatchSize)[13], 1); // 2^13 = 8192
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn snapshot_serde_round_trip() {
        use serde::{Deserialize, Serialize};
        let r = Registry::new();
        r.add(Counter::SinkRecords, 8192);
        r.gauge_max(Gauge::PeakQueueLen, 9);
        r.observe(Hist::SinkBatchSize, 100);
        let s = r.snapshot();
        let back = Snapshot::from_value(&s.to_value()).expect("round trip");
        assert_eq!(s, back);
        assert_eq!(Snapshot::from_value(&s.to_json()), Ok(s));
    }

    #[test]
    fn json_shape() {
        let r = Registry::new();
        r.incr(Counter::ChunkSeals);
        let j = r.snapshot().to_json();
        let counters = j.get("counters").expect("counters key");
        assert_eq!(counters.get("chunk_seals"), Some(&JsonValue::U64(1)));
        assert!(j.get("gauges").is_some());
        assert!(j.get("hists").is_some());
    }
}
