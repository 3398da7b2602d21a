//! Spans recorded from the benchmark's own code, around its calls into
//! the program's crates, plus the timing wrapper around the campaign's
//! `trace::TraceSink`.
//!
//! Both are off in end-to-end runs: a disabled [`Tracer`] calls the
//! closure and reads no clock, and end-to-end runs hand the campaign the
//! bare sink.

use std::time::Instant;
use trace::{ConnectionRecord, MessageRecord, SessionId, TraceSink};

/// One timed call: name, start and end in seconds since the process
/// entered `main`, and the index of the span that was open when it began.
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder; written out once, at exit.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Seconds since the process entered `main`.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Total seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Span `i`'s duration minus that of its direct child spans.
    pub fn self_secs(&self, i: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(Span::secs)
            .sum();
        self.spans[i].secs() - children
    }

    /// Seconds of `[from, to]` that no top-level span covers, as a share
    /// of the interval. Top-level spans never overlap, since each is a
    /// closure that returned before the next began.
    pub fn uncovered_frac(&self, from: f64, to: f64) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start >= from && s.end <= to)
            .map(Span::secs)
            .sum();
        ((to - from) - covered) / (to - from)
    }
}

/// Calls, records and nanoseconds of one sink method, summed over the
/// campaign (the per-call spans aggregated by name).
#[derive(Default, Clone, Copy)]
pub struct CallTally {
    pub calls: u64,
    pub records: u64,
    pub ns: u64,
}

/// What the wrapper saw; `on_batch.records` counts every record the
/// collector handed over, including any the wrapper dropped.
#[derive(Default, Clone, Copy)]
pub struct SinkTally {
    pub on_connect: CallTally,
    pub on_batch: CallTally,
    pub on_close: CallTally,
}

impl SinkTally {
    pub fn secs(&self) -> f64 {
        (self.on_connect.ns + self.on_batch.ns + self.on_close.ns) as f64 / 1e9
    }
}

/// A `TraceSink` that times every call into the sink it wraps.
///
/// `drop_batch: Some(k)` silently discards the k-th batch (counting from
/// 1) after tallying it: the fault the output checks must catch.
pub struct TimedSink<S> {
    pub inner: S,
    pub tally: SinkTally,
    drop_batch: Option<u64>,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S, drop_batch: Option<u64>) -> TimedSink<S> {
        TimedSink {
            inner,
            tally: SinkTally::default(),
            drop_batch,
        }
    }
}

fn timed(tally: &mut CallTally, records: usize, f: impl FnOnce()) {
    let t = Instant::now();
    f();
    tally.ns += t.elapsed().as_nanos() as u64;
    tally.calls += 1;
    tally.records += records as u64;
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn on_connect(&mut self, rec: ConnectionRecord) {
        let inner = &mut self.inner;
        timed(&mut self.tally.on_connect, 0, || inner.on_connect(rec));
    }

    fn on_batch(&mut self, records: &[MessageRecord], wire_lens: &[u32]) {
        if self.drop_batch == Some(self.tally.on_batch.calls + 1) {
            self.tally.on_batch.calls += 1;
            self.tally.on_batch.records += records.len() as u64;
            return;
        }
        let inner = &mut self.inner;
        timed(&mut self.tally.on_batch, records.len(), || {
            inner.on_batch(records, wire_lens)
        });
    }

    fn on_close(&mut self, id: SessionId, end: simnet::SimTime, by_probe: bool) {
        let inner = &mut self.inner;
        timed(&mut self.tally.on_close, 0, || {
            inner.on_close(id, end, by_probe)
        });
    }
}
