//! Streaming trace consumers.
//!
//! The collector does not have to materialize a [`Trace`]: it talks to a
//! [`TraceSink`], which receives the connection lifecycle events and the
//! message batches the collector already drains in ~8k chunks. A sink can
//! retain everything ([`Trace`] itself implements the trait — `retain`
//! mode), fold the stream into online aggregates without keeping rows
//! (`streaming` mode, see `analysis::streaming`), or both at once via
//! [`Fanout`].
//!
//! Delivery contract. It has one implementation,
//! [`crate::collector::Recorder`], through which both campaign engines
//! record (the full-fidelity `MeasurementPeer` and the hybrid engine);
//! its unit tests drive it against a logging sink:
//!
//! * `on_connect` is called once per session, before any of its batches,
//!   with session ids dense from 0;
//! * batches arrive in arrival order, at most 8 192 records each; every
//!   message of a session is delivered in some batch **before** that
//!   session's `on_close` (the recorder drains its pending buffer when
//!   it closes a session);
//! * `on_close` is called at most once per session; sessions still open
//!   when the recorder is dropped never see it, but their buffered
//!   records are drained then.

use crate::record::{ConnectionRecord, MessageRecord, SessionId};
use crate::store::Trace;
use parking_lot::Mutex;
use simnet::SimTime;
use std::sync::Arc;

/// A consumer of the collector's record stream.
pub trait TraceSink {
    /// A session completed its handshake; `rec.end` is `None` at this
    /// point and `rec.id` values arrive densely from 0 per collector.
    fn on_connect(&mut self, rec: ConnectionRecord);

    /// A drained chunk of message records, in arrival order.
    /// `wire_lens[i]` is the encoded wire length of `records[i]`.
    fn on_batch(&mut self, records: &[MessageRecord], wire_lens: &[u32]);

    /// Session `id` ended at `end` (`by_probe` per §3.2 idle policy).
    fn on_close(&mut self, id: SessionId, end: SimTime, by_probe: bool);
}

/// The shared, lock-protected handle the collector writes through.
pub type SharedSink = Arc<Mutex<dyn TraceSink + Send>>;

/// Retain mode: the trace itself consumes the stream.
impl TraceSink for Trace {
    fn on_connect(&mut self, rec: ConnectionRecord) {
        debug_assert_eq!(rec.id.0 as usize, self.connections.len());
        self.connections.push(rec);
    }

    fn on_batch(&mut self, records: &[MessageRecord], wire_lens: &[u32]) {
        // Whole-batch append: the store seals full chunks as the batch
        // lands (the collector's 8k drains divide the 64k chunk size, so
        // seals align with drain boundaries).
        self.messages.push_batch(records, wire_lens);
        self.wire_bytes += wire_lens.iter().map(|&w| u64::from(w)).sum::<u64>();
    }

    fn on_close(&mut self, id: SessionId, end: SimTime, by_probe: bool) {
        if let Some(rec) = self.connections.get_mut(id.0 as usize) {
            rec.end = Some(end);
            rec.closed_by_probe = by_probe;
        }
    }
}

/// Tee: forwards every event to each registered sink, in registration
/// order. Lets one campaign retain the trace *and* feed streaming
/// aggregators — the equivalence tests lean on this.
#[derive(Default)]
pub struct Fanout {
    sinks: Vec<SharedSink>,
}

impl Fanout {
    /// Empty fan-out (drops everything until sinks are registered).
    pub fn new() -> Self {
        Fanout::default()
    }

    /// Register a downstream sink.
    pub fn register(&mut self, sink: SharedSink) {
        self.sinks.push(sink);
    }
}

impl TraceSink for Fanout {
    fn on_connect(&mut self, rec: ConnectionRecord) {
        for s in &self.sinks {
            s.lock().on_connect(rec.clone());
        }
    }

    fn on_batch(&mut self, records: &[MessageRecord], wire_lens: &[u32]) {
        for s in &self.sinks {
            s.lock().on_batch(records, wire_lens);
        }
    }

    fn on_close(&mut self, id: SessionId, end: SimTime, by_probe: bool) {
        for s in &self.sinks {
            s.lock().on_close(id, end, by_probe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordedPayload;
    use std::net::Ipv4Addr;

    fn conn(id: u64) -> ConnectionRecord {
        ConnectionRecord {
            id: SessionId(id),
            addr: Ipv4Addr::new(24, 0, 0, 1),
            user_agent: "X/1".into(),
            ultrapeer: false,
            start: SimTime::from_secs(id),
            end: None,
            closed_by_probe: false,
        }
    }

    fn msg(sid: u64, at: u64) -> MessageRecord {
        MessageRecord {
            session: SessionId(sid),
            guid: gnutella::Guid([1; 16]),
            at: SimTime::from_secs(at),
            hops: 1,
            ttl: 6,
            payload: RecordedPayload::Ping,
        }
    }

    #[test]
    fn trace_as_sink_accumulates_stream() {
        let mut t = Trace::default();
        t.on_connect(conn(0));
        t.on_batch(&[msg(0, 1), msg(0, 2)], &[23, 23]);
        t.on_close(SessionId(0), SimTime::from_secs(90), true);
        assert_eq!(t.connections.len(), 1);
        assert_eq!(t.messages.len(), 2);
        assert_eq!(t.wire_bytes, 46);
        assert_eq!(t.connections[0].end, Some(SimTime::from_secs(90)));
        assert!(t.connections[0].closed_by_probe);
    }

    #[test]
    fn fanout_delivers_to_all_sinks() {
        let a = Arc::new(Mutex::new(Trace::default()));
        let b = Arc::new(Mutex::new(Trace::default()));
        let mut tee = Fanout::new();
        tee.register(a.clone());
        tee.register(b.clone());
        tee.on_connect(conn(0));
        tee.on_batch(&[msg(0, 1)], &[23]);
        tee.on_close(SessionId(0), SimTime::from_secs(5), false);
        assert_eq!(*a.lock(), *b.lock());
        assert_eq!(a.lock().messages.len(), 1);
    }
}
