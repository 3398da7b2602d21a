//! The analysis pipeline: rules 1–5 and the aggregate folds, one
//! connected session at a time.
//!
//! [`StreamingPipeline`] is the crate's one analyzer. It has two front
//! ends that hand each finished connection to the same close path:
//!
//! * **live** — the pipeline is a [`TraceSink`] on the collector. It
//!   keeps only the *open* sessions' pending one-hop queries, and
//!   [`TraceSink::on_close`] folds a session the moment it closes, so
//!   the message stream is never stored;
//! * **retained** — [`analyze_retained`] reads a materialized
//!   [`Trace`]: one selective scan of the chunked store
//!   ([`trace::MessageColumns::for_each_one_hop_query`]) gathers each
//!   connection's one-hop queries, then every connection is folded in
//!   connection order.
//!
//! The close path runs the §3.3 filter rules (`filter_completed_session`)
//! and folds the surviving session into online aggregators —
//! [`DailyObservations`] for popularity, [`SessionHistograms`] for the
//! per-region session counts, and [`LoadAccumulator`] for the Figure 3
//! load curves. With `retain_sessions` enabled the pipeline also keeps
//! the filtered sessions themselves (orders of magnitude smaller than the
//! raw message trace), which the figure-path analyses read.

use crate::characterize::histograms::SessionHistograms;
use crate::filter::{
    filter_completed_session, FilterReport, FilteredQuery, FilteredSession, FilteredTrace,
};
use crate::load::LoadAccumulator;
use crate::popularity::DailyObservations;
use geoip::GeoDb;
use parking_lot::Mutex;
use simnet::SimTime;
use std::collections::HashMap;
use std::mem::size_of;
use std::net::Ipv4Addr;
use std::sync::Arc;
use trace::{
    ConnectionRecord, MessageRecord, QueryObs, RecordedPayload, SessionId, Trace, TraceSink,
};

/// A session that has connected but not yet closed: the fields the
/// filter will need, plus its one-hop queries so far.
struct LiveSession {
    addr: Ipv4Addr,
    user_agent: String,
    ultrapeer: bool,
    start: SimTime,
    queries: Vec<QueryObs>,
}

/// Refresh the (mildly expensive) aggregate-size estimate every this
/// many session closes.
const AGG_REFRESH_CLOSES: u64 = 1_024;

/// Approximate per-entry overhead of the live-session hash map.
const MAP_ENTRY_OVERHEAD: u64 = 48;

/// The analysis pipeline; implements [`TraceSink`] so it can be
/// registered directly on a [`trace::MeasurementPeer`] (or behind a
/// [`trace::Fanout`] next to a retaining [`trace::Trace`]), and folds
/// retained traces through [`analyze_retained`].
pub struct StreamingPipeline {
    db: GeoDb,
    live: HashMap<u64, LiveSession>,
    retain_sessions: bool,
    retained: Vec<(u64, FilteredSession)>,
    report: FilterReport,
    obs: DailyObservations,
    hist: SessionHistograms,
    load: LoadAccumulator,
    sessions_seen: u64,
    messages_seen: u64,
    wire_bytes: u64,
    closes: u64,
    live_bytes: u64,
    retained_bytes: u64,
    agg_bytes: u64,
    peak_bytes: u64,
}

/// Everything one analysis pass produces, live or retained.
#[derive(Debug, Clone)]
pub struct StreamingResult {
    /// Filter report plus (when `retain_sessions` was set) the filtered
    /// sessions in start order. With retention off, `ft.sessions` is
    /// empty.
    pub ft: FilteredTrace,
    /// Per-day popularity observations (§4.6).
    pub obs: DailyObservations,
    /// Filtered sessions per characterized region.
    pub hist: SessionHistograms,
    /// Query load by time of day (§4.2).
    pub load: LoadAccumulator,
    /// Connected sessions observed (finished or not).
    pub sessions_seen: u64,
    /// Messages delivered to the sink.
    pub messages_seen: u64,
    /// Total encoded wire bytes of those messages.
    pub wire_bytes: u64,
    /// Peak estimated bytes held by the pipeline (live sessions +
    /// retained sessions + aggregates) — the streaming counterpart of
    /// [`trace::Trace::mem_bytes`].
    pub peak_bytes: u64,
}

impl StreamingPipeline {
    /// New pipeline resolving regions with `db`. With `retain_sessions`
    /// the filtered sessions are kept (for equivalence checks or later
    /// figure-path analysis); without it only fixed-size aggregates and
    /// open sessions occupy memory.
    pub fn new(db: GeoDb, retain_sessions: bool) -> StreamingPipeline {
        StreamingPipeline {
            db,
            live: HashMap::new(),
            retain_sessions,
            retained: Vec::new(),
            report: Default::default(),
            obs: Default::default(),
            hist: Default::default(),
            load: Default::default(),
            sessions_seen: 0,
            messages_seen: 0,
            wire_bytes: 0,
            closes: 0,
            live_bytes: 0,
            retained_bytes: 0,
            agg_bytes: 0,
            peak_bytes: 0,
        }
    }

    fn live_base_bytes(user_agent: &str) -> u64 {
        size_of::<LiveSession>() as u64 + MAP_ENTRY_OVERHEAD + user_agent.len() as u64
    }

    fn retained_session_bytes(fs: &FilteredSession) -> u64 {
        (size_of::<(u64, FilteredSession)>()
            + fs.user_agent.len()
            + fs.queries.len() * size_of::<FilteredQuery>()) as u64
    }

    fn refresh_agg_bytes(&mut self) {
        self.agg_bytes = self.obs.mem_bytes() + self.load.mem_bytes() + 6 * 3 * 60 * 8;
    }

    fn note_peak(&mut self) {
        let now = self.live_bytes + self.retained_bytes + self.agg_bytes;
        if now > self.peak_bytes {
            self.peak_bytes = now;
            // Streaming mode never seals trace chunks, so without this
            // the `peak_trace_bytes` gauge stays 0 while the pipeline
            // holds real memory. The gauge keeps the largest peak of any
            // pipeline in the process. Feeding it only on a new local
            // peak keeps the atomic off the per-batch path.
            telemetry::global().gauge_max(telemetry::Gauge::PeakTraceBytes, now);
        }
    }

    /// The close path both front ends share, once per connection. A
    /// connection without an end was still open when the trace ended and
    /// counts as unfinished. A finished one goes through rules 1–5; a
    /// survivor is folded into `obs`, `hist` and `load` and, with
    /// retention on, kept.
    fn close_session(&mut self, conn: &ConnectionRecord, queries: &[QueryObs]) {
        let Some(end) = conn.end else {
            self.report.unfinished_sessions += 1;
            return;
        };
        if let Some(fs) = filter_completed_session(&self.db, &mut self.report, conn, end, queries) {
            self.obs.add_session(&fs);
            self.hist.add_session(&fs);
            self.load.add_session(&fs);
            if self.retain_sessions {
                self.retained_bytes += Self::retained_session_bytes(&fs);
                self.retained.push((conn.id.0, fs));
            }
        }
        self.closes += 1;
        if self.closes.is_multiple_of(AGG_REFRESH_CLOSES) {
            self.refresh_agg_bytes();
        }
        self.note_peak();
    }

    /// Hand a live session to the close path, ending at `end` (`None`:
    /// still open when the campaign ended).
    fn close_live(&mut self, id: u64, s: LiveSession, end: Option<SimTime>, by_probe: bool) {
        let conn = ConnectionRecord {
            id: SessionId(id),
            addr: s.addr,
            user_agent: s.user_agent,
            ultrapeer: s.ultrapeer,
            start: s.start,
            end,
            closed_by_probe: by_probe,
        };
        self.close_session(&conn, &s.queries);
    }

    /// Consume the pipeline, closing still-open sessions as unfinished
    /// and sorting retained sessions into start order.
    pub fn finish(mut self) -> StreamingResult {
        for (id, s) in std::mem::take(&mut self.live) {
            self.close_live(id, s, None, false);
        }
        self.refresh_agg_bytes();
        self.note_peak();
        // Session ids are assigned in connect order, so sid order is
        // start order, the order `analyze_retained` folds in.
        self.retained.sort_by_key(|(sid, _)| *sid);
        StreamingResult {
            ft: FilteredTrace {
                sessions: self.retained.into_iter().map(|(_, fs)| fs).collect(),
                report: self.report,
            },
            obs: self.obs,
            hist: self.hist,
            load: self.load,
            sessions_seen: self.sessions_seen,
            messages_seen: self.messages_seen,
            wire_bytes: self.wire_bytes,
            peak_bytes: self.peak_bytes,
        }
    }
}

impl TraceSink for StreamingPipeline {
    fn on_connect(&mut self, rec: ConnectionRecord) {
        self.sessions_seen += 1;
        self.live_bytes += Self::live_base_bytes(&rec.user_agent);
        let prev = self.live.insert(
            rec.id.0,
            LiveSession {
                addr: rec.addr,
                user_agent: rec.user_agent,
                ultrapeer: rec.ultrapeer,
                start: rec.start,
                queries: Vec::new(),
            },
        );
        debug_assert!(prev.is_none(), "duplicate session id {}", rec.id.0);
        self.note_peak();
    }

    fn on_batch(&mut self, records: &[MessageRecord], wire_lens: &[u32]) {
        self.messages_seen += records.len() as u64;
        self.wire_bytes += wire_lens.iter().map(|&w| u64::from(w)).sum::<u64>();
        for rec in records {
            if rec.hops != 1 {
                continue;
            }
            let RecordedPayload::Query { text, sha1 } = rec.payload else {
                continue;
            };
            if let Some(s) = self.live.get_mut(&rec.session.0) {
                s.queries.push(QueryObs {
                    at: rec.at,
                    text,
                    sha1,
                });
                self.live_bytes += size_of::<QueryObs>() as u64;
            }
        }
        self.note_peak();
    }

    fn on_close(&mut self, id: SessionId, end: SimTime, by_probe: bool) {
        let Some(s) = self.live.remove(&id.0) else {
            debug_assert!(false, "close for unknown session {}", id.0);
            return;
        };
        self.live_bytes = self.live_bytes.saturating_sub(
            Self::live_base_bytes(&s.user_agent) + (s.queries.len() * size_of::<QueryObs>()) as u64,
        );
        self.close_live(id.0, s, Some(end), by_probe);
    }
}

impl StreamingResult {
    /// Merge the results of pipelines that saw disjoint session streams.
    ///
    /// Retained sessions are concatenated in input order and stably
    /// sorted by start time. Aggregates merge by summation, and so does
    /// `peak_bytes`, as if the pipelines had run at once. One result
    /// merges to itself.
    pub fn merge(results: Vec<StreamingResult>) -> StreamingResult {
        let mut it = results.into_iter();
        let mut out = it.next().expect("at least one result");
        for s in it {
            out.ft.sessions.extend(s.ft.sessions);
            out.ft.report.merge(&s.ft.report);
            out.obs.merge(&s.obs);
            out.hist.merge(&s.hist);
            out.load.merge(&s.load);
            out.sessions_seen += s.sessions_seen;
            out.messages_seen += s.messages_seen;
            out.wire_bytes += s.wire_bytes;
            out.peak_bytes += s.peak_bytes;
        }
        out.ft.sessions.sort_by_key(|s| s.start);
        out
    }
}

/// Unwrap the pipelines after their campaigns and merge their results.
/// Panics if a pipeline is still shared.
pub fn finish_shards(sinks: Vec<Arc<Mutex<StreamingPipeline>>>) -> StreamingResult {
    StreamingResult::merge(
        sinks
            .into_iter()
            .map(|s| {
                Arc::try_unwrap(s)
                    .unwrap_or_else(|_| panic!("streaming sink still shared"))
                    .into_inner()
                    .finish()
            })
            .collect(),
    )
}

/// The products of [`analyze_retained`]: the pipeline's result over a
/// materialized trace.
pub type RetainedAnalysis = StreamingResult;

/// Analyze a materialized trace: gather each connection's one-hop
/// queries with one selective scan of the chunked store, then hand every
/// connection, in connection order, to the pipeline's close path, with
/// retention on.
///
/// Equal, field for field, to the live pipeline's result on the campaign
/// that recorded `trace`; `peak_bytes` counts the pipeline's own
/// retained sessions and aggregates, not the trace.
pub fn analyze_retained(trace: &Trace, db: &GeoDb) -> RetainedAnalysis {
    let mut queries: Vec<Vec<QueryObs>> = vec![Vec::new(); trace.connections.len()];
    trace
        .messages
        .for_each_one_hop_query(|sid, at, text, sha1| {
            if let Some(v) = queries.get_mut(sid.0 as usize) {
                v.push(QueryObs { at, text, sha1 });
            }
        });
    let mut p = StreamingPipeline::new(db.clone(), true);
    p.sessions_seen = trace.connections.len() as u64;
    p.messages_seen = trace.messages.len() as u64;
    p.wire_bytes = trace.wire_bytes;
    for (c, q) in trace.connections.iter().zip(&queries) {
        p.close_session(c, q);
    }
    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnutella::Guid;

    fn guid() -> Guid {
        Guid([3; 16])
    }

    fn connect(p: &mut StreamingPipeline, id: u64, start_s: u64) {
        p.on_connect(ConnectionRecord {
            id: SessionId(id),
            addr: Ipv4Addr::new(24, 10, 0, 1),
            user_agent: "T/1".into(),
            ultrapeer: false,
            start: SimTime::from_secs(start_s),
            end: None,
            closed_by_probe: false,
        });
    }

    fn query(session: u64, at_s: u64, text: &str) -> MessageRecord {
        MessageRecord {
            session: SessionId(session),
            guid: guid(),
            at: SimTime::from_secs(at_s),
            hops: 1,
            ttl: 6,
            payload: RecordedPayload::Query {
                text: text.into(),
                sha1: false,
            },
        }
    }

    #[test]
    fn filters_on_close_and_counts_unfinished() {
        let mut p = StreamingPipeline::new(GeoDb::synthetic(), true);
        connect(&mut p, 0, 100);
        connect(&mut p, 1, 150);
        connect(&mut p, 2, 200); // never closed
        let records = [query(0, 400, "some song"), query(1, 160, "other tune")];
        let wire = [40u32, 41];
        p.on_batch(&records, &wire);
        // Session 0: 300 s > 64 s → survives. Session 1: 20 s → rule 3.
        p.on_close(SessionId(0), SimTime::from_secs(400), false);
        p.on_close(SessionId(1), SimTime::from_secs(170), false);
        let r = p.finish();
        assert_eq!(r.sessions_seen, 3);
        assert_eq!(r.messages_seen, 2);
        assert_eq!(r.wire_bytes, 81);
        assert_eq!(r.ft.report.raw_sessions, 2);
        assert_eq!(r.ft.report.unfinished_sessions, 1);
        assert_eq!(r.ft.report.rule3_sessions_removed, 1);
        assert_eq!(r.ft.sessions.len(), 1);
        assert_eq!(r.ft.sessions[0].queries.len(), 1);
        assert!(r.peak_bytes > 0);
    }

    #[test]
    fn merge_sorts_retained_by_start_stably() {
        let db = GeoDb::synthetic();
        let mk = |starts: &[u64]| {
            let mut p = StreamingPipeline::new(db.clone(), true);
            for (i, &s) in starts.iter().enumerate() {
                connect(&mut p, i as u64, s);
                p.on_close(SessionId(i as u64), SimTime::from_secs(s + 100), false);
            }
            p.finish()
        };
        let merged = StreamingResult::merge(vec![mk(&[50, 300]), mk(&[50, 120])]);
        let starts: Vec<u64> = merged
            .ft
            .sessions
            .iter()
            .map(|s| s.start.as_secs())
            .collect();
        assert_eq!(starts, vec![50, 50, 120, 300]);
        assert_eq!(merged.sessions_seen, 4);
        assert_eq!(merged.ft.report.final_sessions, 4);
    }

    #[test]
    fn streaming_feeds_peak_trace_bytes_gauge() {
        let mut p = StreamingPipeline::new(GeoDb::synthetic(), true);
        connect(&mut p, 0, 100);
        let records = [query(0, 400, "some song")];
        p.on_batch(&records, &[40u32]);
        p.on_close(SessionId(0), SimTime::from_secs(400), false);
        let r = p.finish();
        assert!(r.peak_bytes > 0);
        // The global gauge merges by max and only grows, so with other
        // tests running in parallel we can still assert it saw at least
        // this pipeline's peak.
        assert!(
            telemetry::global()
                .snapshot()
                .gauge(telemetry::Gauge::PeakTraceBytes)
                >= r.peak_bytes,
            "streaming path must feed the peak_trace_bytes gauge"
        );
    }

    #[test]
    fn retention_off_keeps_no_sessions() {
        let mut p = StreamingPipeline::new(GeoDb::synthetic(), false);
        connect(&mut p, 0, 100);
        p.on_close(SessionId(0), SimTime::from_secs(400), false);
        let r = p.finish();
        assert!(r.ft.sessions.is_empty());
        assert_eq!(r.ft.report.final_sessions, 1);
        assert_eq!(r.hist.total_sessions(), 1);
    }

    /// Unfinished sessions are counted, not filtered.
    #[test]
    fn open_sessions_count_as_unfinished() {
        let mut trace = Trace::default();
        trace.connections.push(ConnectionRecord {
            id: SessionId(0),
            addr: Ipv4Addr::new(24, 0, 0, 1),
            user_agent: "T/1".into(),
            ultrapeer: false,
            start: SimTime::from_secs(0),
            end: None,
            closed_by_probe: false,
        });
        let r = analyze_retained(&trace, &GeoDb::synthetic());
        assert_eq!(r.ft.report.unfinished_sessions, 1);
        assert_eq!(r.ft.report.raw_sessions, 0);
        assert!(r.ft.sessions.is_empty());
        assert_eq!(r.obs.n_days(), 0);
    }
}
