//! Passive measurement and trace handling.
//!
//! This crate is the reproduction of the paper's §3 measurement setup:
//!
//! * [`collector::MeasurementPeer`] — a passive ultrapeer `simnet` actor
//!   that accepts up to 200 simultaneous connections, performs the 0.6
//!   handshake (recording `User-Agent` and `X-Ultrapeer`), participates in
//!   routing (GUID table, TTL/hops forwarding, QUERYHIT reverse routing)
//!   without ever *originating* queries, applies the 15 s + 15 s idle-probe
//!   policy, and logs every received message;
//! * [`collector::Recorder`] — the measurement node's recording half
//!   (admission cap, session ids, open connections with their idle
//!   clocks, the batched record buffer): the actor owns one, and so does
//!   the hybrid-fidelity engine in `behavior`, so both fidelities admit,
//!   record and close sessions through the same code;
//! * `record` — the trace record types (connections and messages) and
//!   the one-hop query observation the filter rules read;
//! * [`store::Trace`] — the retained trace, backed by the column store
//!   [`store::MessageColumns`] (sealed per-column-compressed chunks + flat
//!   tail — codec in [`chunk`]). It
//!   has two duties: it is the oracle of the retained ≡ live and
//!   full ≡ hybrid tests, and it is what perfbench's `paper_repro`
//!   workload measures. Experiments and examples fold the stream
//!   instead;
//! * `sink` — the streaming consumer API: the collector delivers its
//!   record stream to any [`sink::TraceSink`], so campaigns can retain
//!   the full trace, fold it into online aggregates, or both;
//! * `stats` — the Table 1 counts, folded as a [`sink::TraceSink`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chunk;
pub(crate) mod collector;
pub(crate) mod record;
pub(crate) mod sink;
pub(crate) mod stats;
pub(crate) mod store;

pub use collector::{CollectorConfig, MeasurementPeer, Recorder, FORWARD_FANOUT, LINK_DELAY};
pub use record::{ConnectionRecord, MessageRecord, QueryObs, RecordedPayload, SessionId};
pub use sink::{Fanout, SharedSink, TraceSink};
pub use stats::TraceStats;
pub use store::{MessageColumns, Trace, CHUNK_ROWS};
