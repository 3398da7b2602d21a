//! In-process observability for the measurement stack, in three small
//! pieces:
//!
//! * counters — a lock-free counter/gauge [`Registry`] over relaxed
//!   atomics. Each campaign owns one and reports its [`Snapshot`] in the
//!   campaign statistics: the collector's sink batches and records, and
//!   the event queue's far-heap spills and wheel cascades. A
//!   process-global registry ([`global`]) serves components that are not
//!   naturally per-campaign (the trace store's chunk seals and the peak
//!   trace bytes gauge).
//! * [`log`] — a leveled stderr logger (`P2PQ_LOG=off|warn|info`,
//!   default `info`): one relaxed atomic load and a branch when a level
//!   is disabled.
//! * [`progress`] — an interval-throttled live campaign reporter
//!   (`P2PQ_PROGRESS=1`): virtual day, message rate, peak trace bytes,
//!   and RSS, printed at most once a second from the record hot path's
//!   existing 8k-drain boundary.
//!
//! Instrumentation never touches an RNG or reorders an event: counters
//! are bumped once per record drain or chunk seal, never per message.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod counters;
pub mod log;
pub mod progress;

pub use counters::{global, Counter, Gauge, Registry, Snapshot};
