//! In-process observability for the measurement stack.
//!
//! The dev environment blocks `perf`/`gprofng`, so every cost share in
//! this repo used to be established by ablation. This crate makes the
//! system observe itself instead, with four small pieces:
//!
//! * [`counters`] — a lock-free counter/gauge/histogram registry
//!   ([`Registry`]) over relaxed atomics. Each campaign owns one and
//!   reports its [`Snapshot`] in the campaign statistics. A
//!   process-global registry ([`global`]) serves components that are not
//!   naturally per-campaign (the trace store's chunk seals and the
//!   peak trace bytes gauge).
//! * [`profile`] — a hierarchical stage-attribution profiler built from
//!   cheap RAII scopes (`scope!("campaign/run")`). Each scope records
//!   inclusive wall time against a `/`-separated path (nesting extends
//!   the enclosing scope's path); [`profile::take_stages`] merges the
//!   per-thread tables and [`profile::stage_tree`] folds them into a
//!   tree with exclusive times derived as `incl − Σ children.incl`.
//! * [`log`] — a leveled stderr logger (`P2PQ_LOG=off|warn|info|debug`,
//!   default `info`): one relaxed atomic load and a branch when a level
//!   is disabled.
//! * [`progress`] — an interval-throttled live campaign reporter
//!   (`P2PQ_PROGRESS=1`): virtual day, message rate, peak trace bytes,
//!   and RSS, printed at most once a second from the record hot path's
//!   existing 8k-drain boundary.
//!
//! Everything is designed to be provably free: instrumentation never
//! touches an RNG or reorders an event (trace fingerprints are
//! bit-identical with profiling on or off, test-enforced in
//! `crates/behavior`), and `crates/bench/tests/campaign_gates.rs` bounds
//! stage scopes at one per hundred popped events.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod counters;
pub mod log;
pub mod profile;
pub mod progress;

pub use counters::{global, Counter, Gauge, Hist, Registry, Snapshot};
pub use profile::{stage_tree, StageNode, StageStat};
