//! Deterministic discrete-event simulation engine.
//!
//! `simnet` is the substrate on which the Gnutella overlay and the
//! measurement peer run. Design goals, in the spirit of event-driven
//! network stacks like smoltcp:
//!
//! * **Determinism** — a timing-wheel event queue with a total
//!   `(time, lane, key, seq)` pop order: unkeyed events scheduled for the
//!   same instant fire in the order they were scheduled; combined with
//!   seeded RNG streams
//!   ([`stats::rng::SeedSequence`]), a simulation run is a pure function of
//!   its seed.
//! * **No global time** — the clock is [`SimTime`], milliseconds since the
//!   start of the trace; day/time-of-day arithmetic used by the paper's
//!   binning lives on the type.
//! * **Simple actor model** — nodes implement [`Actor`] and communicate by
//!   message passing with per-send latency; timers carry a `u64` tag.
//!
//! The engine is synchronous and single-threaded: the paper's measurement
//! is a single observation point, so wall-clock parallelism buys nothing,
//! while determinism buys reproducible experiments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod engine;
pub(crate) mod event;
pub(crate) mod latency;
pub(crate) mod time;

pub use engine::{Actor, Context, NodeId, SimStats, Simulator};
pub use event::EventQueue;
pub use latency::LatencyModel;
pub use time::{SimDuration, SimTime};
