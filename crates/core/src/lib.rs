//! # p2pq — P2P file-sharing query-workload models
//!
//! A Rust implementation of the workload characterization and synthetic
//! workload generator from *Klemm, Lindemann, Vernon, Waldhorst —
//! "Characterizing the Query Behavior in Peer-to-Peer File Sharing
//! Systems" (ACM IMC 2004)*.
//!
//! The paper's primary artifact is a **complete, conditional model of P2P
//! query behavior** suitable for generating realistic synthetic workloads
//! when evaluating new P2P system designs. This crate packages it:
//!
//! * [`WorkloadModel`] — every conditional distribution the paper
//!   identified, with the appendix tables as defaults: the diurnal
//!   geographic mix (Figure 1), passive fractions (Figure 4), passive
//!   session durations (Table A.1), queries per active session
//!   (Table A.2), time until first query (Table A.3), query interarrival
//!   times (Table A.4, heavy Pareto tail), time after the last query
//!   (Table A.5), and the per-class Zipf query-popularity structure with
//!   daily hot-set drift (Table 3, Figures 10–11);
//! * [`WorkloadGenerator`] — the §4.7 / Figure 12 algorithm: a steady
//!   population of `N` peers in which each finished session is replaced by
//!   a fresh peer, emitting a time-ordered stream of [`WorkloadEvent`]s;
//! * [`calibrate()`] — closes the measurement loop: builds a
//!   [`WorkloadModel`] from the output of the `p2pq-analysis` pipeline, so
//!   a model can be re-derived from any (simulated or real) trace;
//! * [`replay()`] — materializes a generated workload as live Gnutella
//!   protocol traffic against any `simnet` node, for driving prototypes
//!   of new P2P designs with realistic load.
//!
//! ## Quickstart
//!
//! ```
//! use p2pq::{WorkloadModel, GeneratorConfig, WorkloadGenerator, WorkloadEvent};
//!
//! let model = WorkloadModel::paper_default();
//! let cfg = GeneratorConfig {
//!     n_peers: 50,
//!     seed: 1,
//!     ..GeneratorConfig::default()
//! };
//! let mut queries = 0;
//! for ev in WorkloadGenerator::new(&model, cfg).take(10_000) {
//!     if let WorkloadEvent::Query { .. } = ev {
//!         queries += 1;
//!     }
//! }
//! assert!(queries > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibrate;
pub mod events;
pub mod generator;
pub mod replay;

pub use ::model;

pub use calibrate::{calibrate, CalibrationReport};
pub use events::{collect_sessions, PeerId, QueryRef, SessionSummary, WorkloadEvent};
pub use generator::{GeneratorConfig, WorkloadGenerator};
pub use model::{
    BodyTailParams, ClassMixParams, ClassPopularity, InterarrivalModel, LognormalParams,
    ParetoParams, PopularityModel, QueryClass, RankLawParams, WeibullParams, WorkloadModel,
};
pub use replay::{replay, ReplayStats};
