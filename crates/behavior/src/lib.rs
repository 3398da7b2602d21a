//! Ground-truth generative behavior model.
//!
//! The paper measured real users through a passive ultrapeer; we have no
//! live Gnutella network, so this crate *generates* the population the
//! measurement observes. It is the closed loop's ground truth: the
//! parameters injected here (anchored to the paper's appendix tables and
//! figure-level statistics) are what the `p2pq-analysis` pipeline must
//! recover through the same methodology the paper used.
//!
//! Two layers are modeled separately, because separating them is the
//! paper's first contribution (§3.3):
//!
//! * **User behavior** ([`session`]) — passive/active choice, passive
//!   session durations, queries per active session, time to first query,
//!   query interarrival times and time after last query, all drawn from
//!   the paper's model (`model::WorkloadModel::paper_default()`, the same
//!   table the Figure 12 generator samples), and query content drawn from
//!   a drifting per-region vocabulary ([`vocabulary`]).
//! * **Client-software behavior** ([`clients`], [`params`]) — the
//!   automation artifacts the filter rules must remove: SHA1 source-search
//!   queries (rule 1), automatic re-sending of earlier queries (rule 2),
//!   quick system-level disconnects (rule 3), sub-second re-query bursts
//!   at connect (rule 4), and fixed-interval periodic re-queries (rule 5);
//!   plus how connections end and advertise themselves.
//!
//! [`peer::ClientPeer`] executes a generated [`session::SessionPlan`]
//! against the measurement peer over the simulated network, and
//! [`driver`] runs whole multi-day populations.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrivals;
pub mod clients;
pub mod driver;
pub mod files;
pub mod hybrid;
pub mod params;
pub mod peer;
pub mod session;
pub mod stream;
pub mod vocabulary;

pub use clients::{ClientPopulation, ClientProfile};
pub use driver::{
    run_population, run_population_into, run_population_with_stats, CampaignStats, Fidelity,
    PopulationConfig,
};
pub use files::SharedFilesModel;
pub use model::QueryClass;
pub use params::BehaviorParams;
pub use peer::{ClientPeer, PeerEnv, RelayRates};
pub use session::{PlannedQuery, QueryOrigin, SessionKind, SessionPlan, SessionPlanner};
pub use vocabulary::{Vocabulary, VocabularyConfig};
