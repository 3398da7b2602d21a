//! # p2pq-model — the paper's conditional query-workload model
//!
//! One table of the laws Klemm et al. (IMC 2004) fitted: the passive
//! fraction (Figure 4), the session laws of Tables A.1–A.5 with this
//! repository's regional extrapolations, and the query-popularity
//! structure of §4.6. [`WorkloadModel`] holds them as data;
//! [`WorkloadModel::laws`] builds the session laws once into a
//! [`ModelLaws`], whose `draw_*` methods are the only place a session's
//! times and query count are sampled and capped.
//!
//! Both sides of the closed loop sample this one table: the simulated
//! ground truth (`p2pq-behavior`) and the Figure 12 generator
//! (`p2pq-core`, which re-exports this crate as `p2pq::model`). It depends
//! on neither, nor on the analysis that measures them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod model;

pub use model::*;
