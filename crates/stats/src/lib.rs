//! Statistics substrate for the P2P query-workload reproduction.
//!
//! This crate implements, from scratch, every piece of statistical machinery
//! the paper's characterization methodology relies on:
//!
//! * **Distributions** ([`dist`]): lognormal, Weibull, Pareto, Zipf-like,
//!   two-piece Zipf, body‖tail bimodal composites and truncated wrappers.
//!   All continuous distributions sample through their quantile function,
//!   so a single uniform draw maps deterministically to a variate —
//!   convenient for reproducibility and for property tests.
//! * **Fitting** ([`fit`]): maximum-likelihood estimators for lognormal,
//!   Weibull and Pareto parameters, log-log least-squares Zipf fitting
//!   (including the paper's two-piece "flattened head" variant), and a
//!   split-fit helper for the paper's body/tail bimodal models.
//! * **Empirical summaries**: [`Ecdf`] (CCDF and its series) and
//!   [`histogram`] (linear and time-of-day binning).
//! * **Hypothesis tests and association**: [`ks`] (one- and two-sample
//!   Kolmogorov–Smirnov) and [`correlation`] (Pearson, Spearman).
//! * **Ranking** ([`rank`]): top-k selection and the daily hot-set
//!   ranking with Gaussian score drift.
//! * **Special functions**: `erf`, inverse normal CDF and
//!   `ln Γ`, implemented with standard numeric approximations.
//!
//! The crate is deliberately dependency-light: only `rand`, for uniform
//! bits.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `!(hi > lo)`-style guards are deliberate: the negated comparison is the
// one form that also rejects NaN bounds, which `hi <= lo` would let through.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod correlation;
pub mod dist;
pub(crate) mod ecdf;
pub(crate) mod error;
pub mod fit;
pub mod histogram;
pub mod ks;
pub mod rank;
pub mod regression;
pub mod rng;
pub(crate) mod series;
pub(crate) mod special;

pub use ecdf::Ecdf;
pub use error::StatsError;
pub use series::Series;
