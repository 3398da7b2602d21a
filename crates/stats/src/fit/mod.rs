//! Parameter fitting — recovers the appendix-table models from samples.
//!
//! The characterization pipeline (crate `p2pq-analysis`) fits:
//!
//! * [`fit_lognormal`] — MLE on log-samples (Tables A.1, A.2, A.5, and the
//!   tails of A.3 / bodies of A.4);
//! * [`fit_weibull`] — MLE with Newton iteration for the shape (Table A.3
//!   bodies);
//! * `fit_pareto` — Hill/MLE estimator for the tail index given the
//!   location (Table A.4 tails);
//! * [`fit_zipf`] / [`fit_two_piece_zipf_auto`] — log-log least squares on
//!   rank-frequency data (Figure 11);
//! * [`fit_body_tail`] — the paper's split-fit recipe: partition samples at
//!   a split point, record the body weight, and fit each side conditioned
//!   on its half.

mod body_tail;
mod lognormal;
pub(crate) mod optimize;
mod pareto;
mod weibull;
mod zipf;

pub use body_tail::{fit_body_tail, BodyTailFit, Family, SideFit};
pub use lognormal::{fit_lognormal, fit_lognormal_truncated};
pub(crate) use pareto::fit_pareto;
pub use weibull::{fit_weibull, fit_weibull_truncated};
pub use zipf::{fit_two_piece_zipf_auto, fit_zipf, TwoPieceZipfFit, ZipfFit};
