//! The paper's measurement methodology.
//!
//! Everything in §3.3–§4.6 lives here:
//!
//! * [`filter`] — the five data-filtering rules that separate user
//!   behavior from Gnutella client automation, producing the Table 2
//!   accounting and per-session filtered views;
//! * [`representative`] — the one-hop representativeness checks of §3.4
//!   (Figures 1 and 2), folded from the record stream;
//! * [`load`] — query load vs time of day (Figure 3);
//! * [`characterize`] — the conditional distributions of §4.3–§4.5
//!   (Figures 4–9) and the appendix model fits (Tables A.1–A.5);
//! * [`popularity`] — §4.6: query classes and their intersections
//!   (Table 3), hot-set drift (Figure 10), and per-day Zipf fits
//!   (Figure 11);
//! * [`hitrate`] — the §5 future work: query hit rates attributed by
//!   GUID, per region, with the hit-rate / query-count correlation,
//!   folded from the record stream;
//! * [`correlations`] — the §4.5 headline correlations: session duration
//!   vs #queries (present), interarrival vs #queries (absent for NA);
//! * [`streaming`] — the one analysis pass: a pipeline that filters each
//!   connected session as it closes and folds it into incremental
//!   aggregates. It runs live as a [`trace::TraceSink`], so campaigns
//!   need not materialize the message trace, or over a retained trace
//!   through [`analyze_retained`]; both front ends share its close path.
//!
//! The input is the collector's record stream: the pipeline and the
//! two folds above are [`trace::TraceSink`]s. Region resolution uses the
//! same [`geoip::GeoDb`] the generator allocated addresses from, exactly
//! as the paper resolved real addresses with MaxMind.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod characterize;
pub mod correlations;
pub mod filter;
pub mod hitrate;
pub mod load;
pub mod popularity;
pub mod representative;
pub mod streaming;

pub use streaming::{analyze_retained, RetainedAnalysis, StreamingPipeline, StreamingResult};
