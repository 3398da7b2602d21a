//! Synthetic GeoIP substrate.
//!
//! The paper resolves peer IP addresses to geographic regions with the
//! MaxMind GeoIP database and characterizes three regions — North America,
//! Europe, and Asia — plus a residual "other/unknown" class (§3.2, §4.1).
//!
//! We do not ship MaxMind data; instead this crate provides:
//!
//! * [`Region`] — the four-way region classification the paper uses;
//! * [`GeoDb`] — a longest-prefix-match IPv4 → region database with a
//!   deterministic synthetic allocation ([`GeoDb::synthetic`]) loosely
//!   modeled on real 2004-era registry allocations (ARIN/RIPE/APNIC
//!   blocks), plus an [`AddressAllocator`] that draws region-consistent
//!   addresses for simulated peers;
//! * [`DiurnalModel`] — time-of-day population mixes and per-region
//!   activity rates anchored to the paper's Figure 1 and §4.2 key periods.
//!
//! Because the synthetic behavior model allocates addresses through the
//! same database the analysis pipeline uses for lookups, region resolution
//! is exact — mirroring the paper's assumption that GeoIP resolution errors
//! are negligible at continent granularity.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod db;
pub(crate) mod diurnal;
pub(crate) mod region;

pub use db::{AddressAllocator, GeoDb};
pub use diurnal::{DiurnalModel, KEY_PERIODS};
pub use region::Region;
