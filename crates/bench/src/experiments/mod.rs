//! The per-table / per-figure experiment implementations.

pub(crate) mod ablations;
pub(crate) mod appendix;
pub(crate) mod figures;
pub(crate) mod generator;
pub(crate) mod tables;
