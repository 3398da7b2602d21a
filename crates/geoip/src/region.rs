//! The paper's geographic region classification.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Geographic region of a peer, at the granularity the paper characterizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Region {
    /// North America (≈60–80 % of peers depending on time of day).
    NorthAmerica,
    /// Europe (≈6–20 %).
    Europe,
    /// Asia (≈4–13 %).
    Asia,
    /// Other continents or unresolvable addresses (≈5–10 %).
    Other,
}

impl Region {
    /// The three characterized regions, in the paper's order.
    pub const CHARACTERIZED: [Region; 3] = [Region::NorthAmerica, Region::Europe, Region::Asia];

    /// All four classes including the residual.
    pub const ALL: [Region; 4] = [
        Region::NorthAmerica,
        Region::Europe,
        Region::Asia,
        Region::Other,
    ];

    /// Short ASCII code used in trace records and reports.
    pub fn code(self) -> &'static str {
        match self {
            Region::NorthAmerica => "NA",
            Region::Europe => "EU",
            Region::Asia => "AS",
            Region::Other => "OT",
        }
    }

    /// Full display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Region::NorthAmerica => "North America",
            Region::Europe => "Europe",
            Region::Asia => "Asia",
            Region::Other => "Other",
        }
    }

    /// Parse a region code (as produced by [`Region::code`]).
    pub fn from_code(code: &str) -> Option<Region> {
        match code {
            "NA" => Some(Region::NorthAmerica),
            "EU" => Some(Region::Europe),
            "AS" => Some(Region::Asia),
            "OT" => Some(Region::Other),
            _ => None,
        }
    }

    /// Index into dense per-region arrays.
    pub fn index(self) -> usize {
        match self {
            Region::NorthAmerica => 0,
            Region::Europe => 1,
            Region::Asia => 2,
            Region::Other => 3,
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for r in Region::ALL {
            assert_eq!(Region::from_code(r.code()), Some(r));
        }
        assert_eq!(Region::from_code("XX"), None);
    }

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; 4];
        for r in Region::ALL {
            assert!(!seen[r.index()]);
            seen[r.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn characterized_excludes_other() {
        assert!(!Region::CHARACTERIZED.contains(&Region::Other));
        assert_eq!(Region::CHARACTERIZED.len(), 3);
    }

    #[test]
    fn display_names() {
        assert_eq!(Region::NorthAmerica.to_string(), "North America");
        assert_eq!(Region::Asia.code(), "AS");
    }
}
