//! The workload model: every conditional distribution of §4, as data.
//!
//! [`WorkloadModel`] is a plain, serializable parameter set; call
//! [`WorkloadModel::paper_default`] for the appendix-table values, load
//! one from JSON, or derive one from a trace with `p2pq::calibrate()`.
//! [`WorkloadModel::laws`] builds every Table A.1–A.5 law once, one per
//! region × period × query-count-class cell, and is where a model's
//! session laws are validated; the popularity rank laws are built by
//! [`ClassPopularity::build_law`].

use geoip::{DiurnalModel, Region};
use rand::Rng;
use serde::{Deserialize, Serialize};
use stats::dist::{
    BodyTail, Continuous, Lognormal, Pareto, Truncated, TwoPieceZipf, Weibull, Zipf,
};
use stats::StatsError;
use std::fmt;

/// Lognormal parameters (σ, µ — appendix order).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LognormalParams {
    /// Log-mean µ.
    pub mu: f64,
    /// Log-std-dev σ.
    pub sigma: f64,
}

impl LognormalParams {
    /// Materialize the distribution.
    pub fn dist(&self) -> Result<Lognormal, StatsError> {
        Lognormal::new(self.mu, self.sigma)
    }
}

/// Weibull parameters in the paper's `F(x) = 1 − exp(−λxᵅ)` form.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeibullParams {
    /// Shape α.
    pub alpha: f64,
    /// Rate λ.
    pub lambda: f64,
}

impl WeibullParams {
    /// Materialize the distribution.
    pub fn dist(&self) -> Result<Weibull, StatsError> {
        Weibull::new(self.alpha, self.lambda)
    }
}

/// Pareto parameters (`F(x) = 1 − (β/x)ᵅ`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParetoParams {
    /// Tail index α.
    pub alpha: f64,
    /// Location β.
    pub beta: f64,
}

impl ParetoParams {
    /// Materialize the distribution.
    pub fn dist(&self) -> Result<Pareto, StatsError> {
        Pareto::new(self.alpha, self.beta)
    }
}

/// A body‖tail composite: body below `split` with probability
/// `body_weight`, tail above.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BodyTailParams<B, T> {
    /// Split point (units of the modeled quantity).
    pub split: f64,
    /// Probability mass of the body.
    pub body_weight: f64,
    /// Body component parameters.
    pub body: B,
    /// Tail component parameters.
    pub tail: T,
}

/// Query-count conditioning classes used by Tables A.3 (first query).
pub const FIRST_QUERY_CLASSES: usize = 3; // <3, =3, >3
/// Query-count conditioning classes used by Table A.5 (after last query).
pub const LAST_QUERY_CLASSES: usize = 3; // 1, 2–7, >7
/// Query-count conditioning classes of Europe's interarrival shift
/// (Figure 8(b)).
pub const INTERARRIVAL_CLASSES: usize = 3; // <3, 3–7, >7

/// Index for the Table A.3 classes.
pub fn first_query_class(n_queries: u32) -> usize {
    match n_queries {
        0..=2 => 0,
        3 => 1,
        _ => 2,
    }
}

/// Index for the Table A.5 classes.
pub fn last_query_class(n_queries: u32) -> usize {
    match n_queries {
        0 | 1 => 0,
        2..=7 => 1,
        _ => 2,
    }
}

/// Index for the Figure 8(b) classes of [`InterarrivalModel::eu_count_shift`].
pub fn interarrival_class(n_queries: u32) -> usize {
    match n_queries {
        0..=2 => 0,
        3..=7 => 1,
        _ => 2,
    }
}

/// Labels of the [`first_query_class`], [`last_query_class`] and
/// [`interarrival_class`] indices.
const FIRST_CLASS_LABELS: [&str; FIRST_QUERY_CLASSES] = ["n < 3", "n = 3", "n > 3"];
const LAST_CLASS_LABELS: [&str; LAST_QUERY_CLASSES] = ["n = 1", "n 2–7", "n > 7"];
const INTERARRIVAL_CLASS_LABELS: [&str; INTERARRIVAL_CLASSES] = ["n < 3", "n 3–7", "n > 7"];

/// Index of the `[peak, non-peak]` axis of the law tables.
fn period_index(peak: bool) -> usize {
    if peak {
        0
    } else {
        1
    }
}

/// Interarrival model (Table A.4 + Figure 8 conditioning).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterarrivalModel {
    /// Body lognormal per period (`[peak, non-peak]`).
    pub body: [LognormalParams; 2],
    /// Pareto tail per period.
    pub tail: [ParetoParams; 2],
    /// Split point (103 s in the paper).
    pub split: f64,
    /// Body weight per region (Figure 8(a): EU 0.9, Asia 0.8, NA 0.7).
    pub body_weight: [f64; 4],
    /// Per-region body-µ shift (e.g. EU interarrivals are shorter).
    pub mu_shift: [f64; 4],
    /// Extra µ shift for European sessions conditioned on query count
    /// (Figure 8(b)): `[<3, 3–7, >7]`. Zero for other regions — the paper
    /// found NO such correlation for North America.
    pub eu_count_shift: [f64; 3],
}

/// The seven disjoint geographic query classes (§4.6 / Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryClass {
    /// Issued only by North American peers.
    NaOnly,
    /// Issued only by European peers.
    EuOnly,
    /// Issued only by Asian peers.
    AsOnly,
    /// North America ∩ Europe.
    NaEu,
    /// North America ∩ Asia.
    NaAs,
    /// Europe ∩ Asia.
    EuAs,
    /// All three regions.
    All,
}

impl QueryClass {
    /// All classes, fixed order.
    pub const ALL7: [QueryClass; 7] = [
        QueryClass::NaOnly,
        QueryClass::EuOnly,
        QueryClass::AsOnly,
        QueryClass::NaEu,
        QueryClass::NaAs,
        QueryClass::EuAs,
        QueryClass::All,
    ];

    /// Dense index: the position in [`QueryClass::ALL7`], which lists the
    /// variants in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            QueryClass::NaOnly => "NA-only",
            QueryClass::EuOnly => "EU-only",
            QueryClass::AsOnly => "AS-only",
            QueryClass::NaEu => "NA∩EU",
            QueryClass::NaAs => "NA∩AS",
            QueryClass::EuAs => "EU∩AS",
            QueryClass::All => "NA∩EU∩AS",
        }
    }
}

/// Rank-popularity law of one query class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RankLawParams {
    /// Single Zipf-like law with exponent α.
    Zipf {
        /// Exponent α.
        alpha: f64,
    },
    /// Two-piece Zipf (the flattened-head intersection classes,
    /// Figure 11(c)).
    TwoPiece {
        /// Body exponent (ranks ≤ break).
        alpha_body: f64,
        /// Tail exponent.
        alpha_tail: f64,
        /// Break rank.
        break_rank: u64,
    },
}

/// Built rank sampler.
#[derive(Debug, Clone)]
pub enum RankLaw {
    /// Single-piece Zipf sampler.
    Zipf(Zipf),
    /// Two-piece Zipf sampler.
    TwoPiece(TwoPieceZipf),
}

impl RankLaw {
    /// Draw a 1-based rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        use stats::dist::Discrete;
        match self {
            RankLaw::Zipf(z) => z.sample(rng),
            RankLaw::TwoPiece(z) => z.sample(rng),
        }
    }
}

/// Popularity structure of one class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassPopularity {
    /// Rank law.
    pub law: RankLawParams,
    /// Distinct queries active per day (Table 3, 1-day column).
    pub daily_size: u64,
    /// Underlying pool multiplier (hot-set drift head-room).
    pub pool_multiplier: u64,
}

impl ClassPopularity {
    /// Build the rank sampler over this class's daily set.
    pub fn build_law(&self) -> Result<RankLaw, StatsError> {
        match self.law {
            RankLawParams::Zipf { alpha } => Ok(RankLaw::Zipf(Zipf::new(alpha, self.daily_size)?)),
            RankLawParams::TwoPiece {
                alpha_body,
                alpha_tail,
                break_rank,
            } => {
                let brk = break_rank.clamp(1, self.daily_size.saturating_sub(1).max(1));
                Ok(RankLaw::TwoPiece(TwoPieceZipf::new(
                    alpha_body,
                    alpha_tail,
                    brk,
                    self.daily_size.max(2),
                )?))
            }
        }
    }
}

/// Per-region class-selection probabilities (§4.7: a NA query falls in
/// the NA set with probability 0.97, in an intersection set with 0.03).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassMixParams {
    /// NA: (NaOnly, NaEu, NaAs, All).
    pub na: [f64; 4],
    /// EU: (EuOnly, NaEu, EuAs, All).
    pub eu: [f64; 4],
    /// Asia: (AsOnly, NaAs, EuAs, All).
    pub asia: [f64; 4],
}

/// Popularity model: per-class structure plus region mixing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopularityModel {
    /// Per-class popularity (indexed by [`QueryClass::index`]).
    pub classes: [ClassPopularity; 7],
    /// Region → class mixing probabilities.
    pub mix: ClassMixParams,
    /// Hot-set drift noise (Figure 10); see the generator's day mapping.
    pub drift_sigma: f64,
}

impl PopularityModel {
    /// The classes a region participates in, in mix order.
    pub fn region_classes(region: Region) -> [QueryClass; 4] {
        match region {
            Region::NorthAmerica | Region::Other => [
                QueryClass::NaOnly,
                QueryClass::NaEu,
                QueryClass::NaAs,
                QueryClass::All,
            ],
            Region::Europe => [
                QueryClass::EuOnly,
                QueryClass::NaEu,
                QueryClass::EuAs,
                QueryClass::All,
            ],
            Region::Asia => [
                QueryClass::AsOnly,
                QueryClass::NaAs,
                QueryClass::EuAs,
                QueryClass::All,
            ],
        }
    }

    /// The mix probabilities of a region, aligned with
    /// [`PopularityModel::region_classes`].
    pub fn region_mix(&self, region: Region) -> [f64; 4] {
        match region {
            Region::NorthAmerica | Region::Other => self.mix.na,
            Region::Europe => self.mix.eu,
            Region::Asia => self.mix.asia,
        }
    }
}

/// The complete workload model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadModel {
    /// Diurnal geographic mix (Figure 1) and peak periods (§4.2).
    pub diurnal: DiurnalModel,
    /// Fraction of passive peers per region (Figure 4).
    pub passive_prob: [f64; 4],
    /// Passive session duration (Table A.1), seconds:
    /// `[region][peak(0)/non-peak(1)]`, lognormal body ‖ lognormal tail.
    pub passive_duration: [[BodyTailParams<LognormalParams, LognormalParams>; 2]; 4],
    /// Lower truncation of passive durations (the rule-3 boundary):
    /// sessions shorter than this are quick disconnects, not user
    /// sessions, and are outside the model.
    pub min_session_secs: f64,
    /// Queries per active session (Table A.2), per region.
    pub queries_per_session: [LognormalParams; 4],
    /// Maximum queries per session (numerical guard).
    pub max_queries: u32,
    /// Time until the first query (Table A.3), seconds:
    /// `[region][peak/non-peak][count class]`, Weibull body ‖ lognormal
    /// tail.
    pub first_query:
        [[[BodyTailParams<WeibullParams, LognormalParams>; FIRST_QUERY_CLASSES]; 2]; 4],
    /// Query interarrival times (Table A.4 + Figure 8 conditioning).
    pub interarrival: InterarrivalModel,
    /// Time after the last query (Table A.5), seconds:
    /// `[region][peak/non-peak][count class]`.
    pub time_after_last: [[[LognormalParams; LAST_QUERY_CLASSES]; 2]; 4],
    /// Query popularity structure (§4.6).
    pub popularity: PopularityModel,
}

/// Region adjustments shared by the defaults below; indexes match
/// [`Region::index`]: NA, EU, Asia, Other.
const REGIONS: [Region; 4] = [
    Region::NorthAmerica,
    Region::Europe,
    Region::Asia,
    Region::Other,
];

impl WorkloadModel {
    /// The paper's model: appendix tables for North America, figure-level
    /// adjustments for Europe and Asia (see each field's doc).
    pub fn paper_default() -> WorkloadModel {
        let ln = |mu: f64, sigma: f64| LognormalParams { mu, sigma };
        let wb = |alpha: f64, lambda: f64| WeibullParams { alpha, lambda };

        // --- Table A.1: passive session duration --------------------------
        let passive_duration = {
            let mk = |w: f64, body: (f64, f64), tail: (f64, f64)| BodyTailParams {
                split: 120.0,
                body_weight: w,
                body: ln(body.0, body.1),
                tail: ln(tail.0, tail.1),
            };
            let per_region = |region: Region| match region {
                Region::NorthAmerica | Region::Other => [
                    mk(0.75, (2.108, 2.502), (6.397, 2.749)), // peak
                    mk(0.55, (2.201, 2.383), (6.817, 2.848)), // non-peak
                ],
                Region::Europe => [
                    mk(0.55, (2.201, 2.383), (6.90, 2.80)),
                    mk(0.42, (2.201, 2.383), (7.25, 2.85)),
                ],
                Region::Asia => [
                    mk(0.85, (2.05, 2.45), (5.80, 2.60)),
                    mk(0.78, (2.10, 2.45), (6.05, 2.70)),
                ],
            };
            [
                per_region(REGIONS[0]),
                per_region(REGIONS[1]),
                per_region(REGIONS[2]),
                per_region(REGIONS[3]),
            ]
        };

        // --- Table A.3: time until first query ----------------------------
        let first_query = {
            let mk = |w: f64, split: f64, body: (f64, f64), tail: (f64, f64), tail_shift: f64| {
                BodyTailParams {
                    split,
                    body_weight: w,
                    body: wb(body.0, body.1),
                    tail: ln(tail.0 + tail_shift, tail.1),
                }
            };
            let per_region = |region: Region| {
                let shift = match region {
                    Region::Asia => -1.35,
                    Region::Europe => 0.25,
                    _ => 0.0,
                };
                [
                    // Peak: split 45 s, body weight 0.50.
                    [
                        mk(0.50, 45.0, (1.477, 0.005252), (5.091, 2.905), shift),
                        mk(0.50, 45.0, (1.261, 0.01081), (6.303, 2.045), shift),
                        mk(0.50, 45.0, (0.9821, 0.02662), (6.301, 2.359), shift),
                    ],
                    // Non-peak: split 120 s, body weight 0.42.
                    [
                        mk(0.42, 120.0, (1.159, 0.01779), (5.144, 3.384), shift),
                        mk(0.42, 120.0, (1.207, 0.01446), (6.400, 2.324), shift),
                        mk(0.42, 120.0, (0.9351, 0.03380), (7.186, 2.463), shift),
                    ],
                ]
            };
            [
                per_region(REGIONS[0]),
                per_region(REGIONS[1]),
                per_region(REGIONS[2]),
                per_region(REGIONS[3]),
            ]
        };

        // --- Table A.5: time after last query ------------------------------
        let time_after_last = {
            let per_region = |region: Region| {
                let shift = match region {
                    Region::Asia => -0.85,
                    _ => 0.0,
                };
                [
                    [
                        ln(4.879 + shift, 2.361),
                        ln(5.686 + shift, 2.259),
                        ln(6.107 + shift, 2.145),
                    ],
                    [
                        ln(4.760 + shift, 2.162),
                        ln(5.672 + shift, 2.156),
                        ln(6.036 + shift, 2.286),
                    ],
                ]
            };
            [
                per_region(REGIONS[0]),
                per_region(REGIONS[1]),
                per_region(REGIONS[2]),
                per_region(REGIONS[3]),
            ]
        };

        WorkloadModel {
            diurnal: DiurnalModel::paper_default(),
            passive_prob: [0.825, 0.775, 0.85, 0.82],
            passive_duration,
            min_session_secs: 64.0,
            queries_per_session: [
                ln(-0.0673, 1.360), // Table A.2 NA
                ln(0.520, 1.306),   // Table A.2 EU
                ln(-1.029, 1.618),  // Table A.2 Asia
                ln(-0.0673, 1.360), // Other ≈ NA
            ],
            max_queries: 120,
            first_query,
            interarrival: InterarrivalModel {
                body: [ln(3.353, 1.625), ln(2.933, 1.410)], // Table A.4
                tail: [
                    ParetoParams {
                        alpha: 0.9041,
                        beta: 103.0,
                    },
                    ParetoParams {
                        alpha: 1.143,
                        beta: 103.0,
                    },
                ],
                split: 103.0,
                body_weight: [0.70, 0.90, 0.80, 0.70], // Figure 8(a)
                mu_shift: [0.0, -0.70, -0.35, 0.0],
                eu_count_shift: [0.25, 0.0, -0.55], // Figure 8(b)
            },
            time_after_last,
            popularity: PopularityModel {
                classes: [
                    // Table 3 one-day cardinalities, made disjoint;
                    // Figure 11 exponents.
                    ClassPopularity {
                        law: RankLawParams::Zipf { alpha: 0.386 },
                        daily_size: 1931,
                        pool_multiplier: 5,
                    },
                    ClassPopularity {
                        law: RankLawParams::Zipf { alpha: 0.223 },
                        daily_size: 1875,
                        pool_multiplier: 5,
                    },
                    ClassPopularity {
                        law: RankLawParams::Zipf { alpha: 0.30 },
                        daily_size: 145,
                        pool_multiplier: 5,
                    },
                    ClassPopularity {
                        law: RankLawParams::TwoPiece {
                            alpha_body: 0.453,
                            alpha_tail: 4.67,
                            break_rank: 45,
                        },
                        daily_size: 54,
                        pool_multiplier: 5,
                    },
                    ClassPopularity {
                        law: RankLawParams::Zipf { alpha: 0.30 },
                        daily_size: 3,
                        pool_multiplier: 5,
                    },
                    ClassPopularity {
                        law: RankLawParams::Zipf { alpha: 0.30 },
                        daily_size: 3,
                        pool_multiplier: 5,
                    },
                    ClassPopularity {
                        law: RankLawParams::Zipf { alpha: 0.30 },
                        daily_size: 2,
                        pool_multiplier: 5,
                    },
                ],
                mix: ClassMixParams {
                    na: [0.970, 0.025, 0.003, 0.002],
                    eu: [0.965, 0.030, 0.003, 0.002],
                    asia: [0.930, 0.030, 0.030, 0.010],
                },
                drift_sigma: 2.3,
            },
        }
    }

    /// Build every Table A.1–A.5 law once: one per region × period ×
    /// query-count-class cell. Fails on the first cell whose parameters
    /// are invalid, naming it.
    pub fn laws(&self) -> Result<ModelLaws, LawError> {
        if self.max_queries == 0 {
            return Err(LawError {
                cell: "max_queries".into(),
                source: StatsError::BadParameter {
                    name: "max_queries",
                    value: 0.0,
                    constraint: "must be ≥ 1",
                },
            });
        }
        let passive = |r: usize, p: usize| {
            let c = &self.passive_duration[r][p];
            let body = Truncated::new(c.body.dist()?, self.min_session_secs, c.split)?;
            BodyTail::new(body, c.tail.dist()?, c.split, c.body_weight)
        };
        let first = |r: usize, p: usize, c: usize| {
            let f = &self.first_query[r][p][c];
            BodyTail::new(f.body.dist()?, f.tail.dist()?, f.split, f.body_weight)
        };
        let ia = &self.interarrival;
        // Europe's count shift is indexed by the Figure 8(b) classes;
        // the other regions' three cells hold the same law.
        let interarrival = |r: usize, p: usize, c: usize| {
            let mut mu = ia.body[p].mu + ia.mu_shift[r];
            if REGIONS[r] == Region::Europe {
                mu += ia.eu_count_shift[c];
            }
            let body = Lognormal::new(mu, ia.body[p].sigma)?;
            BodyTail::new(body, ia.tail[p].dist()?, ia.split, ia.body_weight[r])
        };
        Ok(ModelLaws {
            passive_prob: self.passive_prob,
            max_queries: self.max_queries,
            passive_duration: cells(|r| {
                cells(|p| {
                    passive(r, p).map_err(|e| LawError::at("passive_duration", r, Some(p), None, e))
                })
            })?,
            queries: cells(|r| {
                self.queries_per_session[r]
                    .dist()
                    .map_err(|e| LawError::at("queries_per_session", r, None, None, e))
            })?,
            first_query: grid("first_query", FIRST_CLASS_LABELS, first)?,
            interarrival: grid("interarrival", INTERARRIVAL_CLASS_LABELS, interarrival)?,
            time_after_last: grid("time_after_last", LAST_CLASS_LABELS, |r, p, c| {
                self.time_after_last[r][p][c].dist()
            })?,
        })
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("model serializes")
    }

    /// Load from JSON.
    pub fn from_json(s: &str) -> Result<WorkloadModel, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Longest passive session, seconds. §4.4's longest observed sessions run
/// 17–50 h; the cap keeps one draw from holding a measurement slot for
/// good.
const MAX_PASSIVE_SECS: f64 = 50.0 * 3_600.0;
/// Longest time before the first query and after the last, seconds.
const MAX_EDGE_SECS: f64 = 100_000.0;
/// Longest query interarrival, seconds.
const MAX_GAP_SECS: f64 = 20_000.0;

/// The session laws of a [`WorkloadModel`] (Figure 4, Tables A.1–A.5),
/// built once by [`WorkloadModel::laws`]. Its `draw_*` methods sample one
/// session step each, conditioned on `(region, peak, n_queries)`, and
/// apply the model's caps; each makes exactly one draw from `rng`.
#[derive(Debug, Clone)]
pub struct ModelLaws {
    passive_prob: [f64; 4],
    max_queries: u32,
    passive_duration: [[BodyTail<Truncated<Lognormal>, Lognormal>; 2]; 4],
    queries: [Lognormal; 4],
    first_query: [[[BodyTail<Weibull, Lognormal>; FIRST_QUERY_CLASSES]; 2]; 4],
    /// Indexed by [`interarrival_class`], the classes of Europe's count
    /// shift.
    interarrival: [[[BodyTail<Lognormal, Pareto>; INTERARRIVAL_CLASSES]; 2]; 4],
    time_after_last: [[[Lognormal; LAST_QUERY_CLASSES]; 2]; 4],
}

impl ModelLaws {
    /// Whether a session in `region` is passive (Figure 4).
    pub fn draw_passive<R: Rng + ?Sized>(&self, region: Region, rng: &mut R) -> bool {
        rng.gen::<f64>() < self.passive_prob[region.index()]
    }

    /// A passive session's duration in seconds (Table A.1), at most 50 h.
    pub fn draw_passive_duration<R: Rng + ?Sized>(
        &self,
        region: Region,
        peak: bool,
        rng: &mut R,
    ) -> f64 {
        self.passive_duration(region, peak)
            .sample(rng)
            .min(MAX_PASSIVE_SECS)
    }

    /// The number of queries of an active session (Table A.2): the
    /// continuous draw rounded up, within `[1, max_queries]`.
    pub fn draw_queries<R: Rng + ?Sized>(&self, region: Region, rng: &mut R) -> u32 {
        (self.queries(region).sample(rng).ceil() as u32).clamp(1, self.max_queries)
    }

    /// Seconds from connect to the first query (Table A.3), at most
    /// 100 000 s.
    pub fn draw_first_query<R: Rng + ?Sized>(
        &self,
        region: Region,
        peak: bool,
        n_queries: u32,
        rng: &mut R,
    ) -> f64 {
        self.first_query(region, peak, n_queries)
            .sample(rng)
            .min(MAX_EDGE_SECS)
    }

    /// Seconds between two queries (Table A.4 with the Figure 8
    /// conditioning), at most 20 000 s.
    pub fn draw_interarrival<R: Rng + ?Sized>(
        &self,
        region: Region,
        peak: bool,
        n_queries: u32,
        rng: &mut R,
    ) -> f64 {
        self.interarrival(region, peak, n_queries)
            .sample(rng)
            .min(MAX_GAP_SECS)
    }

    /// Seconds from the last query to disconnect (Table A.5), at most
    /// 100 000 s.
    pub fn draw_time_after_last<R: Rng + ?Sized>(
        &self,
        region: Region,
        peak: bool,
        n_queries: u32,
        rng: &mut R,
    ) -> f64 {
        self.time_after_last(region, peak, n_queries)
            .sample(rng)
            .min(MAX_EDGE_SECS)
    }

    /// Passive session duration (seconds, Table A.1), body additionally
    /// truncated at [`WorkloadModel::min_session_secs`].
    fn passive_duration(
        &self,
        region: Region,
        peak: bool,
    ) -> &BodyTail<Truncated<Lognormal>, Lognormal> {
        &self.passive_duration[region.index()][period_index(peak)]
    }

    /// Queries per active session (Table A.2; continuous).
    fn queries(&self, region: Region) -> &Lognormal {
        &self.queries[region.index()]
    }

    /// Time until the first query (seconds, Table A.3).
    fn first_query(
        &self,
        region: Region,
        peak: bool,
        n_queries: u32,
    ) -> &BodyTail<Weibull, Lognormal> {
        &self.first_query[region.index()][period_index(peak)][first_query_class(n_queries)]
    }

    /// Query interarrival time (seconds, Table A.4 with the Figure 8
    /// conditioning), before the cap that [`Self::draw_interarrival`]
    /// applies.
    pub fn interarrival(
        &self,
        region: Region,
        peak: bool,
        n_queries: u32,
    ) -> &BodyTail<Lognormal, Pareto> {
        &self.interarrival[region.index()][period_index(peak)][interarrival_class(n_queries)]
    }

    /// Time after the last query (seconds, Table A.5).
    fn time_after_last(&self, region: Region, peak: bool, n_queries: u32) -> &Lognormal {
        &self.time_after_last[region.index()][period_index(peak)][last_query_class(n_queries)]
    }
}

/// `[f(0), …, f(N − 1)]`, or the first error.
fn cells<T, const N: usize>(
    mut f: impl FnMut(usize) -> Result<T, LawError>,
) -> Result<[T; N], LawError> {
    let mut out = Vec::with_capacity(N);
    for i in 0..N {
        out.push(f(i)?);
    }
    Ok(out
        .try_into()
        .unwrap_or_else(|_| unreachable!("one value per index")))
}

/// A `[region][period][count class]` law table, naming the first cell
/// `build` fails on.
fn grid<T, const C: usize>(
    table: &str,
    labels: [&str; C],
    build: impl Fn(usize, usize, usize) -> Result<T, StatsError>,
) -> Result<[[[T; C]; 2]; 4], LawError> {
    cells(|r| {
        cells(|p| {
            cells(|c| {
                build(r, p, c).map_err(|e| LawError::at(table, r, Some(p), Some(labels[c]), e))
            })
        })
    })
}

/// A [`WorkloadModel`] law that cannot be built.
#[derive(Debug, Clone, PartialEq)]
pub struct LawError {
    /// The table cell, e.g. `passive_duration[North America][non-peak]`.
    pub cell: String,
    /// Why its parameters are invalid.
    pub source: StatsError,
}

impl LawError {
    /// The error of cell `[r][period][class]` of `table`; a table without
    /// a period or count-class axis passes `None`.
    fn at(
        table: &str,
        r: usize,
        period: Option<usize>,
        class: Option<&str>,
        source: StatsError,
    ) -> LawError {
        let mut cell = format!("{table}[{}]", REGIONS[r]);
        if let Some(p) = period {
            cell += ["[peak]", "[non-peak]"][p];
        }
        if let Some(class) = class {
            cell += &format!("[{class}]");
        }
        LawError { cell, source }
    }
}

impl fmt::Display for LawError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.cell, self.source)
    }
}

impl std::error::Error for LawError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Every cell of every table builds: all of them at once in
    /// `laws()`, and each rank law.
    #[test]
    fn default_model_materializes_all_distributions() {
        let m = WorkloadModel::paper_default();
        assert!(m.laws().is_ok());
        for c in &m.popularity.classes {
            assert!(c.build_law().is_ok());
        }
    }

    #[test]
    fn invalid_cell_is_named() {
        let mut m = WorkloadModel::paper_default();
        m.first_query[Region::Asia.index()][1][2].tail.sigma = -1.0;
        let e = m.laws().unwrap_err();
        assert_eq!(e.cell, "first_query[Asia][non-peak][n > 3]");
        assert!(matches!(
            e.source,
            StatsError::BadParameter { name: "sigma", .. }
        ));
        assert!(e
            .to_string()
            .starts_with("first_query[Asia][non-peak][n > 3]: "));
        // A session must be allowed one query.
        let mut m = WorkloadModel::paper_default();
        m.max_queries = 0;
        let e = m.laws().unwrap_err();
        assert_eq!(e.cell, "max_queries");
        assert!(e.to_string().starts_with("max_queries: "));
    }

    #[test]
    fn figure_anchors_hold() {
        let m = WorkloadModel::paper_default();
        let laws = m.laws().unwrap();
        // Figure 5(a): P(passive duration < 2 min), peak.
        let at2 = |r| laws.passive_duration(r, true).cdf(120.0);
        assert!((at2(Region::Asia) - 0.85).abs() < 1e-9);
        assert!((at2(Region::NorthAmerica) - 0.75).abs() < 1e-9);
        assert!((at2(Region::Europe) - 0.55).abs() < 1e-9);
        // Figure 8(a): P(interarrival < 103 s).
        let ia = |r| laws.interarrival(r, true, 5).cdf(103.0);
        assert!((ia(Region::Europe) - 0.90).abs() < 1e-9);
        assert!((ia(Region::Asia) - 0.80).abs() < 1e-9);
        assert!((ia(Region::NorthAmerica) - 0.70).abs() < 1e-9);
        // Figure 6(a): Europe issues more queries.
        assert!(
            laws.queries(Region::Europe).mean().unwrap()
                > laws.queries(Region::Asia).mean().unwrap()
        );
    }

    #[test]
    fn class_indices_and_mix() {
        for (i, c) in QueryClass::ALL7.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let m = WorkloadModel::paper_default();
        for r in Region::ALL {
            let mix = m.popularity.region_mix(r);
            let sum: f64 = mix.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{r}: mix sums to {sum}");
            let classes = PopularityModel::region_classes(r);
            assert_eq!(classes.len(), 4);
        }
    }

    #[test]
    fn count_class_mapping() {
        assert_eq!(first_query_class(0), 0);
        assert_eq!(first_query_class(1), 0);
        assert_eq!(first_query_class(2), 0);
        assert_eq!(first_query_class(3), 1);
        assert_eq!(first_query_class(4), 2);
        assert_eq!(last_query_class(1), 0);
        assert_eq!(last_query_class(7), 1);
        assert_eq!(last_query_class(8), 2);
        assert_eq!(interarrival_class(2), 0);
        assert_eq!(interarrival_class(3), 1);
        assert_eq!(interarrival_class(7), 1);
        assert_eq!(interarrival_class(8), 2);
    }

    #[test]
    fn eu_interarrival_conditioning_na_flat() {
        let laws = WorkloadModel::paper_default().laws().unwrap();
        let eu_few = laws.interarrival(Region::Europe, true, 2);
        let eu_many = laws.interarrival(Region::Europe, true, 20);
        assert!(eu_few.quantile(0.5) > eu_many.quantile(0.5));
        // Figure 8(b)'s classes: 3–7 queries share one law, which differs
        // from both neighbours.
        let eu_mid = laws.interarrival(Region::Europe, true, 3).quantile(0.5);
        for n in 4..=7 {
            let law = laws.interarrival(Region::Europe, true, n);
            assert_eq!(law.quantile(0.5), eu_mid, "EU n = {n}");
        }
        for n in [2, 8] {
            let law = laws.interarrival(Region::Europe, true, n);
            assert_ne!(law.quantile(0.5), eu_mid, "EU n = {n}");
        }
        let na_few = laws.interarrival(Region::NorthAmerica, true, 2);
        let na_many = laws.interarrival(Region::NorthAmerica, true, 20);
        assert_eq!(na_few.quantile(0.5), na_many.quantile(0.5));
    }

    #[test]
    fn passive_durations_keep_the_64s_floor() {
        // Shorter connections are quick disconnects (rule 3), outside the
        // model.
        let laws = WorkloadModel::paper_default().laws().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for r in Region::ALL {
            for peak in [true, false] {
                for _ in 0..500 {
                    let x = laws.draw_passive_duration(r, peak, &mut rng);
                    assert!(x >= 64.0, "{r} {peak}: duration {x}");
                }
            }
        }
    }

    #[test]
    fn passive_duration_long_tail_exists() {
        // §4.4: sessions of 17–50 h make up ≈1 % in every region.
        let laws = WorkloadModel::paper_default().laws().unwrap();
        for r in Region::CHARACTERIZED {
            let frac_over_17h = laws.passive_duration(r, false).ccdf(17.0 * 3600.0);
            assert!(
                frac_over_17h > 0.002 && frac_over_17h < 0.08,
                "{r}: {frac_over_17h}"
            );
        }
    }

    #[test]
    fn queries_per_session_region_ordering() {
        // Figure 6(a): fraction issuing <5 queries — Asia 92 %, NA 80 %,
        // EU 70 %. With ceil() discretization, X ≤ 4 ⟺ sample ≤ 4; the
        // Table A.2 lognormals land a few points above the paper's quoted
        // CCDF values (the paper's own Figure A.1(a) fit shows the same
        // offset), so the bands here are generous.
        let laws = WorkloadModel::paper_default().laws().unwrap();
        let lt5 = |r: Region| laws.queries(r).cdf(4.0);
        let (asia, na, eu) = (
            lt5(Region::Asia),
            lt5(Region::NorthAmerica),
            lt5(Region::Europe),
        );
        assert!((asia - 0.92).abs() < 0.05, "AS {asia}");
        assert!((na - 0.83).abs() < 0.05, "NA {na}");
        assert!((eu - 0.72).abs() < 0.06, "EU {eu}");
        // Ordering: EU issues most queries.
        assert!(
            laws.queries(Region::Europe).mean().unwrap()
                > laws.queries(Region::NorthAmerica).mean().unwrap()
        );
    }

    #[test]
    fn time_after_last_increases_with_queries() {
        // Figure 9(b): positive correlation with query count, over the
        // Table A.5 classes n = 1, 2–7 and > 7.
        let laws = WorkloadModel::paper_default().laws().unwrap();
        let median = |n| laws.time_after_last(Region::NorthAmerica, true, n).median();
        assert!(median(1) < median(4) && median(4) < median(8));
        // Asia closes faster (Figure 9(a)).
        let ccdf = |r| laws.time_after_last(r, true, 4).ccdf(1000.0);
        assert!(ccdf(Region::Asia) < ccdf(Region::NorthAmerica));
    }

    #[test]
    fn first_query_region_effects() {
        let laws = WorkloadModel::paper_default().laws().unwrap();
        let q90 = |r, n| laws.first_query(r, true, n).quantile(0.9);
        // Asia's tail is lighter (Figure 7(a)).
        assert!(q90(Region::Asia, 1) < q90(Region::NorthAmerica, 1));
        // Conditioning: more queries ⇒ later first query allowed (Figure
        // 7(b)); n = 1 is in class `< 3`, n = 5 in `> 3`.
        assert!(q90(Region::NorthAmerica, 5) > q90(Region::NorthAmerica, 1));
    }

    #[test]
    fn json_round_trip() {
        let m = WorkloadModel::paper_default();
        let json = m.to_json();
        let back = WorkloadModel::from_json(&json).unwrap();
        // Floats round-trip exactly (serde_json's `float_roundtrip`).
        assert_eq!(m, back);
        assert_eq!(json, back.to_json());
        assert!(json.contains("passive_prob"));
    }

    #[test]
    fn two_piece_law_builds_with_clamped_break() {
        // daily_size 2 with break 45 must clamp, not panic.
        let c = ClassPopularity {
            law: RankLawParams::TwoPiece {
                alpha_body: 0.453,
                alpha_tail: 4.67,
                break_rank: 45,
            },
            daily_size: 2,
            pool_multiplier: 5,
        };
        assert!(c.build_law().is_ok());
    }
}
