//! Link-latency models.
//!
//! The paper's measures are insensitive to sub-second network latency (all
//! characterized timescales are ≥ 1 s and rule 4 removes sub-second
//! artifacts), but the overlay simulation still models per-link delay so
//! message interleavings at the measurement peer are realistic.

use rand::Rng;

use crate::time::SimDuration;

/// How message delivery delay is computed for a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Constant delay.
    Fixed {
        /// Delay in milliseconds.
        millis: u64,
    },
    /// Uniformly distributed delay in `[lo_millis, hi_millis]`.
    Uniform {
        /// Minimum delay in milliseconds.
        lo_millis: u64,
        /// Maximum delay in milliseconds.
        hi_millis: u64,
    },
    /// Regional base delay plus uniform jitter — a crude but adequate model
    /// of transcontinental spread (NA↔EU ≈ 100 ms, NA↔Asia ≈ 180 ms, …).
    BasePlusJitter {
        /// Fixed propagation component, milliseconds.
        base_millis: u64,
        /// Maximum additional jitter, milliseconds.
        jitter_millis: u64,
    },
}

impl LatencyModel {
    /// Draw a delivery delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let ms = match *self {
            LatencyModel::Fixed { millis } => millis,
            LatencyModel::Uniform {
                lo_millis,
                hi_millis,
            } => {
                if hi_millis <= lo_millis {
                    lo_millis
                } else {
                    rng.gen_range(lo_millis..=hi_millis)
                }
            }
            LatencyModel::BasePlusJitter {
                base_millis,
                jitter_millis,
            } => {
                base_millis
                    + if jitter_millis == 0 {
                        0
                    } else {
                        rng.gen_range(0..=jitter_millis)
                    }
            }
        };
        SimDuration::from_millis(ms)
    }

    /// The least and the greatest delay [`Self::sample`] can draw.
    pub fn bounds(&self) -> (SimDuration, SimDuration) {
        let (lo, hi) = match *self {
            LatencyModel::Fixed { millis } => (millis, millis),
            LatencyModel::Uniform {
                lo_millis,
                hi_millis,
            } => (lo_millis, hi_millis.max(lo_millis)),
            LatencyModel::BasePlusJitter {
                base_millis,
                jitter_millis,
            } => (base_millis, base_millis + jitter_millis),
        };
        (SimDuration::from_millis(lo), SimDuration::from_millis(hi))
    }

    /// A reasonable default for same-continent overlay hops.
    pub fn intra_continent() -> Self {
        LatencyModel::BasePlusJitter {
            base_millis: 30,
            jitter_millis: 40,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fixed_is_fixed() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let m = LatencyModel::Fixed { millis: 42 };
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng).as_millis(), 42);
        }
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let m = LatencyModel::Uniform {
            lo_millis: 10,
            hi_millis: 20,
        };
        for _ in 0..100 {
            let d = m.sample(&mut rng).as_millis();
            assert!((10..=20).contains(&d));
        }
    }

    #[test]
    fn degenerate_uniform() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let m = LatencyModel::Uniform {
            lo_millis: 9,
            hi_millis: 9,
        };
        assert_eq!(m.sample(&mut rng).as_millis(), 9);
    }

    #[test]
    fn base_plus_jitter_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let m = LatencyModel::BasePlusJitter {
            base_millis: 120,
            jitter_millis: 80,
        };
        for _ in 0..100 {
            let d = m.sample(&mut rng).as_millis();
            assert!((120..=200).contains(&d));
        }
        let z = LatencyModel::BasePlusJitter {
            base_millis: 5,
            jitter_millis: 0,
        };
        assert_eq!(z.sample(&mut rng).as_millis(), 5);
    }

    #[test]
    fn samples_stay_within_bounds() {
        let ms = |lo: u64, hi: u64| (SimDuration::from_millis(lo), SimDuration::from_millis(hi));
        let cases = [
            (LatencyModel::Fixed { millis: 42 }, ms(42, 42)),
            (
                LatencyModel::Uniform {
                    lo_millis: 10,
                    hi_millis: 20,
                },
                ms(10, 20),
            ),
            // A degenerate uniform always draws its lower end.
            (
                LatencyModel::Uniform {
                    lo_millis: 9,
                    hi_millis: 3,
                },
                ms(9, 9),
            ),
            (LatencyModel::intra_continent(), ms(30, 70)),
            (
                LatencyModel::BasePlusJitter {
                    base_millis: 5,
                    jitter_millis: 0,
                },
                ms(5, 5),
            ),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for (model, bounds) in cases {
            assert_eq!(model.bounds(), bounds, "{model:?}");
            let (lo, hi) = bounds;
            let draws: Vec<SimDuration> = (0..1_000).map(|_| model.sample(&mut rng)).collect();
            assert!(draws.iter().all(|&d| lo <= d && d <= hi), "{model:?}");
            // Both ends are drawn: the bounds are tight.
            assert!(draws.contains(&lo) && draws.contains(&hi), "{model:?}");
        }
    }
}
