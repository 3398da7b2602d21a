//! Session arrival process.
//!
//! Connections arrive as a Poisson process whose total rate is flat over
//! the day (§4.1 observes that the number of connected peers per 5-minute
//! interval is stable) while the *regional mix* follows the diurnal model.
//! Arrivals are generated hour by hour: a Poisson count, then uniform
//! placement within the hour.

use rand::rngs::StdRng;
use rand::Rng;
use simnet::{SimDuration, SimTime};
use stats::rng::gaussian;

/// Poisson arrival schedule generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ArrivalProcess {
    /// Mean connections per simulated day.
    pub(crate) sessions_per_day: f64,
}

impl ArrivalProcess {
    /// Create with a daily session budget.
    pub(crate) fn new(sessions_per_day: f64) -> ArrivalProcess {
        assert!(
            sessions_per_day.is_finite() && sessions_per_day >= 0.0,
            "sessions_per_day must be non-negative"
        );
        ArrivalProcess { sessions_per_day }
    }

    /// Mean arrivals per hour.
    pub(crate) fn hourly_rate(&self) -> f64 {
        self.sessions_per_day / 24.0
    }

    /// Draw the arrival offsets (within the hour, ascending) for one hour.
    pub(crate) fn arrivals_in_hour(&self, rng: &mut StdRng) -> Vec<SimDuration> {
        let n = poisson(rng, self.hourly_rate());
        let mut offs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..3_600_000u64)).collect();
        offs.sort_unstable();
        offs.into_iter().map(SimDuration::from_millis).collect()
    }
}

/// One hour of arrival instants, released one at a time.
///
/// A driver draws the whole hour at its hour tick, keeps the instants
/// here, and puts only the next one on the event queue, arming its
/// successor when it fires. The queue then holds one pending arrival per
/// driver instead of an hour of them (about 83 000 at 2 M arrivals/day).
/// Pop order is the same as with the whole hour pushed at once: arrival
/// `i + 1` is pushed no later than the instant of arrival `i`, so it is
/// in the queue before anything that would pop after it.
#[derive(Debug, Default)]
pub(crate) struct HourArrivals {
    /// The hour's instants before the campaign end, ascending.
    times: Vec<SimTime>,
    /// Index of the next instant to release.
    next: usize,
}

impl HourArrivals {
    /// Draw the hour that starts at `now`, keeping the arrivals before
    /// `end`; returns how many were kept. The previous hour must have
    /// been released in full.
    pub(crate) fn draw(
        &mut self,
        process: &ArrivalProcess,
        rng: &mut StdRng,
        now: SimTime,
        end: SimTime,
    ) -> usize {
        debug_assert_eq!(self.next, self.times.len(), "previous hour not released");
        self.times.clear();
        self.next = 0;
        let offs = process.arrivals_in_hour(rng);
        self.times
            .extend(offs.into_iter().map(|off| now + off).filter(|&at| at < end));
        self.times.len()
    }

    /// The next arrival: its index among the hour's kept arrivals, and
    /// its instant.
    pub(crate) fn release(&mut self) -> Option<(usize, SimTime)> {
        let at = *self.times.get(self.next)?;
        self.next += 1;
        Some((self.next - 1, at))
    }
}

/// Poisson sample: Knuth's method for small λ, normal approximation above.
pub(crate) fn poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // numeric guard; unreachable for λ < 30
            }
        }
    }
    // Normal approximation with continuity correction.
    let x = lambda + lambda.sqrt() * gaussian(rng) + 0.5;
    if x < 0.0 {
        0
    } else {
        x as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn poisson_mean_small_lambda() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, 3.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_mean_large_lambda() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, 200.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 200.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn poisson_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn arrivals_are_sorted_within_hour() {
        let a = ArrivalProcess::new(2_400.0);
        let mut rng = StdRng::seed_from_u64(4);
        let offs = a.arrivals_in_hour(&mut rng);
        // 100/hour on average.
        assert!(offs.len() > 50 && offs.len() < 160, "{}", offs.len());
        for w in offs.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for o in &offs {
            assert!(o.as_millis() < 3_600_000);
        }
    }

    #[test]
    fn hour_arrivals_release_the_kept_prefix_in_order() {
        let a = ArrivalProcess::new(2_400.0);
        let now = SimTime::from_secs(7_200);
        let end = now + SimDuration::from_millis(1_800_000);
        let offs = a.arrivals_in_hour(&mut StdRng::seed_from_u64(5));
        let expect: Vec<(usize, SimTime)> = offs
            .iter()
            .map(|&off| now + off)
            .filter(|&at| at < end)
            .enumerate()
            .collect();
        assert!(!expect.is_empty() && expect.len() < offs.len());
        let mut hour = HourArrivals::default();
        let kept = hour.draw(&a, &mut StdRng::seed_from_u64(5), now, end);
        assert_eq!(kept, expect.len());
        let released: Vec<_> = std::iter::from_fn(|| hour.release()).collect();
        assert_eq!(released, expect);
    }

    #[test]
    fn hourly_rate() {
        assert!((ArrivalProcess::new(24_000.0).hourly_rate() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_rate() {
        let _ = ArrivalProcess::new(-1.0);
    }
}
