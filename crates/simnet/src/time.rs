//! Simulated time.
//!
//! [`SimTime`] is an absolute instant (milliseconds since trace start);
//! [`SimDuration`] is a span. Millisecond resolution comfortably covers the
//! paper's finest-grained measure (sub-second query interarrival filtering,
//! rule 4) while keeping arithmetic exact in `u64`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Absolute simulated instant, in milliseconds since trace start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in milliseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

/// Milliseconds per second.
pub const MILLIS_PER_SEC: u64 = 1_000;
/// Milliseconds per minute.
pub const MILLIS_PER_MIN: u64 = 60 * MILLIS_PER_SEC;
/// Milliseconds per hour.
pub const MILLIS_PER_HOUR: u64 = 60 * MILLIS_PER_MIN;
/// Milliseconds per day.
pub const MILLIS_PER_DAY: u64 = 24 * MILLIS_PER_HOUR;

impl SimTime {
    /// The trace origin (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MILLIS_PER_SEC)
    }

    /// Construct from fractional seconds (sub-millisecond truncated).
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite());
        SimTime((s * MILLIS_PER_SEC as f64) as u64)
    }

    /// Raw milliseconds since trace start.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since trace start.
    pub const fn as_secs(self) -> u64 {
        self.0 / MILLIS_PER_SEC
    }

    /// Fractional seconds since trace start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_SEC as f64
    }

    /// Day index (0-based) this instant falls in.
    pub const fn day(self) -> u64 {
        self.0 / MILLIS_PER_DAY
    }

    /// Seconds past local midnight of the instant's day.
    pub const fn second_of_day(self) -> u64 {
        (self.0 % MILLIS_PER_DAY) / MILLIS_PER_SEC
    }

    /// Hour of day (0–23) at the trace observation point.
    pub const fn hour_of_day(self) -> u32 {
        ((self.0 % MILLIS_PER_DAY) / MILLIS_PER_HOUR) as u32
    }

    /// Fractional hour of day (0.0–24.0).
    pub fn hour_of_day_f64(self) -> f64 {
        (self.0 % MILLIS_PER_DAY) as f64 / MILLIS_PER_HOUR as f64
    }

    /// Saturating difference `self − earlier`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MILLIS_PER_SEC)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * MILLIS_PER_MIN)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * MILLIS_PER_HOUR)
    }

    /// Construct from fractional seconds.
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite());
        SimDuration((s * MILLIS_PER_SEC as f64) as u64)
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds (truncated).
    pub const fn as_secs(self) -> u64 {
        self.0 / MILLIS_PER_SEC
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_SEC as f64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day();
        let rem = self.0 % MILLIS_PER_DAY;
        let h = rem / MILLIS_PER_HOUR;
        let m = (rem % MILLIS_PER_HOUR) / MILLIS_PER_MIN;
        let s = (rem % MILLIS_PER_MIN) / MILLIS_PER_SEC;
        let ms = rem % MILLIS_PER_SEC;
        write!(f, "d{day} {h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_secs(90);
        assert_eq!(t.as_millis(), 90_000);
        assert_eq!(t.as_secs(), 90);
        assert!((t.as_secs_f64() - 90.0).abs() < 1e-12);
        assert_eq!(SimTime::from_secs_f64(1.5).as_millis(), 1_500);
        assert_eq!(SimDuration::from_mins(2).as_secs(), 120);
        assert_eq!(SimDuration::from_hours(1).as_millis(), 3_600_000);
    }

    #[test]
    fn day_arithmetic() {
        // 2 days + 3 hours + 30 minutes.
        let t =
            SimTime::from_millis(2 * MILLIS_PER_DAY + 3 * MILLIS_PER_HOUR + 30 * MILLIS_PER_MIN);
        assert_eq!(t.day(), 2);
        assert_eq!(t.hour_of_day(), 3);
        assert!((t.hour_of_day_f64() - 3.5).abs() < 1e-12);
        assert_eq!(t.second_of_day(), 3 * 3600 + 30 * 60);
    }

    #[test]
    fn ordering_and_arith() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(25);
        assert!(a < b);
        assert_eq!((b - a).as_secs(), 15);
        assert_eq!((a - b).as_secs(), 0); // saturating
        assert_eq!(a + SimDuration::from_secs(15), b);
        let mut c = a;
        c += SimDuration::from_secs(5);
        assert_eq!(c.as_secs(), 15);
    }

    #[test]
    fn duration_arith_saturates() {
        let d = SimDuration::from_secs(5) - SimDuration::from_secs(9);
        assert_eq!(d, SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs(5) + SimDuration::from_secs(9),
            SimDuration::from_secs(14)
        );
    }

    #[test]
    fn display_formats() {
        let t =
            SimTime::from_millis(MILLIS_PER_DAY + 2 * MILLIS_PER_HOUR + 3 * MILLIS_PER_MIN + 4_567);
        assert_eq!(t.to_string(), "d1 02:03:04.567");
        assert_eq!(SimDuration::from_millis(1_500).to_string(), "1.500s");
    }
}
