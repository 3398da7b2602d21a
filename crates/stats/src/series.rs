//! `(x, y)` series — the interchange type between analysis and the
//! experiment harness (each paper figure panel is one or more `Series`).

/// A named or anonymous sequence of `(x, y)` points.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Optional label (e.g. `"Europe"`, `"Start at 03:00-04:00"`).
    pub label: String,
}

impl Series {
    /// Build from parallel vectors; panics if lengths differ (programmer
    /// error, not data error).
    pub(crate) fn new(xs: Vec<f64>, ys: Vec<f64>) -> Self {
        assert_eq!(xs.len(), ys.len(), "series coordinate lengths differ");
        Series {
            xs,
            ys,
            label: String::new(),
        }
    }

    /// Build with a label.
    pub fn labeled(label: impl Into<String>, xs: Vec<f64>, ys: Vec<f64>) -> Self {
        let mut s = Series::new(xs, ys);
        s.label = label.into();
        s
    }

    /// Y coordinates.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Iterate points.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.xs.iter().copied().zip(self.ys.iter().copied())
    }

    /// Linearly interpolate `y` at `x` (clamping outside the domain).
    ///
    /// Requires xs to be sorted ascending (true for all series produced by
    /// this workspace).
    pub fn interpolate(&self, x: f64) -> Option<f64> {
        if self.xs.is_empty() {
            return None;
        }
        if x <= self.xs[0] {
            return Some(self.ys[0]);
        }
        if x >= *self.xs.last().unwrap() {
            return Some(*self.ys.last().unwrap());
        }
        let i = self.xs.partition_point(|&v| v < x);
        let (x0, x1) = (self.xs[i - 1], self.xs[i]);
        let (y0, y1) = (self.ys[i - 1], self.ys[i]);
        if x1 == x0 {
            return Some(y1);
        }
        let w = (x - x0) / (x1 - x0);
        Some(y0 * (1.0 - w) + y1 * w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mismatched_lengths_panic() {
        let _ = Series::new(vec![1.0], vec![]);
    }

    #[test]
    fn interpolation() {
        let s = Series::new(vec![0.0, 10.0, 20.0], vec![0.0, 100.0, 0.0]);
        assert_eq!(s.interpolate(5.0), Some(50.0));
        assert_eq!(s.interpolate(15.0), Some(50.0));
        assert_eq!(s.interpolate(-5.0), Some(0.0)); // clamp left
        assert_eq!(s.interpolate(25.0), Some(0.0)); // clamp right
        assert_eq!(s.interpolate(10.0), Some(100.0));
    }

    #[test]
    fn empty_series() {
        let s = Series::default();
        assert!(s.ys().is_empty());
        assert_eq!(s.interpolate(1.0), None);
    }

    #[test]
    fn labels_and_table() {
        let s = Series::labeled("Europe", vec![1.0, 2.0], vec![0.9, 0.5]);
        assert_eq!(s.label, "Europe");
        assert_eq!(s.points().collect::<Vec<_>>(), [(1.0, 0.9), (2.0, 0.5)]);
    }
}
