//! Ordinary least squares — the paper's Zipf exponents come from linear
//! fits on log-log rank-frequency data.

use crate::error::StatsError;

/// Result of a simple linear regression `y = intercept + slope · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinearFit {
    /// Fitted slope.
    pub(crate) slope: f64,
    /// Fitted intercept.
    pub(crate) intercept: f64,
    /// Coefficient of determination R².
    pub(crate) r_squared: f64,
    /// Number of points fitted.
    pub(crate) n: usize,
}

/// Least-squares fit of `y = a + b·x` over paired samples.
pub(crate) fn linear_fit(xs: &[f64], ys: &[f64]) -> Result<LinearFit, StatsError> {
    if xs.len() != ys.len() {
        return Err(StatsError::BadSample {
            value: ys.len() as f64,
            reason: "x/y length mismatch",
        });
    }
    let pairs: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .collect();
    if pairs.len() < 2 {
        return Err(StatsError::NotEnoughData {
            needed: 2,
            got: pairs.len(),
        });
    }
    let n = pairs.len() as f64;
    let sx: f64 = pairs.iter().map(|(x, _)| x).sum();
    let sy: f64 = pairs.iter().map(|(_, y)| y).sum();
    let mx = sx / n;
    let my = sy / n;
    let sxx: f64 = pairs.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    let sxy: f64 = pairs.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    if sxx == 0.0 {
        return Err(StatsError::BadSample {
            value: mx,
            reason: "all x values identical",
        });
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = pairs.iter().map(|(_, y)| (y - my) * (y - my)).sum();
    let ss_res: f64 = pairs
        .iter()
        .map(|(x, y)| {
            let e = y - (intercept + slope * x);
            e * e
        })
        .sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Ok(LinearFit {
        slope,
        intercept,
        r_squared,
        n: pairs.len(),
    })
}

/// Fit `y = c·x^b` by OLS on `ln y = ln c + b ln x`; requires positive data.
/// Returns `(b, c, r_squared)`.
pub fn power_law_fit(xs: &[f64], ys: &[f64]) -> Result<(f64, f64, f64), StatsError> {
    let mut lx = Vec::with_capacity(xs.len());
    let mut ly = Vec::with_capacity(ys.len());
    for (&x, &y) in xs.iter().zip(ys) {
        if x > 0.0 && y > 0.0 {
            lx.push(x.ln());
            ly.push(y.ln());
        }
    }
    let fit = linear_fit(&lx, &ly)?;
    Ok((fit.slope, fit.intercept.exp(), fit.r_squared))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let f = linear_fit(&xs, &ys).unwrap();
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 3.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
        assert_eq!(f.n, 10);
    }

    #[test]
    fn noisy_line_recovers_slope() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 1.0 - 0.5 * x + if i % 2 == 0 { 0.3 } else { -0.3 })
            .collect();
        let f = linear_fit(&xs, &ys).unwrap();
        assert!((f.slope + 0.5).abs() < 0.01);
        assert!(f.r_squared > 0.99);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(linear_fit(&[1.0], &[1.0]).is_err());
        assert!(linear_fit(&[1.0, 1.0], &[1.0, 2.0]).is_err());
        assert!(linear_fit(&[1.0, 2.0], &[1.0]).is_err());
    }

    #[test]
    fn filters_non_finite_pairs() {
        let f = linear_fit(&[0.0, 1.0, f64::NAN, 2.0], &[0.0, 1.0, 5.0, 2.0]).unwrap();
        assert_eq!(f.n, 3);
        assert!((f.slope - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_law_zipf_shape() {
        // y = 0.1 x^(-0.386) — the paper's NA Zipf exponent.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.1 * x.powf(-0.386)).collect();
        let (b, c, r2) = power_law_fit(&xs, &ys).unwrap();
        assert!((b + 0.386).abs() < 1e-9);
        assert!((c - 0.1).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_law_skips_nonpositive() {
        let xs = [0.0, 1.0, 2.0, 4.0];
        let ys = [5.0, 1.0, 0.5, 0.25];
        // Only the 3 positive-x pairs participate: y = x^(-1).
        let (b, _, _) = power_law_fit(&xs, &ys).unwrap();
        assert!((b + 1.0).abs() < 1e-9);
    }
}
