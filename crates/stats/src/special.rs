//! Special functions used by the analytic distributions.
//!
//! Implemented from standard numeric approximations so the crate needs no
//! external math dependency:
//!
//! * [`erf`] — Abramowitz & Stegun 7.1.26 (|ε| ≤ 1.5e-7), extended to the
//!   full real line by odd symmetry.
//! * [`norm_cdf`] / [`norm_quantile`] — standard normal CDF via `erf`, and
//!   its inverse via Acklam's rational approximation refined with one
//!   Halley step (|ε| ≲ 1e-13 after refinement).
//! * [`ln_gamma`] — Lanczos approximation (g = 7, n = 9).

/// Error function, `erf(x) = 2/√π ∫₀ˣ e^(−t²) dt`.
pub(crate) fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun formula 7.1.26.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();

    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;

    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function Φ(x).
pub(crate) fn norm_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal quantile function Φ⁻¹(p) for `p ∈ (0, 1)`.
///
/// Uses Acklam's rational approximation, then polishes with a single Halley
/// iteration against [`norm_cdf`]. Returns ±∞ for p = 0 / 1 and NaN outside
/// `[0, 1]`.
pub(crate) fn norm_quantile(p: f64) -> f64 {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];

    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        // Lower tail.
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        // Central region.
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        // Upper tail (by symmetry).
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step:
    //   e  = Φ(x) − p
    //   u  = e √(2π) e^(x²/2)
    //   x' = x − u / (1 + x u / 2)
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Natural logarithm of the gamma function, `ln Γ(x)` for x > 0.
///
/// Lanczos approximation with g = 7 and 9 coefficients; relative error below
/// 1e-13 across the positive reals.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];

    if x < 0.5 {
        // Reflection formula: Γ(x) Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "expected {b}, got {a} (tol {tol})"
        );
    }

    #[test]
    fn erf_known_values() {
        assert_close(erf(0.0), 0.0, 1e-6);
        assert_close(erf(1.0), 0.842_700_792_949_715, 1e-6);
        assert_close(erf(2.0), 0.995_322_265_018_953, 1e-6);
        assert_close(erf(-1.0), -0.842_700_792_949_715, 1e-6);
        assert_close(erf(3.0), 0.999_977_909_503_001, 1e-6);
    }

    #[test]
    fn erf_is_odd() {
        for x in [0.1, 0.7, 1.3, 2.9] {
            assert_close(erf(-x), -erf(x), 1e-12);
        }
    }

    #[test]
    fn norm_cdf_known_values() {
        assert_close(norm_cdf(0.0), 0.5, 1e-6);
        assert_close(norm_cdf(1.0), 0.841_344_746_068_543, 1e-6);
        assert_close(norm_cdf(-1.959_963_984_540_054), 0.025, 1e-5);
        assert_close(norm_cdf(1.644_853_626_951_472), 0.95, 1e-5);
    }

    #[test]
    fn norm_quantile_inverts_cdf() {
        for p in [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = norm_quantile(p);
            assert_close(norm_cdf(x), p, 1e-6);
        }
    }

    #[test]
    fn norm_quantile_known_values() {
        assert_close(norm_quantile(0.5), 0.0, 1e-6);
        assert_close(norm_quantile(0.975), 1.959_963_984_540_054, 1e-4);
        assert_close(norm_quantile(0.05), -1.644_853_626_951_472, 1e-4);
    }

    #[test]
    fn norm_quantile_edge_cases() {
        assert_eq!(norm_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(norm_quantile(1.0), f64::INFINITY);
        assert!(norm_quantile(-0.1).is_nan());
        assert!(norm_quantile(1.1).is_nan());
        assert!(norm_quantile(f64::NAN).is_nan());
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = Γ(2) = 1; Γ(5) = 24; Γ(0.5) = √π.
        assert_close(ln_gamma(1.0), 0.0, 1e-10);
        assert_close(ln_gamma(2.0), 0.0, 1e-10);
        assert_close(ln_gamma(5.0), 24.0_f64.ln(), 1e-10);
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-10);
    }

    #[test]
    fn gamma_recurrence() {
        // Γ(x+1) = x Γ(x), so ln Γ(x+1) = ln x + ln Γ(x).
        for x in [0.7, 1.5, 3.2, 6.9] {
            assert_close(ln_gamma(x + 1.0), x.ln() + ln_gamma(x), 1e-9);
        }
    }

    #[test]
    fn gamma_factorials() {
        assert_close(ln_gamma(6.0).exp(), 120.0, 1e-9);
        assert_close(ln_gamma(10.0).exp(), 362_880.0, 1e-9);
    }
}
