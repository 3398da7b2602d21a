//! Zipf-like exponent fitting from rank-frequency data.
//!
//! The paper fits `freq(r) ∝ r^(−α)` by a straight line on log-log axes
//! (Figure 11), and the NA∩EU intersection class by two lines with a break
//! (the "flattened head"): ranks 1–45 with α = 0.453, ranks 46–100 with
//! α = 4.67.

use crate::error::StatsError;
use crate::regression::power_law_fit;

/// A fitted single-piece Zipf-like law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfFit {
    /// Estimated exponent α (positive for decaying popularity).
    pub alpha: f64,
    /// Frequency scale at rank 1.
    pub scale: f64,
    /// R² of the log-log regression.
    pub r_squared: f64,
}

/// A fitted two-piece Zipf-like law with a break rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPieceZipfFit {
    /// Body fit (ranks ≤ break).
    pub body: ZipfFit,
    /// Tail fit (ranks > break).
    pub tail: ZipfFit,
    /// The break rank used.
    pub break_rank: usize,
}

/// Fit a Zipf-like exponent to `freqs`, where `freqs[i]` is the relative
/// frequency of the rank-`i+1` item. Zero frequencies are skipped.
pub fn fit_zipf(freqs: &[f64]) -> Result<ZipfFit, StatsError> {
    let ranks: Vec<f64> = (1..=freqs.len()).map(|r| r as f64).collect();
    let (slope, scale, r2) = power_law_fit(&ranks, freqs)?;
    Ok(ZipfFit {
        alpha: -slope,
        scale,
        r_squared: r2,
    })
}

/// Fit a two-piece Zipf-like law with a fixed break rank.
pub(crate) fn fit_two_piece_zipf(
    freqs: &[f64],
    break_rank: usize,
) -> Result<TwoPieceZipfFit, StatsError> {
    if break_rank == 0 || break_rank >= freqs.len() {
        return Err(StatsError::BadParameter {
            name: "break_rank",
            value: break_rank as f64,
            constraint: "must satisfy 1 <= break_rank < len(freqs)",
        });
    }
    let body = fit_zipf(&freqs[..break_rank])?;
    // Tail ranks continue from break_rank+1 — refit with correct rank offsets.
    let tail_ranks: Vec<f64> = (break_rank + 1..=freqs.len()).map(|r| r as f64).collect();
    let (slope, scale, r2) = power_law_fit(&tail_ranks, &freqs[break_rank..])?;
    Ok(TwoPieceZipfFit {
        body,
        tail: ZipfFit {
            alpha: -slope,
            scale,
            r_squared: r2,
        },
        break_rank,
    })
}

/// Search for the break rank in `candidates` minimizing total squared
/// log-residuals of the two-piece fit. Returns the best fit.
pub fn fit_two_piece_zipf_auto(
    freqs: &[f64],
    candidates: &[usize],
) -> Result<TwoPieceZipfFit, StatsError> {
    let mut best: Option<(f64, TwoPieceZipfFit)> = None;
    for &b in candidates {
        let Ok(fit) = fit_two_piece_zipf(freqs, b) else {
            continue;
        };
        let err = two_piece_residual(freqs, &fit);
        match &best {
            Some((e, _)) if *e <= err => {}
            _ => best = Some((err, fit)),
        }
    }
    best.map(|(_, f)| f).ok_or(StatsError::NotEnoughData {
        needed: 3,
        got: freqs.len(),
    })
}

fn two_piece_residual(freqs: &[f64], fit: &TwoPieceZipfFit) -> f64 {
    let mut err = 0.0;
    for (i, &f) in freqs.iter().enumerate() {
        if f <= 0.0 {
            continue;
        }
        let r = (i + 1) as f64;
        let model = if i < fit.break_rank {
            fit.body.scale * r.powf(-fit.body.alpha)
        } else {
            fit.tail.scale * r.powf(-fit.tail.alpha)
        };
        let e = f.ln() - model.ln();
        err += e * e;
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_freqs(alpha: f64, n: usize) -> Vec<f64> {
        let raw: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-alpha)).collect();
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|x| x / total).collect()
    }

    #[test]
    fn exact_zipf_recovered() {
        // The paper's NA exponent.
        let f = zipf_freqs(0.386, 100);
        let fit = fit_zipf(&f).unwrap();
        assert!((fit.alpha - 0.386).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn europe_exponent_recovered() {
        let f = zipf_freqs(0.223, 100);
        let fit = fit_zipf(&f).unwrap();
        assert!((fit.alpha - 0.223).abs() < 1e-9);
    }

    #[test]
    fn two_piece_recovers_flattened_head() {
        // Construct the paper's Fig 11(c) shape: α=0.453 to rank 45,
        // α=4.67 beyond, continuous at the break.
        let mut f = Vec::new();
        for r in 1..=100usize {
            let rf = r as f64;
            let v = if r <= 45 {
                rf.powf(-0.453)
            } else {
                45f64.powf(-0.453) / 45f64.powf(-4.67) * rf.powf(-4.67)
            };
            f.push(v);
        }
        let total: f64 = f.iter().sum();
        for v in &mut f {
            *v /= total;
        }
        let fit = fit_two_piece_zipf(&f, 45).unwrap();
        assert!(
            (fit.body.alpha - 0.453).abs() < 1e-6,
            "body {}",
            fit.body.alpha
        );
        assert!(
            (fit.tail.alpha - 4.67).abs() < 1e-6,
            "tail {}",
            fit.tail.alpha
        );

        // Auto-break search finds (approximately) the true break.
        let auto = fit_two_piece_zipf_auto(&f, &(10..=90).collect::<Vec<_>>()).unwrap();
        assert!(
            (auto.break_rank as i64 - 45).unsigned_abs() <= 2,
            "break {}",
            auto.break_rank
        );
    }

    #[test]
    fn rejects_bad_break() {
        let f = zipf_freqs(1.0, 10);
        assert!(fit_two_piece_zipf(&f, 0).is_err());
        assert!(fit_two_piece_zipf(&f, 10).is_err());
    }

    #[test]
    fn skips_zero_frequencies() {
        let mut f = zipf_freqs(0.5, 50);
        f[10] = 0.0;
        f[20] = 0.0;
        let fit = fit_zipf(&f).unwrap();
        assert!((fit.alpha - 0.5).abs() < 0.02);
    }
}
