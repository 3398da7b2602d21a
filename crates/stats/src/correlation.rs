//! Correlation measures.
//!
//! Section 4 of the paper is organized around which workload measures are
//! (and are not) correlated — e.g. session duration vs number of queries is
//! correlated, interarrival time vs number of queries is *not* for North
//! America. These helpers quantify that in the analysis pipeline.

use crate::error::StatsError;

/// Pearson product-moment correlation coefficient.
pub(crate) fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64, StatsError> {
    if xs.len() != ys.len() {
        return Err(StatsError::BadSample {
            value: ys.len() as f64,
            reason: "x/y length mismatch",
        });
    }
    if xs.len() < 2 {
        return Err(StatsError::NotEnoughData {
            needed: 2,
            got: xs.len(),
        });
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(StatsError::BadSample {
            value: 0.0,
            reason: "zero variance in one of the variables",
        });
    }
    Ok(sxy / (sxx * syy).sqrt())
}

/// Spearman rank correlation (Pearson on midranks, robust to the heavy
/// tails that dominate the paper's measures).
pub fn spearman(xs: &[f64], ys: &[f64]) -> Result<f64, StatsError> {
    if xs.len() != ys.len() {
        return Err(StatsError::BadSample {
            value: ys.len() as f64,
            reason: "x/y length mismatch",
        });
    }
    let rx = midranks(xs);
    let ry = midranks(ys);
    pearson(&rx, &ry)
}

/// Midranks of a sample (ties share the average of their positions).
fn midranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).unwrap());
    let mut ranks = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i + 1;
        while j < idx.len() && xs[idx[j]] == xs[idx[i]] {
            j += 1;
        }
        // Positions i..j (0-based) share midrank.
        let mid = (i + j - 1) as f64 / 2.0 + 1.0;
        for &k in &idx[i..j] {
            ranks[k] = mid;
        }
        i = j;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_linear_correlation() {
        let xs: Vec<f64> = (0..50).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_nonlinear_correlation() {
        // Spearman sees through monotone transforms; Pearson does not fully.
        let xs: Vec<f64> = (1..100).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.powi(3)).collect();
        let sp = spearman(&xs, &ys).unwrap();
        assert!((sp - 1.0).abs() < 1e-12);
        let pe = pearson(&xs, &ys).unwrap();
        assert!(pe < 1.0);
    }

    #[test]
    fn independent_streams_near_zero() {
        // Deterministic pseudo-independent sequences.
        let xs: Vec<f64> = (0u64..2000)
            .map(|i| ((i * 7919) % 104_729) as f64)
            .collect();
        let ys: Vec<f64> = (0u64..2000)
            .map(|i| ((i * 15_485_863) % 32_452_843) as f64)
            .collect();
        let r = spearman(&xs, &ys).unwrap();
        assert!(r.abs() < 0.1, "spearman {r} should be near zero");
    }

    #[test]
    fn rejects_bad_input() {
        assert!(pearson(&[1.0], &[1.0]).is_err());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_err());
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn midranks_handle_ties() {
        let r = midranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }
}
