//! A small derivative-free optimizer (Nelder–Mead, 2-D) used by the
//! truncation-aware maximum-likelihood fits.

/// Minimize `f` over two parameters starting from `x0` with initial step
/// `step`. Returns the best point found. Standard Nelder–Mead with
/// reflection/expansion/contraction/shrink and a fixed iteration budget —
/// ample for the smooth 2-parameter likelihoods we optimize.
pub(crate) fn nelder_mead_2d(
    f: impl Fn(f64, f64) -> f64,
    x0: (f64, f64),
    step: (f64, f64),
    max_iter: usize,
) -> (f64, f64) {
    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    let mut simplex = [(x0.0, x0.1), (x0.0 + step.0, x0.1), (x0.0, x0.1 + step.1)];
    let mut values = simplex.map(|(a, b)| f(a, b));

    for _ in 0..max_iter {
        // Order: best, middle, worst.
        let mut idx = [0usize, 1, 2];
        idx.sort_by(|&i, &j| {
            values[i]
                .partial_cmp(&values[j])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let (b, m, w) = (idx[0], idx[1], idx[2]);
        if (values[w] - values[b]).abs() < 1e-12 * (1.0 + values[b].abs()) {
            break;
        }
        let centroid = (
            (simplex[b].0 + simplex[m].0) / 2.0,
            (simplex[b].1 + simplex[m].1) / 2.0,
        );
        let refl = (
            centroid.0 + ALPHA * (centroid.0 - simplex[w].0),
            centroid.1 + ALPHA * (centroid.1 - simplex[w].1),
        );
        let f_refl = f(refl.0, refl.1);
        if f_refl < values[b] {
            // Try expansion.
            let exp = (
                centroid.0 + GAMMA * (refl.0 - centroid.0),
                centroid.1 + GAMMA * (refl.1 - centroid.1),
            );
            let f_exp = f(exp.0, exp.1);
            if f_exp < f_refl {
                simplex[w] = exp;
                values[w] = f_exp;
            } else {
                simplex[w] = refl;
                values[w] = f_refl;
            }
        } else if f_refl < values[m] {
            simplex[w] = refl;
            values[w] = f_refl;
        } else {
            // Contraction.
            let con = (
                centroid.0 + RHO * (simplex[w].0 - centroid.0),
                centroid.1 + RHO * (simplex[w].1 - centroid.1),
            );
            let f_con = f(con.0, con.1);
            if f_con < values[w] {
                simplex[w] = con;
                values[w] = f_con;
            } else {
                // Shrink toward the best vertex.
                for i in 0..3 {
                    if i != b {
                        simplex[i] = (
                            simplex[b].0 + SIGMA * (simplex[i].0 - simplex[b].0),
                            simplex[b].1 + SIGMA * (simplex[i].1 - simplex[b].1),
                        );
                        values[i] = f(simplex[i].0, simplex[i].1);
                    }
                }
            }
        }
    }
    let mut best = 0;
    for i in 1..3 {
        if values[i] < values[best] {
            best = i;
        }
    }
    simplex[best]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        let (x, y) = nelder_mead_2d(
            |a, b| (a - 3.0).powi(2) + 2.0 * (b + 1.5).powi(2),
            (0.0, 0.0),
            (1.0, 1.0),
            500,
        );
        assert!((x - 3.0).abs() < 1e-4, "x = {x}");
        assert!((y + 1.5).abs() < 1e-4, "y = {y}");
    }

    #[test]
    fn minimizes_rosenbrock() {
        let (x, y) = nelder_mead_2d(
            |a, b| (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2),
            (-1.2, 1.0),
            (0.5, 0.5),
            4_000,
        );
        assert!((x - 1.0).abs() < 1e-2, "x = {x}");
        assert!((y - 1.0).abs() < 1e-2, "y = {y}");
    }

    #[test]
    fn handles_flat_start() {
        let (x, _) = nelder_mead_2d(|a, _| a.abs(), (5.0, 5.0), (1.0, 1.0), 300);
        assert!(x.abs() < 1e-3);
    }
}
