//! Nelder-Mead downhill simplex with box-bound projection.
//!
//! Standard adaptive-parameter variant (Gao & Han 2012 coefficients for
//! higher dimensions reduce to the classic 1/2/0.5/0.5 for small `n`).
//! Used to maximize GP log-marginal likelihood, which is smooth but
//! cheap-gradient-free in our from-scratch stack.

use rand::Rng;

/// Result of a local or multi-start optimization run.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of objective evaluations consumed.
    pub evals: usize,
    /// Whether the simplex converged before hitting the eval budget.
    pub converged: bool,
}

/// Tuning knobs for `nelder_mead`.
#[derive(Debug, Clone)]
pub struct NelderMeadOptions {
    /// Maximum number of objective evaluations.
    pub max_evals: usize,
    /// Terminate when the simplex function-value spread drops below this.
    pub f_tol: f64,
    /// Terminate when the simplex diameter drops below this.
    pub x_tol: f64,
    /// Relative size of the initial simplex (fraction of each bound span).
    pub init_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_evals: 400,
            f_tol: 1e-9,
            x_tol: 1e-9,
            init_step: 0.10,
        }
    }
}

fn project(x: &mut [f64], bounds: &[(f64, f64)]) {
    for (xi, &(lo, hi)) in x.iter_mut().zip(bounds) {
        *xi = xi.clamp(lo, hi);
    }
}

/// Minimize `f` over the box `bounds`, starting from `x0`.
///
/// `f` may return non-finite values (treated as +inf), which lets callers
/// expose numerically fragile objectives like log-determinants directly.
pub(crate) fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    bounds: &[(f64, f64)],
    opts: &NelderMeadOptions,
) -> OptResult {
    assert_eq!(x0.len(), bounds.len(), "nelder_mead: dim mismatch");
    assert!(!x0.is_empty(), "nelder_mead: empty input");
    let n = x0.len();
    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(x);
        if v.is_finite() {
            v
        } else {
            f64::INFINITY
        }
    };

    // Adaptive coefficients (Gao & Han).
    let nf = n as f64;
    let alpha = 1.0;
    let beta = 1.0 + 2.0 / nf;
    let gamma = 0.75 - 1.0 / (2.0 * nf);
    let delta = 1.0 - 1.0 / nf;

    // Initial simplex: x0 plus a step along each coordinate.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    let mut start = x0.to_vec();
    project(&mut start, bounds);
    simplex.push(start.clone());
    for d in 0..n {
        let (lo, hi) = bounds[d];
        let span = (hi - lo).max(1e-12);
        let mut v = start.clone();
        let step = opts.init_step * span;
        // Step inward if stepping outward would leave the box.
        v[d] = if v[d] + step <= hi {
            v[d] + step
        } else {
            v[d] - step
        };
        project(&mut v, bounds);
        simplex.push(v);
    }
    let mut values: Vec<f64> = simplex.iter().map(|v| eval(v, &mut evals)).collect();

    let mut converged = false;
    while evals < opts.max_evals {
        // Order simplex by value.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let reordered: Vec<Vec<f64>> = order.iter().map(|&i| simplex[i].clone()).collect();
        let revalues: Vec<f64> = order.iter().map(|&i| values[i]).collect();
        simplex = reordered;
        values = revalues;

        // Convergence: value spread and simplex diameter.
        let f_spread = values[n] - values[0];
        let x_spread = simplex[1..]
            .iter()
            .map(|v| {
                v.iter()
                    .zip(&simplex[0])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max)
            })
            .fold(0.0, f64::max);
        if f_spread.abs() < opts.f_tol && x_spread < opts.x_tol {
            converged = true;
            break;
        }

        // Centroid of all but worst.
        let mut centroid = vec![0.0; n];
        for v in &simplex[..n] {
            for (c, &vi) in centroid.iter_mut().zip(v) {
                *c += vi / nf;
            }
        }

        let shifted = |coef: f64| -> Vec<f64> {
            let mut x: Vec<f64> = centroid
                .iter()
                .zip(&simplex[n])
                .map(|(&c, &w)| c + coef * (c - w))
                .collect();
            project(&mut x, bounds);
            x
        };

        // Reflect.
        let xr = shifted(alpha);
        let fr = eval(&xr, &mut evals);
        if fr < values[0] {
            // Expand.
            let xe = shifted(alpha * beta);
            let fe = eval(&xe, &mut evals);
            if fe < fr {
                simplex[n] = xe;
                values[n] = fe;
            } else {
                simplex[n] = xr;
                values[n] = fr;
            }
        } else if fr < values[n - 1] {
            simplex[n] = xr;
            values[n] = fr;
        } else {
            // Contract (outside if reflection improved the worst, else inside).
            let (xc, fc) = if fr < values[n] {
                let xc = shifted(alpha * gamma);
                let fc = eval(&xc, &mut evals);
                (xc, fc)
            } else {
                let xc = shifted(-gamma);
                let fc = eval(&xc, &mut evals);
                (xc, fc)
            };
            if fc < values[n].min(fr) {
                simplex[n] = xc;
                values[n] = fc;
            } else {
                // Shrink toward the best vertex.
                for i in 1..=n {
                    let best = simplex[0].clone();
                    for (vi, &bi) in simplex[i].iter_mut().zip(&best) {
                        *vi = bi + delta * (*vi - bi);
                    }
                    project(&mut simplex[i], bounds);
                    values[i] = eval(&simplex[i], &mut evals);
                }
            }
        }
    }

    let best = argmin_by_value(&values);
    OptResult {
        x: simplex[best].clone(),
        value: values[best],
        evals,
        converged,
    }
}

/// Multi-start Nelder-Mead: one run from `x0` plus `restarts` runs from
/// uniform random points in the box; returns the best result.
pub fn multi_start<R: Rng + ?Sized>(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    bounds: &[(f64, f64)],
    restarts: usize,
    opts: &NelderMeadOptions,
    rng: &mut R,
) -> OptResult {
    let mut best = nelder_mead(&mut f, x0, bounds, opts);
    for _ in 0..restarts {
        let start: Vec<f64> = bounds
            .iter()
            .map(|&(lo, hi)| if hi > lo { rng.gen_range(lo..hi) } else { lo })
            .collect();
        let run = nelder_mead(&mut f, &start, bounds, opts);
        let total_evals = best.evals + run.evals;
        if run.value < best.value {
            best = run;
        }
        best.evals = total_evals;
    }
    best
}

pub(crate) fn argmin_by_value(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v < values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|&v| v * v).sum()
    }

    fn rosenbrock(x: &[f64]) -> f64 {
        (0..x.len() - 1)
            .map(|i| {
                let a = x[i + 1] - x[i] * x[i];
                let b = 1.0 - x[i];
                100.0 * a * a + b * b
            })
            .sum()
    }

    #[test]
    fn minimizes_sphere() {
        let bounds = [(-5.0, 5.0); 3];
        let r = nelder_mead(
            sphere,
            &[3.0, -2.0, 4.0],
            &bounds,
            &NelderMeadOptions::default(),
        );
        assert!(r.value < 1e-6, "value = {}", r.value);
        assert!(r.x.iter().all(|&xi| xi.abs() < 1e-2));
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let bounds = [(-5.0, 5.0); 2];
        let opts = NelderMeadOptions {
            max_evals: 2000,
            ..Default::default()
        };
        let r = nelder_mead(rosenbrock, &[-1.2, 1.0], &bounds, &opts);
        assert!(r.value < 1e-5, "value = {}", r.value);
        assert!((r.x[0] - 1.0).abs() < 0.01 && (r.x[1] - 1.0).abs() < 0.01);
    }

    #[test]
    fn respects_bounds() {
        // Minimum of (x-10)^2 constrained to [-1, 2] is at x = 2.
        let bounds = [(-1.0, 2.0)];
        let r = nelder_mead(
            |x| (x[0] - 10.0) * (x[0] - 10.0),
            &[0.0],
            &bounds,
            &NelderMeadOptions::default(),
        );
        assert!((r.x[0] - 2.0).abs() < 1e-4, "x = {}", r.x[0]);
    }

    #[test]
    fn handles_nonfinite_objective() {
        // Objective is -inf-safe: NaN outside a disc.
        let f = |x: &[f64]| {
            let d = sphere(x);
            if d > 4.0 {
                f64::NAN
            } else {
                d
            }
        };
        let r = nelder_mead(
            f,
            &[1.0, 1.0],
            &[(-5.0, 5.0); 2],
            &NelderMeadOptions::default(),
        );
        assert!(r.value < 1e-4);
    }

    #[test]
    fn eval_budget_respected() {
        let opts = NelderMeadOptions {
            max_evals: 20,
            ..Default::default()
        };
        let mut count = 0usize;
        let r = nelder_mead(
            |x| {
                count += 1;
                sphere(x)
            },
            &[1.0, 1.0, 1.0, 1.0],
            &[(-5.0, 5.0); 4],
            &opts,
        );
        // A few evals of slack for finishing the in-flight iteration.
        assert!(count <= 30, "count = {count}");
        assert_eq!(r.evals, count);
    }

    #[test]
    fn multi_start_escapes_local_minimum() {
        // Double well: minima at x = -2 (value 0) and x = 2 (value 1).
        let f = |x: &[f64]| {
            let a = (x[0] + 2.0) * (x[0] + 2.0);
            let b = (x[0] - 2.0) * (x[0] - 2.0) + 1.0;
            a.min(b)
        };
        let mut rng = eva_stats::rng::seeded(11);
        // Start in the basin of the worse minimum.
        let r = multi_start(
            f,
            &[2.0],
            &[(-5.0, 5.0)],
            10,
            &NelderMeadOptions::default(),
            &mut rng,
        );
        assert!(r.value < 1e-4, "stuck at {}", r.value);
        assert!((r.x[0] + 2.0).abs() < 0.05);
    }

    #[test]
    fn converged_flag_set_for_easy_problems() {
        let r = nelder_mead(
            sphere,
            &[0.5, 0.5],
            &[(-1.0, 1.0); 2],
            &NelderMeadOptions {
                max_evals: 10_000,
                ..Default::default()
            },
        );
        assert!(r.converged);
    }
}
