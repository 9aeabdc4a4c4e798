//! Marginal-likelihood hyperparameter fitting.
//!
//! We optimize log-lengthscales, log-signal-variance and log-noise over
//! box bounds with multi-start Nelder-Mead. Inputs are expected to be
//! normalized to roughly unit scale (the workload layer normalizes
//! configuration knobs to \[0,1\]); the default bounds reflect that.

use eva_linalg::{vecops, Cholesky, Mat};
use eva_obs::{span, Phase, Recorder};
use rand::Rng;

use super::kernel::base_correlation;
use super::model::standardization_of;
use super::nelder_mead::{multi_start, NelderMeadOptions};
use super::{GpModel, Kernel, KernelType, Result};

/// Configuration for [`fit_gp`].
#[derive(Debug, Clone)]
pub struct FitConfig {
    /// Kernel family to fit.
    pub family: KernelType,
    /// Use one lengthscale per input dimension (ARD) or a shared one.
    pub ard: bool,
    /// Bounds on lengthscales (natural scale).
    pub lengthscale_bounds: (f64, f64),
    /// Bounds on signal variance (natural scale, standardized targets).
    pub signal_bounds: (f64, f64),
    /// Bounds on noise variance (natural scale, standardized targets).
    pub noise_bounds: (f64, f64),
    /// Random restarts for the hyperparameter search.
    pub restarts: usize,
    /// Max objective evaluations per local search.
    pub max_evals: usize,
    /// Warm-start log-parameter vector from a previous fit (see
    /// `theta_of`). When set (and the right length for the data), it
    /// replaces the cold default start *and* one random restart is
    /// dropped — the warm seed is already a near-optimum, so the search
    /// both starts closer and does less exploration.
    pub warm_start: Option<Vec<f64>>,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            family: KernelType::Matern52,
            ard: true,
            lengthscale_bounds: (5e-3, 20.0),
            signal_bounds: (1e-3, 50.0),
            noise_bounds: (1e-6, 1.0),
            restarts: 4,
            max_evals: 200,
            warm_start: None,
        }
    }
}

/// The log-parameter vector `[ln ls_1 .. ln ls_d, ln signal, ln noise]`
/// of a fitted model — the shape [`fit_gp`] optimizes over with
/// `ard: true`, and the shape [`FitConfig::warm_start`] expects.
pub(crate) fn theta_of(model: &GpModel) -> Vec<f64> {
    let k = model.kernel();
    let mut theta: Vec<f64> = k.lengthscales().iter().map(|&l| l.ln()).collect();
    theta.push(k.signal_var().ln());
    theta.push(model.noise_var().ln());
    theta
}

/// Log-marginal-likelihood evaluator with per-fit caching.
///
/// The Nelder-Mead objective is called hundreds of times per fit with
/// the *same* data and only the hyperparameters changing. Everything
/// theta-independent is computed once here: the per-dimension squared
/// coordinate differences (so each evaluation assembles `K` with one
/// multiply-add per dimension per pair instead of re-walking the input
/// vectors) and the standardized target vector.
struct LmlEvaluator {
    family: KernelType,
    ard: bool,
    n_ls: usize,
    /// Per-dimension matrices of squared coordinate differences.
    sq_diff: Vec<Mat>,
    /// Standardized targets.
    z: Vec<f64>,
}

impl LmlEvaluator {
    fn new(x: &[Vec<f64>], y: &[f64], family: KernelType, ard: bool, n_ls: usize) -> Self {
        let n = x.len();
        let dim = x.first().map(|p| p.len()).unwrap_or(0);
        let mut sq_diff: Vec<Mat> = (0..dim).map(|_| Mat::zeros(n, n)).collect();
        for (d, m) in sq_diff.iter_mut().enumerate() {
            for i in 0..n {
                for j in 0..i {
                    let diff = x[i][d] - x[j][d];
                    let v = diff * diff;
                    m[(i, j)] = v;
                    m[(j, i)] = v;
                }
            }
        }
        let (y_mean, y_std) = standardization_of(y);
        let z: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();
        LmlEvaluator {
            family,
            ard,
            n_ls,
            sq_diff,
            z,
        }
    }

    /// Negative log marginal likelihood at `theta`; `+inf` when the
    /// kernel matrix is not factorizable at these hyperparameters.
    fn nll(&self, theta: &[f64]) -> f64 {
        let n = self.z.len();
        let dim = self.sq_diff.len();
        let inv_ls_sq: Vec<f64> = if self.ard {
            theta[..self.n_ls]
                .iter()
                .map(|&t| (-2.0 * t).exp())
                .collect()
        } else {
            vec![(-2.0 * theta[0]).exp(); dim]
        };
        let signal = theta[self.n_ls].exp();
        let noise = theta[self.n_ls + 1].exp();
        if !signal.is_finite() || !noise.is_finite() || noise <= 0.0 {
            return f64::INFINITY;
        }
        let mut k = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..i {
                let mut r2 = 0.0;
                for (d, inv) in inv_ls_sq.iter().enumerate() {
                    r2 += self.sq_diff[d][(i, j)] * inv;
                }
                let v = signal * base_correlation(self.family, r2);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
            k[(i, i)] = signal + noise;
        }
        let chol = match Cholesky::decompose_jittered(&k) {
            Ok(c) => c,
            Err(_) => return f64::INFINITY,
        };
        let alpha = match chol.solve(&self.z) {
            Ok(a) => a,
            Err(_) => return f64::INFINITY,
        };
        let data_fit = vecops::dot(&self.z, &alpha);
        0.5 * data_fit + 0.5 * chol.log_det() + 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
    }
}

/// Fit a GP to `(x, y)` by maximizing log marginal likelihood.
///
/// Returns the best model found; hyperparameter search failures on
/// individual candidates (non-PSD kernels at extreme hyperparameters)
/// are treated as `-inf` likelihood rather than hard errors.
///
/// The whole fit runs under a [`Phase::GpFit`] span, and the solver's
/// evaluation count and the Cholesky dimension are observed on `rec`;
/// a [`NoopRecorder`](eva_obs::NoopRecorder) run is bit-identical to a
/// recorded one.
pub fn fit_gp<R: Rng + ?Sized>(
    x: &[Vec<f64>],
    y: &[f64],
    config: &FitConfig,
    rng: &mut R,
    rec: &dyn Recorder,
) -> Result<GpModel> {
    let _fit_span = span(rec, Phase::GpFit);
    let dim = x.first().map(|p| p.len()).unwrap_or(0);
    let n_ls = if config.ard { dim.max(1) } else { 1 };

    // Parameter vector: [log ls_1.. log ls_k, log signal, log noise].
    let mut bounds = Vec::with_capacity(n_ls + 2);
    for _ in 0..n_ls {
        bounds.push((
            config.lengthscale_bounds.0.ln(),
            config.lengthscale_bounds.1.ln(),
        ));
    }
    bounds.push((config.signal_bounds.0.ln(), config.signal_bounds.1.ln()));
    bounds.push((config.noise_bounds.0.ln(), config.noise_bounds.1.ln()));

    let build = |theta: &[f64]| -> Result<GpModel> {
        let ls: Vec<f64> = if config.ard {
            theta[..n_ls].iter().map(|&t| t.exp()).collect()
        } else {
            vec![theta[0].exp(); dim.max(1)]
        };
        let signal = theta[n_ls].exp();
        let noise = theta[n_ls + 1].exp();
        let kernel = Kernel::new(config.family, ls, signal);
        GpModel::new(kernel, noise, x.to_vec(), y.to_vec())
    };

    let evaluator = LmlEvaluator::new(x, y, config.family, config.ard, n_ls);
    let objective = |theta: &[f64]| -> f64 { evaluator.nll(theta) };

    // Warm seed from a previous fit (clamped into bounds), or the cold
    // default start: unit lengthscales / unit signal / modest noise.
    let warm = config
        .warm_start
        .as_deref()
        .filter(|w| w.len() == n_ls + 2 && w.iter().all(|v| v.is_finite()));
    let (x0, restarts) = match warm {
        Some(w) => {
            let clamped: Vec<f64> = w
                .iter()
                .zip(&bounds)
                .map(|(&v, &(lo, hi))| v.clamp(lo, hi))
                .collect();
            (clamped, config.restarts.saturating_sub(1))
        }
        None => {
            let mut x0 = vec![0.0f64; n_ls + 2];
            x0[n_ls] = 0.0; // log signal = 0
            x0[n_ls + 1] = (0.01f64).ln();
            (x0, config.restarts)
        }
    };
    // Looser tolerances than the solver default: the objective lives in
    // log-parameter space, where an x-diameter of 1e-3 means every
    // hyperparameter is pinned to ~0.1 % — far below any effect on
    // predictions. The solver needs both spreads under tolerance, and
    // flat ARD plateaus shrink the simplex one halving per contraction,
    // so tolerances of 1e-9 just burn the whole eval budget on polish.
    let opts = NelderMeadOptions {
        max_evals: config.max_evals,
        f_tol: 1e-6,
        x_tol: 1e-3,
        ..Default::default()
    };
    let best = multi_start(objective, &x0, &bounds, restarts, &opts, rng);
    if rec.enabled() {
        rec.add("gp.fits", 1);
        if warm.is_some() {
            rec.add("gp.fit.warm_starts", 1);
        }
        rec.observe("gp.fit.solver_evals", best.evals as f64);
        rec.observe("gp.cholesky.dim", x.len() as f64);
    }
    build(&best.x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_obs::NoopRecorder;
    use eva_stats::metrics::r_squared;
    use eva_stats::rng::seeded;

    /// Fit quality on a smooth 1-D function.
    #[test]
    fn fit_recovers_smooth_function() {
        let mut rng = seeded(21);
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|p| (6.0 * p[0]).sin() + 0.01 * eva_stats::rng::standard_normal(&mut rng))
            .collect();
        let model = fit_gp(&x, &y, &FitConfig::default(), &mut rng, &NoopRecorder).unwrap();
        let test_x: Vec<Vec<f64>> = (0..20).map(|i| vec![(i as f64 + 0.5) / 20.0]).collect();
        let truth: Vec<f64> = test_x.iter().map(|p| (6.0 * p[0]).sin()).collect();
        let pred: Vec<f64> = test_x.iter().map(|p| model.predict_mean(p)).collect();
        let r2 = r_squared(&truth, &pred);
        assert!(r2 > 0.99, "R² = {r2}");
    }

    /// ARD: an irrelevant dimension should get a long lengthscale.
    #[test]
    fn ard_suppresses_irrelevant_dimension() {
        let mut rng = seeded(22);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let a = (i % 10) as f64 / 10.0;
            let b = (i / 10) as f64 / 6.0;
            x.push(vec![a, b]);
            y.push((6.0 * a).sin()); // depends only on dim 0
        }
        let model = fit_gp(&x, &y, &FitConfig::default(), &mut rng, &NoopRecorder).unwrap();
        let ls = model.kernel().lengthscales();
        assert!(
            ls[1] > 2.0 * ls[0],
            "expected dim-1 lengthscale to dominate: {ls:?}"
        );
    }

    /// Noisy data should be assigned a larger noise variance than clean data.
    #[test]
    fn noise_estimate_tracks_actual_noise() {
        let mut rng = seeded(23);
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 50.0]).collect();
        let clean: Vec<f64> = x.iter().map(|p| (4.0 * p[0]).cos()).collect();
        let noisy: Vec<f64> = clean
            .iter()
            .map(|&v| v + 0.4 * eva_stats::rng::standard_normal(&mut rng))
            .collect();
        let cfg = FitConfig::default();
        let m_clean = fit_gp(&x, &clean, &cfg, &mut rng, &NoopRecorder).unwrap();
        let m_noisy = fit_gp(&x, &noisy, &cfg, &mut rng, &NoopRecorder).unwrap();
        assert!(
            m_noisy.noise_var() > 5.0 * m_clean.noise_var(),
            "noisy {} vs clean {}",
            m_noisy.noise_var(),
            m_clean.noise_var()
        );
    }

    #[test]
    fn non_ard_shares_lengthscale() {
        let mut rng = seeded(24);
        let x: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![(i % 5) as f64 / 5.0, (i / 5) as f64 / 5.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|p| p[0] + p[1]).collect();
        let cfg = FitConfig {
            ard: false,
            restarts: 2,
            ..Default::default()
        };
        let model = fit_gp(&x, &y, &cfg, &mut rng, &NoopRecorder).unwrap();
        let ls = model.kernel().lengthscales();
        assert_eq!(ls[0], ls[1]);
    }

    #[test]
    fn theta_of_matches_fitted_hyperparameters() {
        let mut rng = seeded(26);
        let x: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64 / 20.0, (i % 4) as f64 / 4.0])
            .collect();
        let y: Vec<f64> = x.iter().map(|p| (5.0 * p[0]).sin() + p[1]).collect();
        let m = fit_gp(&x, &y, &FitConfig::default(), &mut rng, &NoopRecorder).unwrap();
        let theta = theta_of(&m);
        assert_eq!(theta.len(), 2 + 2); // 2 ARD lengthscales + signal + noise
        for (t, &l) in theta.iter().zip(m.kernel().lengthscales()) {
            assert!((t.exp() - l).abs() < 1e-12);
        }
        assert!((theta[2].exp() - m.kernel().signal_var()).abs() < 1e-12);
        assert!((theta[3].exp() - m.noise_var()).abs() < 1e-12);
    }

    #[test]
    fn warm_start_preserves_fit_quality() {
        let mut rng = seeded(27);
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (6.0 * p[0]).sin()).collect();
        let cold = fit_gp(&x, &y, &FitConfig::default(), &mut rng, &NoopRecorder).unwrap();
        // Re-fit the same data seeded from the cold optimum, one restart
        // fewer — the warm fit must land at (or above) the same LML
        // basin, not degrade.
        let warm_cfg = FitConfig {
            warm_start: Some(theta_of(&cold)),
            ..Default::default()
        };
        let warm = fit_gp(&x, &y, &warm_cfg, &mut rng, &NoopRecorder).unwrap();
        assert!(
            warm.log_marginal_likelihood() >= cold.log_marginal_likelihood() - 1e-6,
            "warm {} vs cold {}",
            warm.log_marginal_likelihood(),
            cold.log_marginal_likelihood()
        );
    }

    #[test]
    fn warm_start_with_wrong_shape_is_ignored() {
        let mut rng = seeded(28);
        let x: Vec<Vec<f64>> = (0..15).map(|i| vec![i as f64 / 15.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| p[0] * p[0]).collect();
        let cfg = FitConfig {
            warm_start: Some(vec![0.0; 7]), // wrong length for 1-D ARD
            ..Default::default()
        };
        let m = fit_gp(&x, &y, &cfg, &mut rng, &NoopRecorder).unwrap();
        assert!(m.log_marginal_likelihood().is_finite());
    }

    #[test]
    fn fit_quality_improves_with_more_data() {
        // The Fig. 8 mechanism in miniature: R² rises with training size.
        let f = |p: &[f64]| (3.0 * p[0]).sin() * (2.0 * p[1]).cos();
        let test_x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 6) as f64 / 6.0 + 0.05, (i / 6) as f64 / 5.0 + 0.05])
            .collect();
        let truth: Vec<f64> = test_x.iter().map(|p| f(p)).collect();
        let mut r2s = Vec::new();
        for &n in &[10usize, 80] {
            let mut rng = seeded(25);
            let pts = eva_stats::design::latin_hypercube(&mut rng, n, 2);
            let y: Vec<f64> = pts.iter().map(|p| f(p)).collect();
            let cfg = FitConfig {
                restarts: 2,
                ..Default::default()
            };
            let model = fit_gp(&pts, &y, &cfg, &mut rng, &NoopRecorder).unwrap();
            let pred: Vec<f64> = test_x.iter().map(|p| model.predict_mean(p)).collect();
            r2s.push(r_squared(&truth, &pred));
        }
        assert!(r2s[1] > r2s[0], "R² did not improve: {r2s:?}");
        assert!(r2s[1] > 0.95, "large-sample fit poor: {r2s:?}");
    }
}
