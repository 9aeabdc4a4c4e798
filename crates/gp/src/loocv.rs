//! Leave-one-out cross-validation without refitting.
//!
//! Rasmussen & Williams (GPML, Eq. 5.10-5.12): with `α = K_y⁻¹ y` and
//! `K_y = K + σ²I`, the LOO predictive moments at training point `i`
//! are available from a single factorization:
//!
//! ```text
//! μ_{-i} = y_i − α_i / [K_y⁻¹]_ii       σ²_{-i} = 1 / [K_y⁻¹]_ii
//! ```
//!
//! The outcome-model bank uses this to report honest generalization
//! error without 5·M refits per diagnostic pass.

use eva_linalg::vecops;

use crate::model::GpModel;
use crate::Result;

/// Per-point LOO diagnostics (original target units).
#[derive(Debug, Clone)]
pub struct LooDiagnostics {
    /// LOO predictive means per training point.
    pub means: Vec<f64>,
    /// LOO predictive variances per training point (includes noise).
    pub variances: Vec<f64>,
    /// LOO residuals `y_i − μ_{-i}`.
    pub residuals: Vec<f64>,
    /// LOO log predictive density (sum over points) — the model-quality
    /// scalar to compare kernels with.
    pub log_pseudo_likelihood: f64,
}

impl LooDiagnostics {
    /// Root-mean-square LOO error.
    pub fn rmse(&self) -> f64 {
        let mse: f64 =
            self.residuals.iter().map(|r| r * r).sum::<f64>() / self.residuals.len() as f64;
        mse.sqrt()
    }

    /// Fraction of residuals within ±2 LOO standard deviations — a
    /// calibration check (≈ 0.95 for a well-calibrated model).
    pub fn coverage_2sigma(&self) -> f64 {
        let hits = self
            .residuals
            .iter()
            .zip(&self.variances)
            .filter(|(r, v)| r.abs() <= 2.0 * v.sqrt())
            .count();
        hits as f64 / self.residuals.len() as f64
    }
}

/// Compute LOO diagnostics for a fitted GP.
pub fn loo_diagnostics(model: &GpModel) -> Result<LooDiagnostics> {
    let n = model.n();
    // Work on the standardized scale, then map back.
    let y = model.train_y();
    let y_mean = vecops::mean(y);
    let centered: Vec<f64> = y.iter().map(|&v| v - y_mean).collect();
    let var = vecops::dot(&centered, &centered) / n as f64;
    let y_std = if var > 1e-24 { var.sqrt() } else { 1.0 };
    let z: Vec<f64> = centered.iter().map(|&v| v / y_std).collect();

    // Rebuild K_y and factor (the model's internal factorization is not
    // exposed; n here is small enough that one extra Cholesky is cheap).
    let mut k = model.kernel().matrix(&model.train_x());
    k.add_diag(model.noise_var());
    let chol = eva_linalg::Cholesky::decompose_jittered(&k)?;
    let alpha = chol.solve(&z)?;
    let kinv = chol.inverse()?;

    let mut means = Vec::with_capacity(n);
    let mut variances = Vec::with_capacity(n);
    let mut residuals = Vec::with_capacity(n);
    let mut lpl = 0.0;
    for i in 0..n {
        let kii = kinv[(i, i)].max(1e-300);
        let mu_z = z[i] - alpha[i] / kii;
        let var_z = 1.0 / kii;
        let mu = y_mean + y_std * mu_z;
        let sigma2 = y_std * y_std * var_z;
        let r = y[i] - mu;
        means.push(mu);
        variances.push(sigma2);
        residuals.push(r);
        lpl += -0.5 * (2.0 * std::f64::consts::PI * sigma2).ln() - r * r / (2.0 * sigma2);
    }
    Ok(LooDiagnostics {
        means,
        variances,
        residuals,
        log_pseudo_likelihood: lpl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpModel, Kernel, KernelType};
    use eva_stats::rng::{seeded, standard_normal};

    fn smooth_model(n: usize, noise: f64, seed: u64) -> GpModel {
        let mut rng = seeded(seed);
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|p| (5.0 * p[0]).sin() + noise * standard_normal(&mut rng))
            .collect();
        let kernel = Kernel::isotropic(KernelType::Matern52, 1, 0.3, 1.0);
        GpModel::new(kernel, (noise * noise).max(1e-6), x, y).unwrap()
    }

    /// LOO via the Cholesky identity must match brute-force refitting.
    #[test]
    fn matches_brute_force_refit() {
        let model = smooth_model(15, 0.05, 1);
        let diag = loo_diagnostics(&model).unwrap();
        for i in 0..model.n() {
            // Refit without point i.
            let xs: Vec<Vec<f64>> = model
                .train_x()
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, x)| x.clone())
                .collect();
            let ys: Vec<f64> = model
                .train_y()
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &y)| y)
                .collect();
            let refit = GpModel::new(model.kernel().clone(), model.noise_var(), xs, ys).unwrap();
            let (mu, var) = refit.predict(&model.train_x()[i]);
            let var_with_noise = var + refit.observation_noise();
            // Standardization constants differ slightly between the full
            // and the n−1 fits, so allow a small tolerance.
            assert!(
                (diag.means[i] - mu).abs() < 0.05,
                "point {i}: {} vs {}",
                diag.means[i],
                mu
            );
            assert!(
                (diag.variances[i] - var_with_noise).abs() / var_with_noise < 0.35,
                "point {i}: {} vs {}",
                diag.variances[i],
                var_with_noise
            );
        }
    }

    #[test]
    fn loo_rmse_tracks_noise_level() {
        let clean = loo_diagnostics(&smooth_model(40, 0.01, 2)).unwrap();
        let noisy = loo_diagnostics(&smooth_model(40, 0.30, 2)).unwrap();
        assert!(
            noisy.rmse() > 3.0 * clean.rmse(),
            "clean {} vs noisy {}",
            clean.rmse(),
            noisy.rmse()
        );
    }

    #[test]
    fn calibration_coverage_is_reasonable() {
        let diag = loo_diagnostics(&smooth_model(60, 0.1, 3)).unwrap();
        let cov = diag.coverage_2sigma();
        assert!(cov > 0.80, "2σ coverage {cov}");
    }

    #[test]
    fn pseudo_likelihood_prefers_correct_noise() {
        // Same data, two models: one with roughly the right noise, one
        // wildly overconfident. LOO-LPL must prefer the former.
        let mut rng = seeded(4);
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|p| (5.0 * p[0]).sin() + 0.2 * standard_normal(&mut rng))
            .collect();
        let kernel = Kernel::isotropic(KernelType::Matern52, 1, 0.3, 1.0);
        let good = GpModel::new(kernel.clone(), 0.04, x.clone(), y.clone()).unwrap();
        let overconfident = GpModel::new(kernel, 1e-8, x, y).unwrap();
        let lpl_good = loo_diagnostics(&good).unwrap().log_pseudo_likelihood;
        let lpl_over = loo_diagnostics(&overconfident)
            .unwrap()
            .log_pseudo_likelihood;
        assert!(lpl_good > lpl_over, "{lpl_good} vs {lpl_over}");
    }
}
