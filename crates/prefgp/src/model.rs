//! The Chu & Ghahramani preference GP with Laplace approximation.
//!
//! Latent utilities `g` over the distinct compared items get a GP prior
//! `g ~ N(0, K)`; each comparison contributes the probit likelihood of
//! paper Eq. 9, `p(y⁽¹⁾ ≻ y⁽²⁾ | g) = Φ((g₁ - g₂)/(√2 λ))`. The
//! posterior mode `ĝ` is found by damped Newton iterations and the
//! posterior is approximated as `N(ĝ, (K⁻¹ + Λ)⁻¹)` with `Λ` the
//! likelihood curvature (Laplace).

use eva_gp::Kernel;
use eva_linalg::{vecops, Cholesky, Mat};
use eva_stats::norm_cdf;

use crate::dataset::PreferenceDataset;

/// Errors from preference-model fitting or prediction.
#[derive(Debug, Clone)]
pub enum PrefError {
    /// Not enough data to fit (no comparisons).
    Empty,
    /// Dimension mismatch between items and kernel.
    BadDim { item_dim: usize, kernel_dim: usize },
    /// The comparison-noise scale `λ` is not a positive number.
    BadLambda { lambda: f64 },
    /// Newton iterations failed to converge.
    NoConvergence { iterations: usize },
    /// Underlying linear-algebra failure.
    Linalg(eva_linalg::LinalgError),
}

impl std::fmt::Display for PrefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrefError::Empty => write!(f, "no comparisons to fit"),
            PrefError::BadDim {
                item_dim,
                kernel_dim,
            } => write!(f, "item dim {item_dim} != kernel dim {kernel_dim}"),
            PrefError::BadLambda { lambda } => {
                write!(f, "comparison noise lambda = {lambda} is not positive")
            }
            PrefError::NoConvergence { iterations } => {
                write!(f, "Laplace Newton failed to converge in {iterations} iters")
            }
            PrefError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for PrefError {}

impl From<eva_linalg::LinalgError> for PrefError {
    fn from(e: eva_linalg::LinalgError) -> Self {
        PrefError::Linalg(e)
    }
}

/// Maximum Newton iterations for the Laplace mode search.
const MAX_NEWTON: usize = 100;
/// Convergence threshold on the gradient inf-norm.
const GRAD_TOL: f64 = 1e-8;

/// A fitted preference model: latent utility posterior `g | P_V`.
#[derive(Debug, Clone)]
pub struct PreferenceModel {
    items: Vec<Vec<f64>>,
    kernel: Kernel,
    lambda: f64,
    /// MAP latent utilities at the items.
    g_map: Vec<f64>,
    /// Cholesky of `K + jitter`.
    k_chol: Cholesky,
    /// `K⁻¹ ĝ` — predictive mean weights.
    alpha: Vec<f64>,
    /// Posterior covariance at the items, `(K⁻¹ + Λ)⁻¹`.
    sigma: Mat,
}

impl PreferenceModel {
    /// Fit by Laplace approximation. `lambda` is the comparison-noise
    /// scale of Eq. 9 (must be positive, else [`PrefError::BadLambda`];
    /// it also regularizes the probit slope for deterministic decision
    /// makers).
    pub fn fit(data: &PreferenceDataset, kernel: Kernel, lambda: f64) -> Result<Self, PrefError> {
        if data.is_empty() {
            return Err(PrefError::Empty);
        }
        if lambda.is_nan() || lambda <= 0.0 {
            return Err(PrefError::BadLambda { lambda });
        }
        let items = data.items().to_vec();
        let item_dim = items[0].len();
        if item_dim != kernel.dim() {
            return Err(PrefError::BadDim {
                item_dim,
                kernel_dim: kernel.dim(),
            });
        }
        let n = items.len();
        let mut k = kernel.matrix(&items);
        k.add_diag(1e-8 * kernel.signal_var());
        let k_chol = Cholesky::decompose_jittered(&k)?;
        let c = std::f64::consts::SQRT_2 * lambda;
        // `K` is fixed during the fit, so its inverse is computed once.
        let kinv = k_chol.inverse()?;

        // Damped Newton on the log posterior.
        let mut g = vec![0.0; n];
        let mut log_post = log_posterior(&g, data, &k_chol, c)?;
        let mut converged = false;
        for _ in 0..MAX_NEWTON {
            let (grad_lik, lambda_mat) = likelihood_derivatives(&g, data, n, c);
            // grad = grad_lik - K⁻¹ g
            let kinv_g = k_chol.solve(&g)?;
            let grad = vecops::sub(&grad_lik, &kinv_g);
            let gnorm = grad.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            if gnorm < GRAD_TOL {
                converged = true;
                break;
            }
            // H = Λ + K⁻¹ (SPD); solve H Δ = grad.
            let mut h = lambda_mat.add(&kinv)?;
            h.symmetrize();
            let h_chol = Cholesky::decompose_jittered(&h)?;
            let delta = h_chol.solve(&grad)?;
            // Backtracking line search.
            let mut step = 1.0;
            let mut improved = false;
            for _ in 0..30 {
                let trial: Vec<f64> = g
                    .iter()
                    .zip(&delta)
                    .map(|(&gi, &di)| gi + step * di)
                    .collect();
                let lp = log_posterior(&trial, data, &k_chol, c)?;
                if lp > log_post {
                    g = trial;
                    log_post = lp;
                    improved = true;
                    break;
                }
                step *= 0.5;
            }
            if !improved {
                // Gradient is small enough that no step helps: accept.
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(PrefError::NoConvergence {
                iterations: MAX_NEWTON,
            });
        }

        // Posterior covariance Σ = (K⁻¹ + Λ)⁻¹ at the mode.
        let (_, lambda_mat) = likelihood_derivatives(&g, data, n, c);
        let mut h = lambda_mat.add(&kinv)?;
        h.symmetrize();
        let sigma = Cholesky::decompose_jittered(&h)?.inverse()?;
        let alpha = k_chol.solve(&g)?;

        Ok(PreferenceModel {
            items,
            kernel,
            lambda,
            g_map: g,
            k_chol,
            alpha,
            sigma,
        })
    }

    /// MAP latent utilities at the training items.
    pub fn map_utilities(&self) -> &[f64] {
        &self.g_map
    }

    /// The distinct items the model was trained on.
    #[cfg(test)]
    pub(crate) fn items(&self) -> &[Vec<f64>] {
        &self.items
    }

    /// Posterior mean and variance of the latent utility at `y`: the
    /// one-column case of [`Self::predict_utility_many`].
    ///
    /// A single-point posterior cannot fail after a successful fit; in
    /// the impossible event that it does, fall back to the prior
    /// (mean 0, full kernel variance).
    pub fn predict_utility(&self, y: &[f64]) -> (f64, f64) {
        self.predict_utility_many(&[y])[0]
    }

    /// [`Self::predict_utility`] at every query, batched as the columns
    /// of row-major `n × ys.len()` buffers. Each column performs the
    /// floating-point operations of the one-point joint posterior in
    /// the same order, so every entry is bit-identical to a one-query
    /// call; the batch only lets the inner loops run across columns.
    pub fn predict_utility_many<Y: AsRef<[f64]>>(&self, ys: &[Y]) -> Vec<(f64, f64)> {
        if ys.is_empty() {
            return Vec::new();
        }
        let Some(cols) = self.solve_columns(ys) else {
            return ys
                .iter()
                .map(|y| (0.0, self.kernel.eval(y.as_ref(), y.as_ref()).max(0.0)))
                .collect();
        };
        ys.iter()
            .enumerate()
            .map(|(j, y)| (cols.mean[j], self.variance(&cols, j, y.as_ref()).max(0.0)))
            .collect()
    }

    /// Joint posterior mean and covariance of the latent utilities at
    /// `a` and `b`, bit-identical to the two-point joint posterior: the
    /// covariance is symmetrized as `0.5·(c₀₁ + c₁₀)` and negative
    /// variances clamp to 0. `None` on a singular pivot (impossible
    /// after a successful fit).
    pub(crate) fn posterior_pair(&self, a: &[f64], b: &[f64]) -> Option<([f64; 2], [[f64; 2]; 2])> {
        let ys = [a, b];
        let cols = self.solve_columns(&ys)?;
        // `Kernel::matrix` fills the off-diagonal pair as k(b, a).
        let kba = self.kernel.eval(b, a);
        let cov01 = 0.5 * (cols.entry(0, 1, kba) + cols.entry(1, 0, kba));
        let (var0, var1) = (self.variance(&cols, 0, a), self.variance(&cols, 1, b));
        Some(([cols.mean[0], cols.mean[1]], [[var0, cov01], [cov01, var1]]))
    }

    /// The clamped posterior variance of query column `j` at `y`. The
    /// clamp is the reference's `< 0 → 0`, not `max(0.0)`: NaN passes
    /// through it unchanged.
    fn variance(&self, cols: &Columns, j: usize, y: &[f64]) -> f64 {
        let v = cols.entry(j, j, self.kernel.eval(y, y));
        if v < 0.0 {
            0.0
        } else {
            v
        }
    }

    /// Probability that `a ≻ b` under the posterior (integrating both
    /// the latent uncertainty and the probit response noise).
    pub fn prob_prefers(&self, a: &[f64], b: &[f64]) -> f64 {
        // A failed posterior (impossible after a successful fit) means
        // total ignorance: 50/50.
        let Some((mean, cov)) = self.posterior_pair(a, b) else {
            return 0.5;
        };
        let mu = mean[0] - mean[1];
        let var = (cov[0][0] + cov[1][1] - 2.0 * cov[0][1]).max(0.0);
        let c = std::f64::consts::SQRT_2 * self.lambda;
        norm_cdf(mu / (var + c * c).sqrt())
    }

    /// The per-column work of the joint posterior at `ys`: kernel
    /// columns, `w = K⁻¹k` by the two triangular solves, `Σw`, and the
    /// means `kᵀα`. `None` on a singular pivot.
    fn solve_columns<Y: AsRef<[f64]>>(&self, ys: &[Y]) -> Option<Columns> {
        let (n, m) = (self.items.len(), ys.len());
        let l = self.k_chol.l();
        if (0..n).any(|i| l[(i, i)] == 0.0) {
            return None;
        }
        // `[k | w | Σw]`, then dot lanes and sums: 5m + m of scratch.
        let mut buf = vec![0.0; 3 * n * m + 6 * m];
        let mut mean = vec![0.0; m];
        let (k, rest) = buf.split_at_mut(n * m);
        let (w, rest) = rest.split_at_mut(n * m);
        let (sw, scratch) = rest.split_at_mut(n * m);
        let (lanes, dots) = scratch.split_at_mut(5 * m);
        for (item, k_row) in self.items.iter().zip(k.chunks_exact_mut(m)) {
            for (kv, y) in k_row.iter_mut().zip(ys) {
                *kv = self.kernel.eval(item, y.as_ref());
            }
        }
        dot_columns(&self.alpha, k, lanes, &mut mean);
        // Forward substitution `L v = k`, as `forward_substitution`.
        for i in 0..n {
            let (done, rest) = w.split_at_mut(i * m);
            dot_columns(&l.row(i)[..i], done, lanes, dots);
            let d = l[(i, i)];
            for ((wv, &kv), &s) in rest[..m].iter_mut().zip(&k[i * m..][..m]).zip(&*dots) {
                *wv = (kv - s) / d;
            }
        }
        // Back substitution `Lᵀ w = v` in place, as
        // `backward_substitution_transposed`.
        for i in (0..n).rev() {
            let (above, rest) = w.split_at_mut(i * m);
            let w_i = &mut rest[..m];
            let d = l[(i, i)];
            for wv in w_i.iter_mut() {
                *wv /= d;
            }
            for (w_row, &lij) in above.chunks_exact_mut(m).zip(&l.row(i)[..i]) {
                for (wv, &wi) in w_row.iter_mut().zip(w_i.iter()) {
                    *wv -= lij * wi;
                }
            }
        }
        // `Σw` in `Mat::matmul`'s order: ascending shared index, zero
        // multipliers skipped.
        for (sigma_row, sw_row) in (0..n)
            .map(|i| self.sigma.row(i))
            .zip(sw.chunks_exact_mut(m))
        {
            for (&a, w_row) in sigma_row.iter().zip(w.chunks_exact(m)) {
                if a == 0.0 {
                    continue;
                }
                for (o, &wv) in sw_row.iter_mut().zip(w_row) {
                    *o += a * wv;
                }
            }
        }
        Some(Columns { n, m, buf, mean })
    }

    /// Joint posterior (mean, covariance) of the latent utility at a set
    /// of query outcome vectors: the general q-point reference the
    /// column kernels reproduce bit for bit.
    #[cfg(test)]
    pub(crate) fn posterior_joint(&self, ys: &[Vec<f64>]) -> Result<(Vec<f64>, Mat), PrefError> {
        let kxq = self.kernel.cross_matrix(&self.items, ys); // n x q
        let mean: Vec<f64> = (0..ys.len())
            .map(|j| vecops::dot(&kxq.col(j), &self.alpha))
            .collect();
        // cov = K** − K*ᵀK⁻¹K* + K*ᵀK⁻¹ Σ K⁻¹K*
        let kqq = self.kernel.matrix(ys);
        let w = self.k_chol.solve_mat(&kxq)?; // K⁻¹ K*, n x q
        let reduction = transposed(&kxq).matmul(&w)?;
        let middle = transposed(&w).matmul(&self.sigma.matmul(&w)?)?;
        let mut cov = kqq.sub(&reduction)?.add(&middle)?;
        cov.symmetrize();
        for i in 0..cov.rows() {
            if cov[(i, i)] < 0.0 {
                cov[(i, i)] = 0.0;
            }
        }
        Ok((mean, cov))
    }
}

/// Explicit transposed copy for the reference posterior.
#[cfg(test)]
fn transposed(m: &Mat) -> Mat {
    Mat::from_fn(m.cols(), m.rows(), |i, j| m[(j, i)])
}

/// Row-major `n × m` work blocks of `m` posterior query columns.
struct Columns {
    n: usize,
    m: usize,
    /// `[k | w | Σw | scratch]`: the kernel columns `k(X, y)`,
    /// `w = K⁻¹k` and `Σw`.
    buf: Vec<f64>,
    /// Posterior means `kᵀα`.
    mean: Vec<f64>,
}

impl Columns {
    /// Covariance entry `(r, c)` before symmetrization and clamping,
    /// given the prior covariance `kqq`: `(kqq − kᵣᵀw_c) + wᵣᵀ(Σw)_c`.
    fn entry(&self, r: usize, c: usize, kqq: f64) -> f64 {
        let nm = self.n * self.m;
        let (k, w, sw) = (
            &self.buf[..nm],
            &self.buf[nm..2 * nm],
            &self.buf[2 * nm..3 * nm],
        );
        (kqq - at_b(k, w, self.m, r, c)) + at_b(w, sw, self.m, r, c)
    }
}

/// Entry `(r, c)` of `AᵀB` for row-major `n × m` blocks, in
/// `Mat::matmul`'s order: ascending shared index, zero `A` entries
/// skipped.
fn at_b(a: &[f64], b: &[f64], m: usize, r: usize, c: usize) -> f64 {
    let mut s = 0.0;
    for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(m)) {
        let x = a_row[r];
        if x != 0.0 {
            s += x * b_row[c];
        }
    }
    s
}

/// `out[j] = vecops::dot(a, column j of b)` for the row-major
/// `a.len() × out.len()` block `b`, bit for bit: the same four lanes
/// over the same indices, then `(s0 + s1) + (s2 + s3) + tail`. `lanes`
/// is scratch of `5 · out.len()`.
fn dot_columns(a: &[f64], b: &[f64], lanes: &mut [f64], out: &mut [f64]) {
    let m = out.len();
    lanes.fill(0.0);
    let (s, tail) = lanes.split_at_mut(4 * m);
    let whole = a.len() / 4 * 4;
    for (idx, (&av, b_row)) in a.iter().zip(b.chunks_exact(m)).enumerate() {
        let acc = if idx < whole {
            &mut s[idx % 4 * m..][..m]
        } else {
            &mut *tail
        };
        vecops::axpy(av, b_row, acc);
    }
    for (j, o) in out.iter_mut().enumerate() {
        *o = (s[j] + s[m + j]) + (s[2 * m + j] + s[3 * m + j]) + tail[j];
    }
}

/// Log posterior (up to a constant): Σ log Φ(u_v) − ½ gᵀK⁻¹g.
fn log_posterior(
    g: &[f64],
    data: &PreferenceDataset,
    k_chol: &Cholesky,
    c: f64,
) -> Result<f64, PrefError> {
    let mut ll = 0.0;
    for cmp in data.comparisons() {
        let u = (g[cmp.winner] - g[cmp.loser]) / c;
        ll += eva_stats::normal::log_norm_cdf(u);
    }
    let quad = k_chol.quad_form(g)?;
    Ok(ll - 0.5 * quad)
}

/// Gradient of the log likelihood w.r.t. `g`, and the curvature matrix
/// `Λ = −∇² log lik` (PSD).
fn likelihood_derivatives(
    g: &[f64],
    data: &PreferenceDataset,
    n: usize,
    c: f64,
) -> (Vec<f64>, Mat) {
    let mut grad = vec![0.0; n];
    let mut lam = Mat::zeros(n, n);
    for cmp in data.comparisons() {
        let (a, b) = (cmp.winner, cmp.loser);
        let u = (g[a] - g[b]) / c;
        // v = φ/Φ (inverse Mills), w = v (u + v) > 0.
        let v = eva_stats::normal::mills_ratio_inv(u);
        let w = v * (u + v);
        grad[a] += v / c;
        grad[b] -= v / c;
        let wcc = w / (c * c);
        lam[(a, a)] += wcc;
        lam[(b, b)] += wcc;
        lam[(a, b)] -= wcc;
        lam[(b, a)] -= wcc;
    }
    (grad, lam)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::FunctionOracle;
    use eva_gp::KernelType;
    use eva_stats::rng::seeded;
    use rand::Rng;

    fn default_kernel(dim: usize) -> Kernel {
        Kernel::isotropic(KernelType::Rbf, dim, 0.5, 1.0)
    }

    /// Build a dataset of `n` random comparisons in [0,1]^dim, answered
    /// by the given utility.
    fn random_dataset(
        utility: impl Fn(&[f64]) -> f64 + Copy,
        dim: usize,
        n: usize,
        seed: u64,
    ) -> PreferenceDataset {
        let mut rng = seeded(seed);
        let mut data = PreferenceDataset::new();
        let mut oracle = FunctionOracle::new(utility);
        for _ in 0..n {
            let a: Vec<f64> = (0..dim).map(|_| rng.gen()).collect();
            let b: Vec<f64> = (0..dim).map(|_| rng.gen()).collect();
            data.query(&mut oracle, &a, &b);
        }
        data
    }

    #[test]
    fn map_utilities_respect_observed_order() {
        let data = random_dataset(|y| -y[0], 1, 15, 1);
        let model = PreferenceModel::fit(&data, default_kernel(1), 0.1).unwrap();
        // Every training comparison should be reproduced at the mode.
        for cmp in data.comparisons() {
            assert!(
                model.map_utilities()[cmp.winner] > model.map_utilities()[cmp.loser],
                "MAP order violates training comparison {cmp:?}"
            );
        }
    }

    #[test]
    fn predicts_held_out_comparisons_linear_utility() {
        let utility = |y: &[f64]| -(y[0] + 2.0 * y[1]);
        let data = random_dataset(utility, 2, 40, 2);
        let model = PreferenceModel::fit(&data, default_kernel(2), 0.1).unwrap();
        let mut rng = seeded(3);
        let mut correct = 0;
        let trials = 200;
        for _ in 0..trials {
            let a: Vec<f64> = vec![rng.gen(), rng.gen()];
            let b: Vec<f64> = vec![rng.gen(), rng.gen()];
            let (ua, _) = model.predict_utility(&a);
            let (ub, _) = model.predict_utility(&b);
            if (ua > ub) == (utility(&a) > utility(&b)) {
                correct += 1;
            }
        }
        let acc = correct as f64 / trials as f64;
        assert!(acc > 0.85, "held-out accuracy {acc}");
    }

    #[test]
    fn accuracy_improves_with_more_comparisons() {
        // The Fig. 9 mechanism in miniature.
        let utility = |y: &[f64]| -(0.5 * y[0] + 1.5 * y[1] + y[2]);
        let eval = |n: usize| -> f64 {
            let data = random_dataset(utility, 3, n, 4);
            let model = PreferenceModel::fit(&data, default_kernel(3), 0.1).unwrap();
            let mut rng = seeded(5);
            let trials = 300;
            let mut correct = 0;
            for _ in 0..trials {
                let a: Vec<f64> = (0..3).map(|_| rng.gen()).collect();
                let b: Vec<f64> = (0..3).map(|_| rng.gen()).collect();
                let (ua, _) = model.predict_utility(&a);
                let (ub, _) = model.predict_utility(&b);
                if (ua > ub) == (utility(&a) > utility(&b)) {
                    correct += 1;
                }
            }
            correct as f64 / trials as f64
        };
        let acc_small = eval(3);
        let acc_large = eval(30);
        assert!(
            acc_large > acc_small,
            "no improvement: {acc_small} -> {acc_large}"
        );
        assert!(acc_large > 0.85, "large-sample accuracy {acc_large}");
    }

    #[test]
    fn posterior_variance_shrinks_near_observed_items() {
        let data = random_dataset(|y| -y[0], 1, 25, 6);
        let model = PreferenceModel::fit(&data, default_kernel(1), 0.1).unwrap();
        let seen = data.items()[0].clone();
        let (_, var_seen) = model.predict_utility(&seen);
        let (_, var_far) = model.predict_utility(&[50.0]);
        assert!(var_far > var_seen, "{var_far} vs {var_seen}");
    }

    #[test]
    fn prob_prefers_is_calibrated_in_direction() {
        let data = random_dataset(|y| -y[0], 1, 30, 7);
        let model = PreferenceModel::fit(&data, default_kernel(1), 0.1).unwrap();
        let p_good = model.prob_prefers(&[0.1], &[0.9]);
        let p_bad = model.prob_prefers(&[0.9], &[0.1]);
        assert!(p_good > 0.7, "p_good = {p_good}");
        assert!((p_good + p_bad - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_dataset_rejected() {
        let data = PreferenceDataset::new();
        assert!(matches!(
            PreferenceModel::fit(&data, default_kernel(1), 0.1),
            Err(PrefError::Empty)
        ));
    }

    #[test]
    fn non_positive_or_nan_lambda_rejected() {
        let mut data = PreferenceDataset::new();
        data.add(&[0.0], &[1.0]);
        for lambda in [0.0, -0.1, f64::NAN] {
            assert!(matches!(
                PreferenceModel::fit(&data, default_kernel(1), lambda),
                Err(PrefError::BadLambda { .. })
            ));
        }
    }

    /// Outcome dimension of the bit-identity tests (PaMO's five
    /// objectives).
    const DIM: usize = 5;

    /// A fitted model over exactly `n` distinct items in `[0, 1]^DIM`:
    /// a chain of comparisons plus some longer-range ones. One item
    /// cannot be fitted (every comparison has two), so `n = 1` builds
    /// the one-item posterior directly.
    fn model_with_items(n: usize, seed: u64) -> PreferenceModel {
        let mut rng = seeded(seed);
        let items: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..DIM).map(|_| rng.gen()).collect())
            .collect();
        let kernel = default_kernel(DIM);
        if n == 1 {
            let mut k = kernel.matrix(&items);
            k.add_diag(1e-8 * kernel.signal_var());
            let k_chol = Cholesky::decompose_jittered(&k).unwrap();
            let g_map = vec![0.3];
            let alpha = k_chol.solve(&g_map).unwrap();
            return PreferenceModel {
                items,
                kernel,
                lambda: 0.1,
                g_map,
                k_chol,
                alpha,
                sigma: Mat::from_diag(&[0.4]),
            };
        }
        let mut oracle = FunctionOracle::new(|y: &[f64]| -(y[0] + 2.0 * y[1] + 0.5 * y[4]));
        let mut data = PreferenceDataset::new();
        for i in 0..n - 1 {
            data.query(&mut oracle, &items[i], &items[i + 1]);
        }
        for i in 0..n {
            let j = (7 * i + 3) % n;
            if j != i {
                data.query(&mut oracle, &items[i], &items[j]);
            }
        }
        assert_eq!(data.items().len(), n);
        PreferenceModel::fit(&data, kernel, 0.1).unwrap()
    }

    /// Queries that reach every branch: the training items (variances
    /// at the clamp), near-duplicates of them, far-away points whose
    /// kernel columns underflow to exact zeros, and random points.
    fn queries(model: &PreferenceModel, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = seeded(seed);
        let mut ys: Vec<Vec<f64>> = model.items().to_vec();
        ys.extend(
            model
                .items()
                .iter()
                .map(|it| it.iter().map(|v| v + 1e-12).collect()),
        );
        ys.push(vec![50.0; DIM]);
        ys.push(vec![-3.0, 0.5, 0.5, 0.5, 9.0]);
        ys.extend((0..40).map(|_| (0..DIM).map(|_| 1.4 * rng.gen::<f64>() - 0.2).collect()));
        ys
    }

    const SIZES: [usize; 8] = [1, 2, 3, 5, 8, 13, 36, 70];

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn predict_utility_is_bit_identical_to_joint_posterior() {
        for (s, n) in SIZES.into_iter().enumerate() {
            let model = model_with_items(n, 100 + s as u64);
            for y in queries(&model, 200 + s as u64) {
                let (mean, cov) = model.posterior_joint(std::slice::from_ref(&y)).unwrap();
                let want = [mean[0], cov[(0, 0)].max(0.0)];
                let (mu, var) = model.predict_utility(&y);
                assert_eq!(bits(&[mu, var]), bits(&want), "n = {n}, y = {y:?}");
            }
        }
    }

    #[test]
    fn predict_utility_many_is_bit_identical_per_row() {
        for (s, n) in SIZES.into_iter().enumerate() {
            let model = model_with_items(n, 100 + s as u64);
            let ys = queries(&model, 300 + s as u64);
            for m in [1, 2, 5, 32, ys.len()] {
                let many = model.predict_utility_many(&ys[..m]);
                assert_eq!(many.len(), m);
                for (y, &(mu, var)) in ys.iter().zip(&many) {
                    let (mu1, var1) = model.predict_utility(y);
                    assert_eq!(bits(&[mu, var]), bits(&[mu1, var1]), "n = {n}, m = {m}");
                }
            }
        }
    }

    #[test]
    fn posterior_pair_is_bit_identical_to_joint_posterior() {
        for (s, n) in SIZES.into_iter().enumerate() {
            let model = model_with_items(n, 100 + s as u64);
            let ys = queries(&model, 400 + s as u64);
            for (i, a) in ys.iter().enumerate() {
                // Each query against itself, its neighbour and one far one.
                for b in [a, &ys[(i + 1) % ys.len()], &ys[(5 * i + 2) % ys.len()]] {
                    let (mean, cov) = model.posterior_joint(&[a.clone(), b.clone()]).unwrap();
                    let (pm, pc) = model.posterior_pair(a, b).unwrap();
                    assert_eq!(bits(&pm), bits(&mean), "n = {n}");
                    for (r, row) in pc.iter().enumerate() {
                        for (c, &v) in row.iter().enumerate() {
                            assert_eq!(v.to_bits(), cov[(r, c)].to_bits(), "n = {n}, ({r}, {c})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dim_mismatch_rejected() {
        let mut data = PreferenceDataset::new();
        data.add(&[0.0, 1.0], &[1.0, 0.0]);
        assert!(matches!(
            PreferenceModel::fit(&data, default_kernel(3), 0.1),
            Err(PrefError::BadDim { .. })
        ));
    }

    #[test]
    fn single_comparison_fits() {
        let mut data = PreferenceDataset::new();
        data.add(&[0.0], &[1.0]);
        let model = PreferenceModel::fit(&data, default_kernel(1), 0.1).unwrap();
        let (u0, _) = model.predict_utility(&[0.0]);
        let (u1, _) = model.predict_utility(&[1.0]);
        assert!(u0 > u1);
    }

    #[test]
    fn contradictory_comparisons_average_out() {
        // a ≻ b and b ≻ a: utilities should stay close to each other.
        let mut data = PreferenceDataset::new();
        data.add(&[0.0], &[1.0]);
        data.add(&[1.0], &[0.0]);
        let model = PreferenceModel::fit(&data, default_kernel(1), 0.1).unwrap();
        let g = model.map_utilities();
        assert!((g[0] - g[1]).abs() < 0.2, "{g:?}");
    }
}
