//! Exact GP regression: posterior means, variances, joint covariance
//! and posterior sampling.
//!
//! A model splits into an input-determined **factor** and its own
//! targets. The factor — kernel, noise, training inputs and the packed
//! Cholesky rows of `K + σ²I` (plus the jitter they carry) — sits behind
//! an `Arc`, so every model with the same inputs points at one copy:
//! the models of one shared profiling design ([`GpModel::with_targets`])
//! and, after conditioning, every model that observed the same inputs
//! in the same order ([`GpModel::extend_factor`]). Per model only the
//! targets remain: the raw values, the frozen standardization, the
//! forward-solved targets `u = L⁻¹z` and the weights `α = L⁻ᵀu`. A
//! model built from scratch owns its factor (refcount 1) and takes
//! exactly the same code path.
//!
//! The weights are back-substituted on first read, not when the model
//! is built or conditioned: a bank conditions every camera's models on
//! each observation but reads only the few it queries before the next
//! one. Every pivot the deferred solve divides by was checked nonzero
//! by a forward pass over the same factor rows, so the solve cannot
//! fail, and it runs the same `backward` on the same `u` as an eager
//! one would, so the weights are bit-identical.
//!
//! Inside a factor the rows split once more into the design *prefix*,
//! shared by every factor grown from one profiling design, and the
//! factor's own *tail*. Rows are packed lower-triangular (row `i` holds
//! `i + 1` entries) and inputs flat row-major. Every dot product runs
//! over the same slices in the same order as a dense factor would, so a
//! shared factor is bit-identical to a dense per-model one.
//!
//! Query work is shared at both levels. A query's design-row work —
//! cross-kernel entries against the prefix inputs and their forward
//! solve — depends only on the prefix ([`GpModel::prefix_solve`]); its
//! tail cross-kernel entries and latent variance depend only on the
//! factor ([`GpModel::factor_solve`]). Callers that query many models
//! compute each once per distinct query and pass both to
//! [`GpModel::predict_with`], which then does only the model's mean dot.

use std::sync::{Arc, OnceLock};

use eva_linalg::{vecops, Cholesky, LinalgError, Mat};

use super::{GpError, Kernel, Result};

/// Start of row `i` in packed lower-triangular storage.
#[inline]
fn tri(i: usize) -> usize {
    i * (i + 1) / 2
}

/// Forward substitution `L y = b` over factor rows `from..to`, with
/// `y[..from]` already solved. `rows` packs the factor's rows from row
/// `base` on (row `i` starts at `tri(i) - tri(base)`). The arithmetic is
/// that of [`eva_linalg::solve::forward_substitution`] row for row.
fn forward_packed(
    rows: &[f64],
    base: usize,
    from: usize,
    to: usize,
    b: &[f64],
    y: &mut [f64],
) -> std::result::Result<(), LinalgError> {
    let mut off = tri(from) - tri(base);
    for i in from..to {
        let row = &rows[off..off + i + 1];
        let s = vecops::dot(&row[..i], &y[..i]);
        let d = row[i];
        if d == 0.0 {
            return Err(LinalgError::Singular { pivot: i });
        }
        y[i] = (b[i] - s) / d;
        off += i + 1;
    }
    Ok(())
}

/// The design rows a factor may share with others.
#[derive(Debug)]
struct Prefix {
    kernel: Kernel,
    noise_var: f64,
    /// Inputs, row-major `n × dim`.
    x: Vec<f64>,
    /// Packed factor rows `0..n`.
    l: Vec<f64>,
    n: usize,
}

impl Prefix {
    fn point(&self, i: usize) -> &[f64] {
        let d = self.kernel.dim();
        &self.x[i * d..(i + 1) * d]
    }
}

/// The input-determined part of a model: the shared design prefix, the
/// inputs and packed factor rows added after it, and the largest
/// diagonal jitter in effect on any row.
#[derive(Debug)]
struct Factor {
    prefix: Arc<Prefix>,
    /// Inputs added after the prefix, row-major.
    tail_x: Vec<f64>,
    /// Packed factor rows `prefix.n..n`.
    tail_l: Vec<f64>,
    tail_n: usize,
    jitter: f64,
}

impl Factor {
    /// Factor `K + σ²I` of `x` from scratch; the factor owns all its
    /// rows as prefix.
    fn build(kernel: Kernel, noise_var: f64, x: &[Vec<f64>]) -> Result<Factor> {
        let mut k = kernel.matrix(x);
        k.add_diag(noise_var);
        let chol = Cholesky::decompose_jittered(&k)?;
        let n = x.len();
        let mut l = Vec::with_capacity(tri(n));
        for i in 0..n {
            l.extend_from_slice(&chol.l().row(i)[..=i]);
        }
        let prefix = Prefix {
            kernel,
            noise_var,
            x: x.concat(),
            l,
            n,
        };
        Ok(Factor {
            prefix: Arc::new(prefix),
            tail_x: Vec::new(),
            tail_l: Vec::new(),
            tail_n: 0,
            jitter: chol.jitter(),
        })
    }

    fn n(&self) -> usize {
        self.prefix.n + self.tail_n
    }

    fn kernel(&self) -> &Kernel {
        &self.prefix.kernel
    }

    fn point(&self, i: usize) -> &[f64] {
        if i < self.prefix.n {
            self.prefix.point(i)
        } else {
            let d = self.kernel().dim();
            let t = i - self.prefix.n;
            &self.tail_x[t * d..(t + 1) * d]
        }
    }

    /// Factor row `i` (its `i + 1` lower-triangular entries).
    fn row(&self, i: usize) -> &[f64] {
        let n0 = self.prefix.n;
        if i < n0 {
            &self.prefix.l[tri(i)..tri(i) + i + 1]
        } else {
            let off = tri(i) - tri(n0);
            &self.tail_l[off..off + i + 1]
        }
    }

    /// Forward substitution over factor rows `from..to`, with
    /// `y[..from]` already solved.
    fn forward(
        &self,
        from: usize,
        to: usize,
        b: &[f64],
        y: &mut [f64],
    ) -> std::result::Result<(), LinalgError> {
        let n0 = self.prefix.n;
        if from < n0 {
            forward_packed(&self.prefix.l, 0, from, n0.min(to), b, y)?;
        }
        forward_packed(&self.tail_l, n0, from.max(n0), to, b, y)
    }

    /// Back substitution `Lᵀ x = y` in place: the second triangular
    /// solve of [`Cholesky::solve`], row for row. Callers run it only
    /// after a forward pass over the same rows succeeded, and that pass
    /// rejects a zero pivot, so every division here is by a checked
    /// nonzero diagonal.
    fn backward(&self, x: &mut [f64]) {
        for i in (0..x.len()).rev() {
            let row = self.row(i);
            let d = row[i];
            debug_assert!(d != 0.0, "backward: unchecked zero pivot {i}");
            x[i] /= d;
            let xi = x[i];
            // Column i of L below the diagonal eliminates into earlier rows of x.
            for j in 0..i {
                x[j] -= row[j] * xi;
            }
        }
    }

    /// Solve `(K + σ²I) x = b` through the factor.
    fn solve(&self, b: &[f64]) -> std::result::Result<Vec<f64>, LinalgError> {
        let mut x = vec![0.0; self.n()];
        self.forward(0, self.n(), b, &mut x)?;
        self.backward(&mut x);
        Ok(x)
    }

    /// This factor grown by the rows of `xs` (whose prefix solves are
    /// `pres`): `L21` rows from forward solves of the new cross-kernel
    /// columns, then the Schur complement `C + jitter·I − L21·L21ᵀ`
    /// factored with the jitter ladder. `None` when the extension is
    /// not numerically positive definite.
    fn extended(&self, xs: &[&[f64]], pres: &[PrefixSolve]) -> Option<Factor> {
        let (n0, n, k) = (self.prefix.n, self.n(), xs.len());
        let kernel = self.kernel();
        let mut l21 = vec![0.0; k * n];
        let mut b = vec![0.0; n];
        for (j, (x, pre)) in xs.iter().zip(pres).enumerate() {
            let w = pre.w.as_ref()?;
            b[..n0].copy_from_slice(&pre.k);
            for (i, slot) in b.iter_mut().enumerate().skip(n0) {
                *slot = kernel.eval(x, self.point(i));
            }
            let row = &mut l21[j * n..(j + 1) * n];
            row[..n0].copy_from_slice(w);
            self.forward(n0, n, &b, row).ok()?;
        }
        let mut s = Mat::zeros(k, k);
        for i in 0..k {
            for j in 0..=i {
                let corner = if i == j {
                    pres[i].kxx + self.prefix.noise_var
                } else {
                    kernel.eval(xs[i], xs[j])
                };
                let v = corner - vecops::dot(&l21[i * n..(i + 1) * n], &l21[j * n..(j + 1) * n]);
                s[(i, j)] = v;
                s[(j, i)] = v;
            }
            s[(i, i)] += self.jitter;
        }
        let s_ch = Cholesky::decompose_jittered(&s).ok()?;
        let mut tail_l = Vec::with_capacity(self.tail_l.len() + k * n + tri(k));
        tail_l.extend_from_slice(&self.tail_l);
        for i in 0..k {
            tail_l.extend_from_slice(&l21[i * n..(i + 1) * n]);
            tail_l.extend_from_slice(&s_ch.l().row(i)[..=i]);
        }
        let mut tail_x = Vec::with_capacity(self.tail_x.len() + k * kernel.dim());
        tail_x.extend_from_slice(&self.tail_x);
        for x in xs {
            tail_x.extend_from_slice(x);
        }
        Some(Factor {
            prefix: Arc::clone(&self.prefix),
            tail_x,
            tail_l,
            tail_n: self.tail_n + k,
            jitter: self.jitter.max(s_ch.jitter()),
        })
    }
}

/// An exact Gaussian-process regression model.
///
/// Targets are standardized internally (zero mean, unit variance) so the
/// hyperparameter priors/bounds in [`fit_gp`](crate::gp::fit_gp) transfer across
/// outcome scales — the five EVA objectives span six orders of magnitude
/// (seconds vs. TFLOPs).
#[derive(Debug, Clone)]
pub struct GpModel {
    factor: Arc<Factor>,
    y_raw: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    /// `L⁻¹z`, the forward-solved standardized targets. Every factor
    /// row's pivot was checked by the forward passes that built it.
    u: Vec<f64>,
    /// `(K + σ² I)^{-1} z = L⁻ᵀu`, back-substituted on first read
    /// ([`GpModel::solve_weights`]). A clone carries the cell as it
    /// stands: filled weights are copied, an empty cell solves on its own.
    alpha: OnceLock<Vec<f64>>,
}

/// A query's design-row work against one model prefix: the cross-kernel
/// entries `k₀ = k(x, X₀)`, their forward solve `L₀⁻¹k₀`, and `k(x, x)`.
/// Computed once by [`GpModel::prefix_solve`], it serves every model
/// that shares the prefix.
#[derive(Debug, Clone)]
pub(crate) struct PrefixSolve {
    /// [`GpModel::prefix_id`] of the prefix this was solved against.
    prefix: usize,
    k: Vec<f64>,
    /// `None` when the prefix factor is singular.
    w: Option<Vec<f64>>,
    kxx: f64,
}

/// A query's work against one whole factor beyond its design prefix:
/// the tail cross-kernel entries (the prefix entries stay in the
/// query's [`PrefixSolve`]) and the standardized latent variance
/// `k(x,x) − ‖L⁻¹k‖²`. Computed once by [`GpModel::factor_solve`], it
/// serves every model that shares the factor.
#[derive(Debug, Clone)]
pub(crate) struct FactorSolve {
    /// [`GpModel::factor_id`] of the factor this was solved against.
    factor: usize,
    k_tail: Vec<f64>,
    var_z: f64,
}

/// A model's factor grown by new inputs, built once by
/// [`GpModel::extend_factor`] and handed to [`GpModel::condition_on`]
/// for every model that shares the parent factor and observed the same
/// inputs: they all receive the same `Arc`.
#[derive(Debug, Clone)]
pub(crate) struct FactorExtension {
    /// [`GpModel::factor_id`] of the parent factor.
    parent: usize,
    factor: Arc<Factor>,
    /// First row whose forward-solved target is new: the parent's row
    /// count, or 0 when the extension fell back to a full rebuild.
    from: usize,
}

impl FactorExtension {
    /// Whether the extension fell back to a from-scratch rebuild (the
    /// new factor then owns its rows and shares no prefix).
    pub(crate) fn rebuilt(&self) -> bool {
        self.from == 0
    }
}

/// Joint latent posterior at a set of query points.
#[derive(Debug, Clone)]
pub struct GpPosterior {
    /// Posterior mean per query point (original target units).
    pub mean: Vec<f64>,
    /// Posterior covariance (original target units squared).
    pub cov: Mat,
}

impl GpModel {
    /// Build a GP from training data. `noise_var` is the observation
    /// noise variance **in standardized target units** (the scale
    /// [`fit_gp`](crate::gp::fit_gp) optimizes on).
    pub fn new(kernel: Kernel, noise_var: f64, x: Vec<Vec<f64>>, y: Vec<f64>) -> Result<Self> {
        if x.is_empty() {
            return Err(GpError::BadData("no training points".into()));
        }
        if x.len() != y.len() {
            return Err(GpError::BadData(format!(
                "{} inputs vs {} targets",
                x.len(),
                y.len()
            )));
        }
        if x.iter().any(|p| p.len() != kernel.dim()) {
            return Err(GpError::BadData(format!(
                "input dim != kernel dim {}",
                kernel.dim()
            )));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // also rejects NaN
        if !(noise_var > 0.0) {
            return Err(GpError::BadData("noise_var must be positive".into()));
        }
        let (y_mean, y_std) = standardization_of(&y);
        let factor = Factor::build(kernel, noise_var, &x)?;
        Self::on_factor(Arc::new(factor), y, y_mean, y_std)
    }

    /// Build a GP with an *explicitly given* target standardization
    /// instead of deriving it from `y`. This is the from-scratch
    /// reference path for conditioning with fixed hyperparameters:
    /// `noise_var` was fitted in a particular standardized scale, so
    /// updates must keep `y_mean`/`y_std` frozen or the noise silently
    /// changes meaning in original units (see [`GpModel::with_added`]).
    pub(crate) fn with_standardization(
        kernel: Kernel,
        noise_var: f64,
        x: Vec<Vec<f64>>,
        y: Vec<f64>,
        y_mean: f64,
        y_std: f64,
    ) -> Result<Self> {
        if x.is_empty() || x.len() != y.len() {
            return Err(GpError::BadData(format!(
                "{} inputs vs {} targets",
                x.len(),
                y.len()
            )));
        }
        if x.iter().any(|p| p.len() != kernel.dim()) {
            return Err(GpError::BadData(format!(
                "input dim != kernel dim {}",
                kernel.dim()
            )));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // also rejects NaN
        if !(noise_var > 0.0) {
            return Err(GpError::BadData("noise_var must be positive".into()));
        }
        check_standardization(y_mean, y_std)?;
        let factor = Factor::build(kernel, noise_var, &x)?;
        Self::on_factor(Arc::new(factor), y, y_mean, y_std)
    }

    /// A model of targets `y` on `factor`: the forward solve from
    /// scratch; the weights wait for their first read.
    fn on_factor(factor: Arc<Factor>, y: Vec<f64>, y_mean: f64, y_std: f64) -> Result<Self> {
        let z: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();
        let mut u = vec![0.0; factor.n()];
        factor.forward(0, factor.n(), &z, &mut u)?;
        Ok(GpModel {
            factor,
            y_raw: y,
            y_mean,
            y_std,
            u,
            alpha: OnceLock::new(),
        })
    }

    /// The weights `α = L⁻ᵀu`, back-substituted on first read.
    fn weights(&self) -> &[f64] {
        self.alpha.get_or_init(|| self.back_substitute())
    }

    fn back_substitute(&self) -> Vec<f64> {
        #[cfg(test)]
        tests::WEIGHT_SOLVES.with(|n| n.set(n.get() + 1));
        let mut alpha = self.u.clone();
        self.factor.backward(&mut alpha);
        alpha
    }

    /// Back-substitute for the weights now unless an earlier read did;
    /// true when this call ran the solve. The solve runs at most once
    /// per model (and once per clone taken before it), so callers that
    /// read models through one place count the solves a pass paid for.
    pub(crate) fn solve_weights(&self) -> bool {
        let mut ran = false;
        self.alpha.get_or_init(|| {
            ran = true;
            self.back_substitute()
        });
        ran
    }

    /// Number of training points.
    pub(crate) fn n(&self) -> usize {
        self.factor.n()
    }

    /// Input dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.kernel().dim()
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &Kernel {
        self.factor.kernel()
    }

    /// Observation noise variance (standardized units).
    pub fn noise_var(&self) -> f64 {
        self.factor.prefix.noise_var
    }

    /// Training inputs, one vector per point (a copy: inputs are stored
    /// flat in the shared factor).
    pub(crate) fn train_x(&self) -> Vec<Vec<f64>> {
        (0..self.n())
            .map(|i| self.factor.point(i).to_vec())
            .collect()
    }

    /// Training targets (original units).
    pub fn train_y(&self) -> &[f64] {
        &self.y_raw
    }

    /// Identity of this model's shared design prefix: equal ids mean the
    /// same design rows, kernel and factor rows, so one [`PrefixSolve`]
    /// serves all models that report it. Valid as a memo key while those
    /// models are alive.
    pub(crate) fn prefix_id(&self) -> usize {
        Arc::as_ptr(&self.factor.prefix) as usize
    }

    /// Whether `other` shares this model's design prefix.
    #[cfg(test)]
    pub(crate) fn shares_prefix(&self, other: &GpModel) -> bool {
        Arc::ptr_eq(&self.factor.prefix, &other.factor.prefix)
    }

    /// Number of factor rows in the shared design prefix.
    #[cfg(test)]
    pub(crate) fn prefix_len(&self) -> usize {
        self.factor.prefix.n
    }

    /// Identity of this model's factor: equal ids mean the same inputs,
    /// kernel, noise and factor rows, so one [`FactorSolve`] or
    /// [`FactorExtension`] serves all models that report it. Valid as a
    /// memo key while those models are alive.
    pub(crate) fn factor_id(&self) -> usize {
        Arc::as_ptr(&self.factor) as usize
    }

    /// Whether `other` shares this model's factor.
    pub fn shares_factor(&self, other: &GpModel) -> bool {
        Arc::ptr_eq(&self.factor, &other.factor)
    }

    /// The design-row work of query `x` against this model's prefix,
    /// shareable by every model with the same [`GpModel::prefix_id`].
    pub(crate) fn prefix_solve(&self, x: &[f64]) -> PrefixSolve {
        let p = &*self.factor.prefix;
        let k: Vec<f64> = (0..p.n).map(|i| p.kernel.eval(x, p.point(i))).collect();
        let mut w = vec![0.0; p.n];
        let solved = forward_packed(&p.l, 0, 0, p.n, &k, &mut w).is_ok();
        PrefixSolve {
            prefix: self.prefix_id(),
            k,
            w: solved.then_some(w),
            kxx: p.kernel.eval(x, x),
        }
    }

    /// The work of query `x` against this model's whole factor, given
    /// its [`PrefixSolve`]: only the tail kernel entries and tail
    /// forward rows are computed here. Shareable by every model with the
    /// same [`GpModel::factor_id`]; a prefix solve made against another
    /// prefix is ignored and recomputed.
    pub(crate) fn factor_solve(&self, x: &[f64], pre: &PrefixSolve) -> FactorSolve {
        if pre.prefix != self.prefix_id() {
            return self.factor_solve(x, &self.prefix_solve(x));
        }
        let f = &*self.factor;
        let (n0, n) = (f.prefix.n, f.n());
        let mut kx = Vec::with_capacity(n);
        kx.extend_from_slice(&pre.k);
        kx.extend((n0..n).map(|i| f.kernel().eval(x, f.point(i))));
        // var = k(x,x) - kx^T (K+σ²I)^{-1} kx. The factorization
        // dimension is consistent by construction; if it ever were not,
        // fall back to the (conservative) prior variance.
        let v = match &pre.w {
            Some(w) => {
                let mut y = vec![0.0; n];
                y[..n0].copy_from_slice(w);
                match f.forward(n0, n, &kx, &mut y) {
                    Ok(()) => vecops::dot(&y, &y),
                    Err(_) => 0.0,
                }
            }
            None => 0.0,
        };
        FactorSolve {
            factor: self.factor_id(),
            k_tail: kx.split_off(n0),
            var_z: (pre.kxx - v).max(0.0),
        }
    }

    /// Predictive mean and *latent* variance at one point, in original
    /// target units. Add `noise_var * y_std²` for an observation.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        debug_assert_eq!(x.len(), self.dim(), "predict: dim mismatch");
        let pre = self.prefix_solve(x);
        self.predict_with(x, &pre, &self.factor_solve(x, &pre))
    }

    /// [`GpModel::predict`] given the query's [`PrefixSolve`] and
    /// [`FactorSolve`]: only this model's mean dot and the variance
    /// scaling are computed here. Bit-identical to `predict`; solves
    /// made against another prefix or factor are ignored and recomputed.
    pub(crate) fn predict_with(
        &self,
        x: &[f64],
        pre: &PrefixSolve,
        solve: &FactorSolve,
    ) -> (f64, f64) {
        if pre.prefix != self.prefix_id() || solve.factor != self.factor_id() {
            return self.predict(x);
        }
        let mean_z = vecops::dot_concat(&pre.k, &solve.k_tail, self.weights());
        (
            self.y_mean + self.y_std * mean_z,
            self.y_std * self.y_std * solve.var_z,
        )
    }

    /// Predictive mean at one point (original units).
    pub fn predict_mean(&self, x: &[f64]) -> f64 {
        self.predict(x).0
    }

    /// A model over the *same inputs and hyperparameters* but fresh
    /// targets: shares this model's factor (the Gram matrix depends only
    /// on the inputs, kernel, and noise), only forward-solving the new
    /// targets (the weights wait for the first read). Bit-identical to `GpModel::new(kernel, noise_var, x, y)`
    /// on the same inputs, at O(n²) instead of O(n³) — the
    /// shared-profiling-design fit path builds one factor per objective
    /// and shares it across all cameras.
    pub(crate) fn with_targets(&self, y: Vec<f64>) -> Result<GpModel> {
        if y.len() != self.n() {
            return Err(GpError::BadData(format!(
                "with_targets: {} targets vs {} inputs",
                y.len(),
                self.n()
            )));
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(GpError::BadData("with_targets: non-finite target".into()));
        }
        let (y_mean, y_std) = standardization_of(&y);
        Self::on_factor(Arc::clone(&self.factor), y, y_mean, y_std)
    }

    /// Observation-noise variance in original units.
    pub fn observation_noise(&self) -> f64 {
        self.noise_var() * self.y_std * self.y_std
    }

    /// Joint latent posterior (mean vector + full covariance) at `xs`.
    pub fn posterior(&self, xs: &[Vec<f64>]) -> Result<GpPosterior> {
        if xs.is_empty() {
            return Err(GpError::BadData("posterior: empty query set".into()));
        }
        // The kernel is symmetric bit for bit, so row j of `K(Q, X)` is
        // column j of `K(X, Q)`.
        let kqx = self.kernel().cross_matrix(xs, &self.train_x()); // q x n
        let alpha = self.weights();
        let mean: Vec<f64> = (0..xs.len())
            .map(|j| self.y_mean + self.y_std * vecops::dot(kqx.row(j), alpha))
            .collect();
        // cov = K(Q,Q) - Kqx (K+σ²I)^{-1} Kqxᵀ
        let kqq = self.kernel().matrix(xs);
        let mut w = Mat::zeros(kqx.cols(), kqx.rows()); // n x q
        for j in 0..kqx.rows() {
            for (i, v) in self.factor.solve(kqx.row(j))?.into_iter().enumerate() {
                w[(i, j)] = v;
            }
        }
        let reduction = kqx.matmul(&w)?; // q x q
        let mut cov = kqq.sub(&reduction)?;
        cov.symmetrize();
        // Clamp round-off negatives on the diagonal.
        for i in 0..cov.rows() {
            if cov[(i, i)] < 0.0 {
                cov[(i, i)] = 0.0;
            }
        }
        let s2 = self.y_std * self.y_std;
        Ok(GpPosterior {
            mean,
            cov: cov.scale(s2),
        })
    }

    /// Log marginal likelihood of the training data under the current
    /// hyperparameters, computed on the standardized scale (the quantity
    /// [`fit_gp`](crate::gp::fit_gp) maximizes).
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.n();
        let z: Vec<f64> = self
            .y_raw
            .iter()
            .map(|&v| (v - self.y_mean) / self.y_std)
            .collect();
        let data_fit = vecops::dot(&z, self.weights());
        let log_det = (0..n).map(|i| self.factor.row(i)[i].ln()).sum::<f64>() * 2.0;
        -0.5 * data_fit - 0.5 * log_det - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
    }

    /// Target standardization `(y_mean, y_std)` this model predicts in.
    #[cfg(test)]
    pub(crate) fn standardization(&self) -> (f64, f64) {
        (self.y_mean, self.y_std)
    }

    /// Condition on additional observations, keeping hyperparameters
    /// fixed (the BO inner loop re-fits hyperparameters only every few
    /// iterations; this is the cheap between-refit update).
    ///
    /// The target standardization is **frozen**: `noise_var` was fitted
    /// in the original `y_std` scale, so re-deriving the standardization
    /// from the grown target vector would silently re-scale the noise in
    /// original units. This rebuilds the factorization from scratch —
    /// it is the O(n³) reference path that [`GpModel::condition`] must
    /// match — and the result owns its whole factor as its prefix.
    pub fn with_added(&self, x_new: &[Vec<f64>], y_new: &[f64]) -> Result<GpModel> {
        if x_new.len() != y_new.len() {
            return Err(GpError::BadData("with_added: length mismatch".into()));
        }
        let mut x = self.train_x();
        x.extend(x_new.iter().cloned());
        let mut y = self.y_raw.clone();
        y.extend_from_slice(y_new);
        GpModel::with_standardization(
            self.kernel().clone(),
            self.noise_var(),
            x,
            y,
            self.y_mean,
            self.y_std,
        )
    }

    /// Incremental version of [`GpModel::with_added`]: grows the factor
    /// by the `k` new rows (`GpModel::extend_factor`, O(k·n²), the
    /// arithmetic of [`Cholesky::extend`]) and reuses the frozen
    /// standardization (`GpModel::condition_on`).
    pub fn condition(&self, x_new: &[Vec<f64>], y_new: &[f64]) -> Result<GpModel> {
        if x_new.len() != y_new.len() {
            return Err(GpError::BadData("condition: length mismatch".into()));
        }
        if x_new.is_empty() {
            return Ok(self.clone());
        }
        let xs: Vec<&[f64]> = x_new.iter().map(Vec::as_slice).collect();
        self.check_update(&xs, y_new)?;
        let pres: Vec<PrefixSolve> = xs.iter().map(|x| self.prefix_solve(x)).collect();
        let ext = self.extension(&xs, &pres)?;
        self.condition_on(&ext, y_new)
    }

    /// This model's factor grown by input `x_new`, given its
    /// [`PrefixSolve`]. The result depends only on the factor and the
    /// input, so one extension serves every model with the same
    /// [`GpModel::factor_id`] that observes `x_new`.
    ///
    /// Falls back to the from-scratch rebuild of [`GpModel::with_added`]
    /// when the extension is not numerically positive definite (e.g. a
    /// new point that duplicates a training point while the old factor
    /// carries jitter the new block can't absorb) — correctness never
    /// depends on the fast path. The rebuilt factor owns its rows; it is
    /// still shared by every model conditioned through this extension.
    pub(crate) fn extend_factor(
        &self,
        x_new: &[f64],
        pre: &PrefixSolve,
    ) -> Result<FactorExtension> {
        self.check_update(&[x_new], &[])?;
        if pre.prefix != self.prefix_id() {
            return self.extension(&[x_new], &[self.prefix_solve(x_new)]);
        }
        self.extension(&[x_new], std::slice::from_ref(pre))
    }

    fn extension(&self, xs: &[&[f64]], pres: &[PrefixSolve]) -> Result<FactorExtension> {
        let (factor, from) = match self.factor.extended(xs, pres) {
            Some(f) => (f, self.n()),
            None => {
                let mut x = self.train_x();
                x.extend(xs.iter().map(|p| p.to_vec()));
                let f = Factor::build(self.kernel().clone(), self.noise_var(), &x)?;
                (f, 0)
            }
        };
        Ok(FactorExtension {
            parent: self.factor_id(),
            factor: Arc::new(factor),
            from,
        })
    }

    /// Condition on observations `y_new` at the inputs `ext` grew this
    /// model's factor by: append the targets and forward-solve their new
    /// rows of `u` (all rows after a rebuild). The weights `α` wait for
    /// the new model's first read. Bit-identical to
    /// [`GpModel::condition`]; an extension of another factor is
    /// rejected.
    pub(crate) fn condition_on(&self, ext: &FactorExtension, y_new: &[f64]) -> Result<GpModel> {
        if ext.parent != self.factor_id() || self.n() + y_new.len() != ext.factor.n() {
            return Err(GpError::BadData(
                "condition_on: extension of another factor".into(),
            ));
        }
        self.check_update(&[], y_new)?;
        let mut y_raw = Vec::with_capacity(ext.factor.n());
        y_raw.extend_from_slice(&self.y_raw);
        y_raw.extend_from_slice(y_new);
        if ext.rebuilt() {
            check_standardization(self.y_mean, self.y_std)?;
            return Self::on_factor(Arc::clone(&ext.factor), y_raw, self.y_mean, self.y_std);
        }
        // Only the new rows' standardized targets: rows before
        // `ext.from` are already solved in `u`.
        let n = ext.factor.n();
        let mut z = vec![0.0; n];
        for (zi, &v) in z.iter_mut().zip(&y_raw).skip(ext.from) {
            *zi = (v - self.y_mean) / self.y_std;
        }
        let mut u = Vec::with_capacity(n);
        u.extend_from_slice(&self.u);
        u.resize(n, 0.0);
        ext.factor.forward(ext.from, n, &z, &mut u)?;
        Ok(GpModel {
            factor: Arc::clone(&ext.factor),
            y_raw,
            y_mean: self.y_mean,
            y_std: self.y_std,
            u,
            alpha: OnceLock::new(),
        })
    }

    fn check_update(&self, xs: &[&[f64]], ys: &[f64]) -> Result<()> {
        if xs.iter().any(|p| p.len() != self.dim()) {
            return Err(GpError::BadData(format!(
                "condition: input dim != kernel dim {}",
                self.dim()
            )));
        }
        if ys.iter().any(|v| !v.is_finite()) {
            return Err(GpError::BadData("condition: non-finite target".into()));
        }
        Ok(())
    }
}

/// Reject a standardization no model can predict in.
fn check_standardization(y_mean: f64, y_std: f64) -> Result<()> {
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // also rejects NaN
    if !(y_std > 0.0) || !y_mean.is_finite() {
        return Err(GpError::BadData(format!(
            "bad standardization: mean {y_mean}, std {y_std}"
        )));
    }
    Ok(())
}

/// Standardization `(mean, std)` derived from a target vector; the std
/// falls back to 1.0 for (near-)constant targets.
pub(crate) fn standardization_of(y: &[f64]) -> (f64, f64) {
    let y_mean = vecops::mean(y);
    let centered: Vec<f64> = y.iter().map(|&v| v - y_mean).collect();
    let var = vecops::dot(&centered, &centered) / y.len().max(1) as f64;
    let y_std = if var > 1e-24 { var.sqrt() } else { 1.0 };
    (y_mean, y_std)
}

impl GpPosterior {
    /// Number of query points.
    pub(crate) fn len(&self) -> usize {
        self.mean.len()
    }

    /// Draw `n_samples` joint samples; returns an `n_samples x q` matrix.
    #[cfg(test)]
    pub(crate) fn sample<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
        n_samples: usize,
    ) -> Result<Mat> {
        let q = self.len();
        let mut cov = self.cov.clone();
        // Sampling jitter: tiny relative to outcome scales, stabilizes
        // the factorization of nearly singular posteriors.
        cov.add_diag(1e-12 + 1e-9 * mean_diag(&self.cov));
        let chol = Cholesky::decompose_jittered(&cov)?;
        let mut out = Mat::zeros(n_samples, q);
        for s in 0..n_samples {
            let eps = eva_stats::rng::standard_normal_vec(rng, q);
            let correlated = chol.l().matvec(&eps)?;
            for j in 0..q {
                out[(s, j)] = self.mean[j] + correlated[j];
            }
        }
        Ok(out)
    }

    /// Draw joint samples using *given* standard-normal inputs (common
    /// random numbers for acquisition-function comparison). `eps` must be
    /// `n_samples x q`.
    pub fn sample_with(&self, eps: &Mat) -> Result<Mat> {
        let q = self.len();
        if eps.cols() != q {
            return Err(GpError::BadData(format!(
                "sample_with: eps has {} cols, posterior has {q} points",
                eps.cols()
            )));
        }
        let mut cov = self.cov.clone();
        cov.add_diag(1e-12 + 1e-9 * mean_diag(&self.cov));
        let chol = Cholesky::decompose_jittered(&cov)?;
        let mut out = Mat::zeros(eps.rows(), q);
        for s in 0..eps.rows() {
            let correlated = chol.l().matvec(eps.row(s))?;
            for j in 0..q {
                out[(s, j)] = self.mean[j] + correlated[j];
            }
        }
        Ok(out)
    }
}

fn mean_diag(m: &Mat) -> f64 {
    let n = m.rows().max(1);
    (0..m.rows()).map(|i| m[(i, i)].abs()).sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gp::KernelType;
    use eva_stats::rng::seeded;
    use rand::Rng;

    thread_local! {
        /// Weight back-substitutions run on this test's thread.
        pub(super) static WEIGHT_SOLVES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    fn toy_model() -> GpModel {
        let x: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 * 0.4]).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 2.0).sin() * 3.0 + 5.0).collect();
        let kernel = Kernel::isotropic(KernelType::Matern52, 1, 0.6, 1.0);
        GpModel::new(kernel, 1e-4, x, y).unwrap()
    }

    #[test]
    fn interpolates_training_points_with_small_noise() {
        let m = toy_model();
        for (xi, &yi) in m.train_x().to_vec().iter().zip(m.train_y().to_vec().iter()) {
            let (mean, var) = m.predict(xi);
            assert!((mean - yi).abs() < 0.05, "mean {mean} vs {yi}");
            assert!(var < 0.05, "var {var}");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let m = toy_model();
        let (_, var_near) = m.predict(&[1.0]);
        let (_, var_far) = m.predict(&[10.0]);
        assert!(var_far > var_near * 10.0, "{var_far} vs {var_near}");
        // Far from data, mean reverts toward the target mean.
        let (mean_far, _) = m.predict(&[100.0]);
        let avg = eva_linalg::vecops::mean(m.train_y());
        assert!((mean_far - avg).abs() < 0.3);
    }

    #[test]
    fn posterior_diag_matches_pointwise_variance() {
        let m = toy_model();
        let qs: Vec<Vec<f64>> = vec![vec![0.3], vec![1.7], vec![5.0]];
        let post = m.posterior(&qs).unwrap();
        for (j, q) in qs.iter().enumerate() {
            let (mean, var) = m.predict(q);
            assert!((post.mean[j] - mean).abs() < 1e-9);
            assert!((post.cov[(j, j)] - var).abs() < 1e-8);
        }
    }

    #[test]
    fn posterior_samples_match_moments() {
        let m = toy_model();
        let qs: Vec<Vec<f64>> = vec![vec![0.5], vec![2.5]];
        let post = m.posterior(&qs).unwrap();
        let samples = post.sample(&mut seeded(3), 20_000).unwrap();
        for j in 0..2 {
            let col: Vec<f64> = (0..samples.rows()).map(|s| samples[(s, j)]).collect();
            let mean = eva_linalg::vecops::mean(&col);
            let var = col.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / col.len() as f64;
            assert!((mean - post.mean[j]).abs() < 0.05, "mean j={j}");
            assert!(
                (var - post.cov[(j, j)]).abs() < 0.1 * post.cov[(j, j)].max(0.01),
                "var j={j}: {var} vs {}",
                post.cov[(j, j)]
            );
        }
    }

    #[test]
    fn sample_with_is_deterministic_given_eps() {
        let m = toy_model();
        let qs: Vec<Vec<f64>> = vec![vec![0.5], vec![2.5]];
        let post = m.posterior(&qs).unwrap();
        let eps = Mat::from_rows(&[&[0.3, -1.2], &[0.0, 0.7]]);
        let a = post.sample_with(&eps).unwrap();
        let b = post.sample_with(&eps).unwrap();
        assert!(a.max_abs_diff(&b) < 1e-15);
    }

    #[test]
    fn standardization_is_scale_invariant() {
        // Fitting y and 1000*y + 7 must give identical standardized
        // structure -> R² of predictions identical.
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.3]).collect();
        let y1: Vec<f64> = x.iter().map(|p| p[0].cos()).collect();
        let y2: Vec<f64> = y1.iter().map(|&v| 1000.0 * v + 7.0).collect();
        let kernel = Kernel::isotropic(KernelType::Rbf, 1, 0.8, 1.0);
        let m1 = GpModel::new(kernel.clone(), 1e-4, x.clone(), y1).unwrap();
        let m2 = GpModel::new(kernel, 1e-4, x, y2).unwrap();
        let q = vec![1.25];
        let (a, va) = m1.predict(&q);
        let (b, vb) = m2.predict(&q);
        assert!((b - (1000.0 * a + 7.0)).abs() < 1e-6);
        assert!((vb - 1e6 * va).abs() < 1e-3);
    }

    #[test]
    fn observation_noise_is_pinned_across_updates() {
        // Regression: with_added used to re-standardize targets on every
        // update, so noise_var (fitted in the old standardized units)
        // silently drifted in original units as y_std moved. Feed updates
        // whose targets massively widen the spread and pin the noise.
        let m = toy_model();
        let pinned = m.observation_noise();
        let (mean0, std0) = m.standardization();
        let m2 = m.with_added(&[vec![4.1]], &[250.0]).unwrap();
        let m3 = m2.with_added(&[vec![4.3]], &[-300.0]).unwrap();
        assert_eq!(m3.observation_noise(), pinned);
        assert_eq!(m3.standardization(), (mean0, std0));
        let m4 = m
            .condition(&[vec![4.1], vec![4.3]], &[250.0, -300.0])
            .unwrap();
        assert_eq!(m4.observation_noise(), pinned);
    }

    #[test]
    fn condition_matches_from_scratch_rebuild() {
        let m = toy_model();
        let x_new = vec![vec![0.9], vec![2.1], vec![3.3]];
        let y_new = vec![4.2, 6.8, 5.1];
        let fast = m.condition(&x_new, &y_new).unwrap();
        let slow = m.with_added(&x_new, &y_new).unwrap();
        for q in [vec![0.0], vec![1.5], vec![2.9], vec![8.0]] {
            let (mf, vf) = fast.predict(&q);
            let (ms, vs) = slow.predict(&q);
            assert!((mf - ms).abs() < 1e-8, "mean {mf} vs {ms} at {q:?}");
            assert!((vf - vs).abs() < 1e-8, "var {vf} vs {vs} at {q:?}");
        }
        assert!((fast.log_marginal_likelihood() - slow.log_marginal_likelihood()).abs() < 1e-8);
    }

    #[test]
    fn condition_falls_back_on_degenerate_updates() {
        // Conditioning on an exact duplicate of a training point is the
        // worst case for the Schur complement; the result must still be
        // usable (fast path or fallback, transparently).
        let m = toy_model();
        let dup = m.train_x()[3].clone();
        let m2 = m
            .condition(std::slice::from_ref(&dup), &[m.train_y()[3]])
            .unwrap();
        let (mean, var) = m2.predict(&dup);
        assert!(mean.is_finite() && var.is_finite());
        assert!(var >= 0.0);
    }

    #[test]
    fn condition_rejects_bad_inputs() {
        let m = toy_model();
        assert!(m.condition(&[vec![1.0]], &[1.0, 2.0]).is_err());
        assert!(m.condition(&[vec![1.0, 2.0]], &[1.0]).is_err());
        assert!(m.condition(&[vec![1.0]], &[f64::NAN]).is_err());
        // Empty update is the identity.
        let same = m.condition(&[], &[]).unwrap();
        assert_eq!(same.n(), m.n());
    }

    #[test]
    fn with_added_shrinks_uncertainty() {
        let m = toy_model();
        let q = vec![5.0];
        let (_, var_before) = m.predict(&q);
        let m2 = m.with_added(std::slice::from_ref(&q), &[4.0]).unwrap();
        let (mean_after, var_after) = m2.predict(&q);
        assert!(var_after < var_before / 10.0);
        assert!((mean_after - 4.0).abs() < 0.1);
    }

    #[test]
    fn one_factor_solve_serves_every_model_on_the_factor() {
        let m = toy_model();
        let y2: Vec<f64> = m.train_y().iter().map(|v| v * 0.5 - 1.0).collect();
        let sibling = m.with_targets(y2).unwrap();
        assert!(sibling.shares_factor(&m));
        let other = m.condition(&[vec![1.1]], &[4.0]).unwrap();
        assert!(!other.shares_factor(&m) && other.shares_prefix(&m));
        for q in (0..7).map(|i| vec![i as f64 * 0.55 - 0.4]) {
            let pre = m.prefix_solve(&q);
            let solve = m.factor_solve(&q, &pre);
            for model in [&m, &sibling, &other] {
                // A solve of another factor is recomputed, not misused.
                let (mean, var) = model.predict(&q);
                let (mean_s, var_s) = model.predict_with(&q, &pre, &solve);
                assert_eq!(mean.to_bits(), mean_s.to_bits(), "mean at {q:?}");
                assert_eq!(var.to_bits(), var_s.to_bits(), "var at {q:?}");
            }
        }
    }

    #[test]
    fn with_targets_matches_fresh_build() {
        let m = toy_model();
        let y2: Vec<f64> = m.train_x().iter().map(|p| p[0] * 0.7 - 2.0).collect();
        let fast = m.with_targets(y2.clone()).unwrap();
        let slow = GpModel::new(
            m.kernel().clone(),
            m.noise_var(),
            m.train_x().to_vec(),
            y2.clone(),
        )
        .unwrap();
        assert_eq!(fast.standardization(), slow.standardization());
        for q in [vec![0.1], vec![1.3], vec![2.9]] {
            let (mf, vf) = fast.predict(&q);
            let (ms, vs) = slow.predict(&q);
            assert_eq!(mf.to_bits(), ms.to_bits(), "mean at {q:?}");
            assert_eq!(vf.to_bits(), vs.to_bits(), "var at {q:?}");
        }
        // Length mismatch and non-finite targets are rejected.
        assert!(m.with_targets(vec![1.0]).is_err());
        let mut bad = y2;
        bad[0] = f64::NAN;
        assert!(m.with_targets(bad).is_err());
    }

    #[test]
    fn log_marginal_likelihood_prefers_good_lengthscale() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.25]).collect();
        let y: Vec<f64> = x.iter().map(|p| p[0].sin()).collect();
        let lml = |ls: f64| {
            let kernel = Kernel::isotropic(KernelType::Rbf, 1, ls, 1.0);
            GpModel::new(kernel, 1e-4, x.clone(), y.clone())
                .unwrap()
                .log_marginal_likelihood()
        };
        // A sensible lengthscale beats badly mis-specified ones.
        assert!(lml(1.0) > lml(0.01));
        assert!(lml(1.0) > lml(100.0));
    }

    #[test]
    fn rejects_bad_inputs() {
        let kernel = Kernel::isotropic(KernelType::Rbf, 1, 1.0, 1.0);
        assert!(GpModel::new(kernel.clone(), 1e-4, vec![], vec![]).is_err());
        assert!(GpModel::new(kernel.clone(), 1e-4, vec![vec![0.0]], vec![1.0, 2.0]).is_err());
        assert!(GpModel::new(kernel.clone(), 0.0, vec![vec![0.0]], vec![1.0]).is_err());
        assert!(GpModel::new(kernel, 1e-4, vec![vec![0.0, 1.0]], vec![1.0]).is_err());
    }

    #[test]
    fn constant_targets_are_handled() {
        let x: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let y = vec![3.0; 5];
        let kernel = Kernel::isotropic(KernelType::Matern32, 1, 1.0, 1.0);
        let m = GpModel::new(kernel, 1e-4, x, y).unwrap();
        let (mean, _) = m.predict(&[2.5]);
        assert!((mean - 3.0).abs() < 1e-6);
    }

    /// The dense representation the packed, prefix-sharing model
    /// replaced — every model a full copy of its inputs and `n × n`
    /// factor, conditioned through [`Cholesky::extend`] — kept as the
    /// bit-identity oracle.
    #[derive(Clone)]
    struct DenseOracle {
        kernel: Kernel,
        noise_var: f64,
        x: Vec<Vec<f64>>,
        y_raw: Vec<f64>,
        y_mean: f64,
        y_std: f64,
        chol: Cholesky,
        alpha: Vec<f64>,
    }

    impl DenseOracle {
        fn new(kernel: Kernel, noise_var: f64, x: Vec<Vec<f64>>, y: Vec<f64>) -> Self {
            let (y_mean, y_std) = standardization_of(&y);
            Self::build(kernel, noise_var, x, y, y_mean, y_std)
        }

        fn build(
            kernel: Kernel,
            noise_var: f64,
            x: Vec<Vec<f64>>,
            y: Vec<f64>,
            y_mean: f64,
            y_std: f64,
        ) -> Self {
            let z: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();
            let mut k = kernel.matrix(&x);
            k.add_diag(noise_var);
            let chol = Cholesky::decompose_jittered(&k).unwrap();
            let alpha = chol.solve(&z).unwrap();
            DenseOracle {
                kernel,
                noise_var,
                x,
                y_raw: y,
                y_mean,
                y_std,
                chol,
                alpha,
            }
        }

        fn with_targets(&self, y: Vec<f64>) -> Self {
            let (y_mean, y_std) = standardization_of(&y);
            let z: Vec<f64> = y.iter().map(|&v| (v - y_mean) / y_std).collect();
            let alpha = self.chol.solve(&z).unwrap();
            DenseOracle {
                y_raw: y,
                y_mean,
                y_std,
                alpha,
                ..self.clone()
            }
        }

        fn with_added(&self, x_new: &[f64], y_new: f64) -> Self {
            let mut x = self.x.clone();
            x.push(x_new.to_vec());
            let mut y = self.y_raw.clone();
            y.push(y_new);
            let (kernel, noise) = (self.kernel.clone(), self.noise_var);
            Self::build(kernel, noise, x, y, self.y_mean, self.y_std)
        }

        /// Conditioning and whether it fell back to the rebuild.
        fn condition(&self, x_new: &[f64], y_new: f64) -> (Self, bool) {
            let xs = [x_new.to_vec()];
            let cross = self.kernel.cross_matrix(&self.x, &xs);
            let mut corner = self.kernel.matrix(&xs);
            corner.add_diag(self.noise_var);
            let chol = match self.chol.extend(&cross, &corner) {
                Ok(c) => c,
                Err(_) => return (self.with_added(x_new, y_new), true),
            };
            let mut x = self.x.clone();
            x.push(x_new.to_vec());
            let mut y = self.y_raw.clone();
            y.push(y_new);
            let z: Vec<f64> = y.iter().map(|&v| (v - self.y_mean) / self.y_std).collect();
            let alpha = chol.solve(&z).unwrap();
            let next = DenseOracle {
                x,
                y_raw: y,
                chol,
                alpha,
                ..self.clone()
            };
            (next, false)
        }

        fn predict(&self, x: &[f64]) -> (f64, f64) {
            let kx: Vec<f64> = self.x.iter().map(|xi| self.kernel.eval(xi, x)).collect();
            let mean_z = vecops::dot(&kx, &self.alpha);
            let v = self.chol.quad_form(&kx).unwrap_or(0.0);
            let var_z = (self.kernel.eval(x, x) - v).max(0.0);
            (
                self.y_mean + self.y_std * mean_z,
                self.y_std * self.y_std * var_z,
            )
        }
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(u, v)| u.to_bits() == v.to_bits())
    }

    fn assert_matches(model: &GpModel, oracle: &DenseOracle, queries: &[Vec<f64>], what: &str) {
        assert!(same_bits(model.weights(), &oracle.alpha), "{what}: alpha");
        assert_eq!(model.train_x(), oracle.x, "{what}: inputs");
        for q in queries {
            let (m, v) = oracle.predict(q);
            let direct = model.predict(q);
            let pre = model.prefix_solve(q);
            let shared = model.predict_with(q, &pre, &model.factor_solve(q, &pre));
            for (mm, vv) in [direct, shared] {
                assert_eq!(mm.to_bits(), m.to_bits(), "{what}: mean at {q:?}");
                assert_eq!(vv.to_bits(), v.to_bits(), "{what}: var at {q:?}");
            }
        }
    }

    /// A 3-d shared design of `n` points and targets for `cams` cameras.
    fn design(n: usize, cams: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut rng = seeded(seed);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let ys = (0..cams)
            .map(|c| {
                x.iter()
                    .map(|p| {
                        (p[0] * 3.0 + c as f64).sin() + p[1] * p[2] + rng.gen_range(-0.05..0.05)
                    })
                    .collect()
            })
            .collect();
        (x, ys)
    }

    use proptest::prelude::*;

    /// Memoized per-pass work, keyed like the outcome-model bank keys
    /// it: prefix solves by (prefix, input) and extensions by (factor,
    /// input).
    #[derive(Default)]
    struct PassMemo {
        prefix: HashMap<(usize, Vec<u64>), PrefixSolve>,
        extensions: HashMap<(usize, Vec<u64>), FactorExtension>,
    }

    impl PassMemo {
        fn extension(&mut self, model: &GpModel, x: &[f64]) -> FactorExtension {
            let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            let pre = self
                .prefix
                .entry((model.prefix_id(), bits.clone()))
                .or_insert_with(|| model.prefix_solve(x));
            self.extensions
                .entry((model.factor_id(), bits))
                .or_insert_with(|| model.extend_factor(x, pre).unwrap())
                .clone()
        }
    }

    use std::collections::HashMap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Cameras on one design, conditioned one point at a time
        /// through memoized prefix solves and factor extensions, stay
        /// bit-identical to dense per-camera models for up to 15
        /// updates. Cameras fed the same inputs share one factor `Arc`;
        /// a pair whose histories diverge stops sharing; a camera
        /// rebuilt mid-way owns its prefix and keeps conditioning.
        #[test]
        fn shared_factor_matches_dense_oracle(
            seed in 0u64..10_000,
            updates in 1usize..=15,
            family in 0usize..3,
            split_at in 0usize..15,
            rebuild_at in 0usize..15,
        ) {
            let family = [KernelType::Rbf, KernelType::Matern32, KernelType::Matern52][family];
            let kernel = Kernel::new(family, vec![0.4, 0.7, 1.3], 1.5);
            let (x, ys) = design(25, 6, seed);
            let base = GpModel::new(kernel.clone(), 1e-3, x.clone(), ys[0].clone()).unwrap();
            let dense0 = DenseOracle::new(kernel, 1e-3, x, ys[0].clone());
            let mut models: Vec<GpModel> =
                ys.iter().map(|y| base.with_targets(y.clone()).unwrap()).collect();
            let mut dense: Vec<DenseOracle> =
                ys.iter().map(|y| dense0.with_targets(y.clone())).collect();
            let mut rng = seeded(seed ^ 0x9e37);
            // A coarse query grid, so cameras often repeat a query.
            let grid = |rng: &mut rand::rngs::StdRng| -> Vec<f64> {
                (0..3).map(|_| rng.gen_range(0..4) as f64 / 3.0).collect()
            };
            let queries: Vec<Vec<f64>> = (0..4).map(|_| grid(&mut rng)).collect();
            for (c, (m, d)) in models.iter().zip(&dense).enumerate() {
                assert_matches(m, d, &queries, &format!("camera {c} initial"));
                prop_assert!(m.shares_factor(&models[0]));
            }
            for u in 0..updates {
                if u == rebuild_at {
                    // Camera 4 leaves the shared design (a fallback's
                    // outcome) and keeps conditioning on its own.
                    let (xr, yr) = (grid(&mut rng), rng.gen_range(-1.0..1.0));
                    models[4] = models[4].with_added(std::slice::from_ref(&xr), &[yr]).unwrap();
                    dense[4] = dense[4].with_added(&xr, yr);
                    prop_assert!(!models[4].shares_prefix(&models[0]));
                }
                // Cameras 0 and 1 always observe one input; 2 and 3 do
                // until `split_at`, then 3 observes another one.
                let pair = grid(&mut rng);
                let mut inputs: Vec<Vec<f64>> = (0..models.len()).map(|_| grid(&mut rng)).collect();
                inputs[1] = inputs[0].clone();
                inputs[3] = inputs[2].clone();
                if u >= split_at {
                    inputs[3] = pair;
                    if inputs[3] == inputs[2] {
                        inputs[3][0] += 0.5;
                    }
                }
                let mut memo = PassMemo::default();
                for c in 0..models.len() {
                    let yn = rng.gen_range(-1.0..1.0);
                    let ext = memo.extension(&models[c], &inputs[c]);
                    let next = models[c].condition_on(&ext, &[yn]).unwrap();
                    let (next_dense, fell_back) = dense[c].condition(&inputs[c], yn);
                    prop_assert_eq!(ext.rebuilt(), fell_back);
                    prop_assert!(!fell_back);
                    prop_assert!(next.shares_prefix(&models[c]));
                    models[c] = next;
                    dense[c] = next_dense;
                }
                for (c, (m, d)) in models.iter().zip(&dense).enumerate() {
                    assert_matches(m, d, &queries, &format!("camera {c} after update {u}"));
                }
                prop_assert!(models[0].shares_factor(&models[1]));
                prop_assert_eq!(models[2].shares_factor(&models[3]), u < split_at);
            }
            prop_assert!(models[0].shares_prefix(&models[5]));
            prop_assert!(!models[0].shares_factor(&models[5]));
        }
    }

    fn weight_solves() -> usize {
        WEIGHT_SOLVES.with(|n| n.get())
    }

    #[test]
    fn conditioned_model_solves_its_weights_once_on_first_read() {
        let start = weight_solves();
        let mut m = toy_model();
        for k in 0..6 {
            let x = vec![0.25 + k as f64 * 0.6];
            m = m.condition(&[x], &[k as f64 * 0.5]).unwrap();
        }
        assert_eq!(
            weight_solves(),
            start,
            "building and conditioning solved weights"
        );
        let unread = m.clone();
        for q in [[0.4], [1.9], [7.0]] {
            m.predict(&q);
        }
        m.posterior(&[vec![0.4], vec![3.3]]).unwrap();
        m.log_marginal_likelihood();
        assert_eq!(weight_solves(), start + 1, "reads of one model");
        assert!(!m.solve_weights());
        // A clone taken after the read carries the weights; one taken
        // before solves its own, once.
        assert!(!m.clone().solve_weights());
        assert!(unread.solve_weights());
        assert!(!unread.solve_weights());
        assert_eq!(weight_solves(), start + 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A chain of single-point conditionings whose weights are first
        /// read at generation `read_at` (through the model and a sibling
        /// on the same factor), with clones taken before and after that
        /// read, and every generation read again only once the chain is
        /// finished: each one matches the dense oracle bit for bit.
        #[test]
        fn lazy_weights_match_dense_oracle_whenever_first_read(
            seed in 0u64..10_000,
            gens in 1usize..=12,
            read_at in 0usize..=12,
            family in 0usize..3,
        ) {
            let family = [KernelType::Rbf, KernelType::Matern32, KernelType::Matern52][family];
            let kernel = Kernel::new(family, vec![0.5, 0.8, 1.1], 1.2);
            let (x, ys) = design(20, 2, seed);
            let mut model = GpModel::new(kernel.clone(), 1e-3, x.clone(), ys[0].clone()).unwrap();
            let mut sibling = model.with_targets(ys[1].clone()).unwrap();
            let mut dense = DenseOracle::new(kernel, 1e-3, x, ys[0].clone());
            let mut dense_sibling = dense.with_targets(ys[1].clone());
            let mut rng = seeded(seed ^ 0x51ab);
            let queries: Vec<Vec<f64>> = (0..3)
                .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            let start = weight_solves();
            // (model, oracle, label) of every generation and clone.
            let mut kept: Vec<(GpModel, DenseOracle, String)> = Vec::new();
            for g in 0..=gens {
                if g == read_at {
                    let before = model.clone();
                    prop_assert_eq!(weight_solves(), start);
                    assert_matches(&model, &dense, &queries, &format!("generation {g}"));
                    assert_matches(&sibling, &dense_sibling, &queries, &format!("sibling {g}"));
                    prop_assert_eq!(weight_solves(), start + 2);
                    // The clone kept below is taken after the read.
                    prop_assert!(!model.clone().solve_weights());
                    prop_assert!(before.solve_weights());
                    kept.push((before, dense.clone(), format!("clone before read {g}")));
                }
                kept.push((model.clone(), dense.clone(), format!("generation {g}")));
                kept.push((sibling.clone(), dense_sibling.clone(), format!("sibling {g}")));
                if g == gens {
                    break;
                }
                let xn: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
                let (yn, yn_sibling) = (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                let ext = model.extend_factor(&xn, &model.prefix_solve(&xn)).unwrap();
                model = model.condition_on(&ext, &[yn]).unwrap();
                sibling = sibling.condition_on(&ext, &[yn_sibling]).unwrap();
                let (next, fell_back) = dense.condition(&xn, yn);
                prop_assert_eq!(ext.rebuilt(), fell_back);
                dense = next;
                dense_sibling = dense_sibling.condition(&xn, yn_sibling).0;
            }
            let read_before_end = if read_at <= gens { 3 } else { 0 };
            prop_assert_eq!(weight_solves(), start + read_before_end);
            for (m, d, what) in kept.iter().rev() {
                assert_matches(m, d, &queries, what);
            }
        }
    }

    #[test]
    fn duplicate_point_falls_back_like_the_oracle() {
        // A near-noiseless smooth kernel makes the Gram matrix so
        // ill-conditioned that re-observing a training input leaves a
        // non-positive Schur complement: conditioning must rebuild from
        // scratch (and leave the shared prefix), exactly like the dense
        // path did. The rebuild depends only on the inputs, so two
        // models conditioned through one extension share the rebuilt
        // factor.
        let kernel = Kernel::isotropic(KernelType::Rbf, 1, 1.0, 1.0);
        let x: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 5.0).sin()).collect();
        let y2: Vec<f64> = y.iter().map(|v| v * 2.0 + 0.3).collect();
        let base = GpModel::new(kernel.clone(), 1e-300, x.clone(), y.clone()).unwrap();
        let sibling = base.with_targets(y2.clone()).unwrap();
        let dense = DenseOracle::new(kernel, 1e-300, x.clone(), y.clone());
        let dense_sibling = dense.with_targets(y2);
        let queries = [vec![0.2], vec![0.5], vec![0.95]];
        let mut rebuilds = 0;
        for (dup, &y_dup) in x.iter().zip(&y) {
            let ext = base.extend_factor(dup, &base.prefix_solve(dup)).unwrap();
            let m2 = base.condition_on(&ext, &[y_dup]).unwrap();
            let s2 = sibling.condition_on(&ext, &[y_dup + 1.0]).unwrap();
            let (d2, rebuilt) = dense.condition(dup, y_dup);
            let (ds2, _) = dense_sibling.condition(dup, y_dup + 1.0);
            assert_eq!(ext.rebuilt(), rebuilt, "at {dup:?}");
            assert_eq!(m2.shares_prefix(&base), !rebuilt, "at {dup:?}");
            assert!(m2.shares_factor(&s2), "at {dup:?}");
            assert_matches(&m2, &d2, &queries, &format!("duplicate {dup:?}"));
            assert_matches(&s2, &ds2, &queries, &format!("sibling, duplicate {dup:?}"));
            if rebuilt {
                assert_eq!(m2.prefix_len(), m2.n());
                rebuilds += 1;
            }
        }
        assert!(rebuilds > 0, "no duplicate forced the rebuild");
        // An extension only conditions models of its parent factor.
        let ext = base
            .extend_factor(&x[0], &base.prefix_solve(&x[0]))
            .unwrap();
        let other = base.condition(&[vec![0.33]], &[0.1]).unwrap();
        assert!(other.condition_on(&ext, &[0.0]).is_err());
    }
}
