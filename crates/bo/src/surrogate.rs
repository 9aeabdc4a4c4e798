//! The joint-sampling surrogate abstraction.
//!
//! Acquisition functions only need one capability from a model: draw
//! joint posterior samples of the (scalar) objective at a set of points.
//! A plain GP on the objective implements it directly; PaMO's composite
//! `g(f(x))` — outcome GPs pushed through the preference GP — implements
//! it in `pamo-core`. Both then share the same acquisition code, the
//! same driver, and the same common-random-number discipline.

use eva_linalg::Mat;

/// A model that can draw joint posterior samples of the objective.
pub trait SurrogateSampler {
    /// Draw `n_mc` joint samples at `xs`; returns an `n_mc x xs.len()`
    /// matrix. `seed` selects the common random numbers: calls with the
    /// same seed must reuse the same underlying randomness so that
    /// acquisition comparisons across candidate batches are low-variance.
    fn joint_samples(&self, xs: &[Vec<f64>], n_mc: usize, seed: u64) -> Mat;

    /// Posterior mean at a single point (used for final recommendation).
    fn posterior_mean(&self, x: &[f64]) -> f64;

    /// Announce the full point set the next [`joint_samples_indexed`]
    /// calls will index into (candidate pool plus baselines), letting
    /// implementations precompute one batched posterior instead of one
    /// per candidate. The default is a no-op — correctness never depends
    /// on preparation.
    ///
    /// [`joint_samples_indexed`]: SurrogateSampler::joint_samples_indexed
    fn prepare(&self, _xs: &[Vec<f64>], _n_mc: usize, _seed: u64) {}

    /// [`SurrogateSampler::joint_samples`] addressed by indices into a
    /// shared point set: column `k` of the result holds samples at
    /// `xs[idx[k]]`. The driver's candidate scan calls this with the
    /// same `xs` it passed to [`SurrogateSampler::prepare`], so batched
    /// implementations can slice a cached posterior instead of
    /// recomputing it. The default materializes the selection and
    /// delegates.
    fn joint_samples_indexed(&self, xs: &[Vec<f64>], idx: &[usize], n_mc: usize, seed: u64) -> Mat {
        let query: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();
        self.joint_samples(&query, n_mc, seed)
    }
}
