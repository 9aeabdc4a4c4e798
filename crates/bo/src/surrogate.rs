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
    /// same seed must reuse the same underlying randomness. The driver
    /// calls this once per BO iteration, with the candidate pool
    /// followed by the observed baselines, and scores every candidate
    /// batch of the iteration from the returned columns.
    fn joint_samples(&self, xs: &[Vec<f64>], n_mc: usize, seed: u64) -> Mat;

    /// Posterior mean at a single point (used for final recommendation).
    fn posterior_mean(&self, x: &[f64]) -> f64;
}
