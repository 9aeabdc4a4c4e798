//! Gaussian-process regression, from scratch, for the PaMO reproduction.
//!
//! The paper surrogates every outcome function (latency, accuracy,
//! bandwidth, computation, energy — Sec. 3) with a GP trained on
//! profiling data (Algorithm 2, step 1) and refits it as new
//! observations arrive during Bayesian optimization. This module
//! provides the exact-inference machinery BoTorch supplied in the
//! original:
//!
//! * [`Kernel`] — RBF and Matérn covariance functions with ARD
//!   lengthscales,
//! * [`GpModel`] — exact GP posterior (Cholesky), predictive mean and
//!   variance, joint posteriors and posterior sampling for Monte-Carlo
//!   acquisition functions,
//! * [`fit_gp`] — marginal-likelihood hyperparameter optimization via
//!   multi-start Nelder-Mead on log-parameters,
//! * [`PolyModel`] — the least-squares polynomial the outcome-model
//!   ablation compares the GP against.

mod fit;
mod kernel;
mod model;
mod nelder_mead;
mod poly;

pub(crate) use fit::theta_of;
pub use fit::{fit_gp, FitConfig};
pub use kernel::{Kernel, KernelType};
pub use model::GpModel;
pub(crate) use model::{FactorSolve, PrefixSolve};
pub use poly::PolyModel;

/// Errors produced by GP construction or prediction.
#[derive(Debug, Clone)]
pub enum GpError {
    /// Input/target sizes disagree or are empty.
    BadData(String),
    /// Underlying linear-algebra failure (non-PSD kernel matrix etc.).
    Linalg(eva_linalg::LinalgError),
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::BadData(msg) => write!(f, "bad GP data: {msg}"),
            GpError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for GpError {}

impl From<eva_linalg::LinalgError> for GpError {
    fn from(e: eva_linalg::LinalgError) -> Self {
        GpError::Linalg(e)
    }
}

/// Result alias for this module.
pub type Result<T> = std::result::Result<T, GpError>;
