//! Gaussian-process regression, from scratch, for the PaMO reproduction.
//!
//! The paper surrogates every outcome function (latency, accuracy,
//! bandwidth, computation, energy — Sec. 3) with a GP trained on
//! profiling data (Algorithm 2, step 1) and refits it as new
//! observations arrive during Bayesian optimization. This crate provides
//! the exact-inference machinery BoTorch supplied in the original:
//!
//! * [`kernel`] — RBF and Matérn covariance functions with ARD
//!   lengthscales,
//! * [`model`] — exact GP posterior (Cholesky), predictive mean and
//!   variance, joint posteriors and posterior sampling for Monte-Carlo
//!   acquisition functions,
//! * [`fit`] — marginal-likelihood hyperparameter optimization via
//!   multi-start Nelder-Mead on log-parameters.

pub mod fit;
pub mod kernel;
pub mod model;
pub mod poly;

pub use fit::{fit_gp, theta_of, FitConfig};
pub use kernel::{Kernel, KernelType};
pub use model::{FactorSolve, GpModel, GpPosterior, PrefixSolve};
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

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, GpError>;
