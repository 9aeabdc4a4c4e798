//! Dense linear-algebra kernels for the PaMO reproduction.
//!
//! The Gaussian-process stack (`pamo_core::gp`, `pamo_core::prefgp`)
//! needs exact dense factorizations on kernel matrices of a few hundred
//! to a few thousand rows. Rather than pulling a full BLAS/LAPACK binding, this crate
//! implements the handful of kernels the system actually uses:
//!
//! * [`Mat`] — a row-major dense matrix with cache-blocked
//!   multiplication,
//! * [`Cholesky`] — SPD factorization with automatic jitter escalation
//!   (kernel matrices are frequently near-singular),
//! * [`Qr`] — Householder QR for least squares (polynomial regression),
//! * triangular/linear solves, log-determinants and the small vector
//!   helpers in [`vecops`].
//!
//! All storage is `f64`; the matrices involved are small enough that
//! mixed precision buys nothing while the GP math is sensitive to
//! round-off.

pub mod cholesky;
pub mod matrix;
pub mod qr;
mod solve;
pub mod vecops;

pub use cholesky::Cholesky;
pub use matrix::Mat;
pub use qr::Qr;

/// Error type for factorization and solve failures.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix was expected to be square but is not.
    NotSquare { rows: usize, cols: usize },
    /// Dimensions of two operands do not agree.
    DimMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        left: (usize, usize),
        right: (usize, usize),
    },
    /// Cholesky failed even after the maximum jitter was added.
    NotPositiveDefinite { pivot: usize, value: f64 },
    /// A factorization or solve hit an (effectively) zero pivot:
    /// the matrix is singular (or rank-deficient).
    Singular { pivot: usize },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
            LinalgError::DimMismatch { op, left, right } => write!(
                f,
                "dimension mismatch in {op}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite (pivot {pivot} = {value:e})"
            ),
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular (zero pivot at {pivot})")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used across the crate.
pub(crate) type Result<T> = std::result::Result<T, LinalgError>;
