//! Derivative-free optimizers for the PaMO reproduction.
//!
//! Two consumers drive the feature set:
//!
//! * `eva-gp` maximizes GP log-marginal likelihood over a handful of
//!   kernel hyperparameters → `nelder_mead` with [`multi_start`],
//! * `eva-baselines`' FACT runs block coordinate descent over discrete
//!   per-stream knobs → [`discrete`] local search.
//!
//! Everything minimizes; wrap with a negation to maximize.

pub mod discrete;
pub mod nelder_mead;

pub use discrete::{coordinate_descent, DiscreteSpace};
pub use nelder_mead::{multi_start, NelderMeadOptions};
