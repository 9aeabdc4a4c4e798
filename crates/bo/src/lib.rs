//! Bayesian-optimization machinery: Monte-Carlo batch acquisition
//! functions and a pool-based BO driver.
//!
//! Implements Sec. 4.3 of the PaMO paper:
//!
//! * [`acquisition`] — the `qNEI` acquisition of Eq. 12 plus the
//!   ablation variants `qEI`, `qUCB`, `qSR` (Sec. 5.1 baselines), all
//!   evaluated on joint Monte-Carlo samples with common random numbers,
//! * [`surrogate`] — the joint-sampling abstraction that lets the same
//!   acquisitions run on a direct GP surrogate (tests, ablations) or on
//!   PaMO's composite `g(f(x))` model (outcome GPs composed with the
//!   preference GP; implemented in `pamo-core`),
//! * [`driver`] — Algorithm 2's optimization loop: initial design,
//!   greedy sequential batch selection over a discrete candidate pool,
//!   convergence on the `δ` threshold.

pub mod acquisition;
pub mod analytic;
pub mod driver;
pub mod surrogate;

pub use acquisition::AcqKind;
pub use analytic::{expected_improvement, probability_of_improvement, upper_confidence_bound};
pub use driver::{bo_maximize, BoConfig, BoResult};
pub use surrogate::{GpSurrogate, SurrogateSampler};
