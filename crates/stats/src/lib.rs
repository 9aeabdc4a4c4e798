//! Statistical primitives for the PaMO reproduction.
//!
//! * [`normal`] — standard-normal pdf/cdf and clipped-normal moments,
//!   needed by the probit preference likelihood (paper Eq. 9) and the
//!   composite sampler,
//! * [`rng`] — seeded RNG plumbing and Gaussian sampling (Box-Muller),
//! * [`design`] — Latin-hypercube initial designs for
//!   Bayesian-optimization warm starts,
//! * [`metrics`] — R², min-max normalization (paper Sec. 5.3 uses
//!   the coefficient of determination for outcome-model quality),
//! * [`weights`] — the classical fixed-weight schemes the paper contrasts
//!   against (Equal, Rank-Order-Centroid, Rank-Sum),
//! * [`running`] — Welford online moments for simulator accounting.

pub mod bootstrap;
pub mod design;
pub mod metrics;
pub mod normal;
pub mod rng;
pub mod running;
pub mod weights;

pub use bootstrap::{bootstrap_mean_ci, BootstrapCi};
pub use metrics::MinMaxNormalizer;
pub use normal::{norm_cdf, norm_pdf};
pub use running::RunningStats;
