//! The panic-free error layer for the end-to-end scheduler.
//!
//! Everything that can go wrong inside a PaMO decision — an infeasible
//! placement, a GP fit whose kernel matrix stays non-positive-definite
//! after the jitter ladder, a preference model that fails to converge —
//! surfaces here as a [`CoreError`] instead of a panic. The online loop
//! treats a failed epoch as *degraded service* (skip-and-log), never as
//! process death: a scheduler that aborts on a numerical hiccup is
//! strictly worse than one that serves the previous decision for one
//! more epoch.

use eva_gp::GpError;
use eva_prefgp::PrefError;
use eva_sched::GroupingError;

/// Any failure of the PaMO decision pipeline.
#[derive(Debug, Clone)]
pub enum CoreError {
    /// Algorithm 1 found no zero-jitter placement.
    Grouping(GroupingError),
    /// Outcome-model fitting or conditioning failed numerically (the
    /// Cholesky jitter ladder was exhausted, or the data was degenerate).
    OutcomeModel(GpError),
    /// Preference elicitation / Laplace fitting failed.
    Preference(PrefError),
    /// A benefit or outcome value came back NaN/Inf.
    NonFinite {
        /// Which quantity went non-finite.
        context: &'static str,
    },
    /// The profiling budget is below the minimum the GP fits need.
    InsufficientProfiling {
        /// Minimum samples per camera required.
        needed: usize,
        /// Samples per camera actually requested.
        got: usize,
    },
    /// A control-plane snapshot failed to decode (corrupt JSON or a
    /// missing/ill-typed field).
    Snapshot {
        /// Which part of the snapshot was malformed.
        context: &'static str,
    },
    /// No joint configuration the candidate pool tried has a zero-jitter
    /// placement: every camera at the cheapest knobs already overloads
    /// the servers.
    NoFeasibleConfig {
        /// Joint configurations tried.
        tried: usize,
    },
    /// A run entry point was called with inputs that break its
    /// preconditions (zero epochs, a non-positive epoch, a negative
    /// heartbeat, a fault plan sized for another deployment, or a
    /// decide config with a zero BO `n_init`, `batch` or `mc_samples`).
    InvalidInput {
        /// Which precondition failed.
        context: &'static str,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Grouping(e) => write!(f, "no zero-jitter placement: {e}"),
            CoreError::OutcomeModel(e) => write!(f, "outcome-model failure: {e}"),
            CoreError::Preference(e) => write!(f, "preference-model failure: {e}"),
            CoreError::NonFinite { context } => {
                write!(f, "non-finite value in {context}")
            }
            CoreError::InsufficientProfiling { needed, got } => {
                write!(
                    f,
                    "profiling budget too small: need at least {needed} samples per camera, got {got}"
                )
            }
            CoreError::Snapshot { context } => {
                write!(f, "malformed control-plane snapshot: {context}")
            }
            CoreError::NoFeasibleConfig { tried } => write!(
                f,
                "no zero-jitter placement for any of {tried} joint configurations tried"
            ),
            CoreError::InvalidInput { context } => write!(f, "invalid input: {context}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Grouping(e) => Some(e),
            CoreError::OutcomeModel(e) => Some(e),
            CoreError::Preference(e) => Some(e),
            CoreError::NonFinite { .. } => None,
            CoreError::InsufficientProfiling { .. } => None,
            CoreError::Snapshot { .. } => None,
            CoreError::NoFeasibleConfig { .. } => None,
            CoreError::InvalidInput { .. } => None,
        }
    }
}

/// `Err(InvalidInput { context })` unless `ok`.
pub(crate) fn require(ok: bool, context: &'static str) -> Result<(), CoreError> {
    if ok {
        Ok(())
    } else {
        Err(CoreError::InvalidInput { context })
    }
}

impl From<GroupingError> for CoreError {
    fn from(e: GroupingError) -> Self {
        CoreError::Grouping(e)
    }
}

impl From<eva_bo::BoError> for CoreError {
    fn from(e: eva_bo::BoError) -> Self {
        match e {
            eva_bo::BoError::InvalidInput { context } => CoreError::InvalidInput { context },
        }
    }
}

impl From<GpError> for CoreError {
    fn from(e: GpError) -> Self {
        CoreError::OutcomeModel(e)
    }
}

impl From<PrefError> for CoreError {
    fn from(e: PrefError) -> Self {
        CoreError::Preference(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = CoreError::from(GroupingError::NotEnoughServers {
            needed_at_least: 3,
            available: 2,
        });
        assert!(e.to_string().contains("zero-jitter"));
        assert!(std::error::Error::source(&e).is_some());
        let nf = CoreError::NonFinite { context: "benefit" };
        assert!(nf.to_string().contains("benefit"));
        assert!(std::error::Error::source(&nf).is_none());
        let ip = CoreError::InsufficientProfiling { needed: 4, got: 2 };
        assert!(ip.to_string().contains("at least 4"));
        assert!(ip.to_string().contains("got 2"));
        assert!(std::error::Error::source(&ip).is_none());
    }
}
