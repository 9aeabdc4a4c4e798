//! Pairwise-comparison preference learning with Gaussian processes.
//!
//! Implements Sec. 4.2 of the PaMO paper:
//!
//! * [`dataset`] — the preference set `P_V = {y⁽¹⁾ ≻ y⁽²⁾}` over distinct
//!   outcome vectors, plus the decision-maker oracle abstraction,
//! * [`model`] — the Chu & Ghahramani (ICML'05) preference GP: probit
//!   pairwise likelihood (paper Eq. 9), Laplace approximation via damped
//!   Newton, predictive posterior over latent utilities `g(y)`,
//! * [`eubo`] — the Expected Utility of the Best Option acquisition
//!   (paper Eq. 11, Lin et al. AISTATS'22) that picks the next
//!   comparison pair, and the full preference-elicitation loop
//!   (Algorithm 2, lines 6-11).

pub mod dataset;
pub mod eubo;
pub mod model;

pub use dataset::{DecisionMaker, FunctionOracle, NoisyOracle, PreferenceDataset};
pub use eubo::{elicit_preferences, ElicitConfig};
pub use model::{PrefError, PreferenceModel};
