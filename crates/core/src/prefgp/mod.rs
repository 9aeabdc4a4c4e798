//! Pairwise-comparison preference learning with Gaussian processes.
//!
//! Implements Sec. 4.2 of the PaMO paper:
//!
//! * [`PreferenceDataset`] — the preference set `P_V = {y⁽¹⁾ ≻ y⁽²⁾}`
//!   over distinct outcome vectors, plus the [`DecisionMaker`] oracle
//!   abstraction,
//! * [`PreferenceModel`] — the Chu & Ghahramani (ICML'05) preference GP:
//!   probit pairwise likelihood (paper Eq. 9), Laplace approximation via
//!   damped Newton, predictive posterior over latent utilities `g(y)`,
//! * [`elicit_preferences`] — the Expected Utility of the Best Option
//!   acquisition (paper Eq. 11, Lin et al. AISTATS'22) that picks the
//!   next comparison pair, inside the full preference-elicitation loop
//!   (Algorithm 2, lines 6-11).

mod dataset;
mod eubo;
mod model;

pub use dataset::{DecisionMaker, FunctionOracle, PreferenceDataset};
pub use eubo::{elicit_preferences, ElicitConfig};
pub use model::{PrefError, PreferenceModel};
