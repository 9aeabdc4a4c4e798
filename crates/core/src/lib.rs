//! PaMO: the preference-aware multi-objective EVA scheduler.
//!
//! This crate composes the substrates into the paper's system
//! (Fig. 5's framework):
//!
//! * [`benefit`] — the hidden *true* preference function (Eq. 13),
//!   outcome normalization, the decision-maker oracle, and the
//!   normalized-benefit metric of the evaluation section,
//! * [`models`] — the outcome-model bank: one GP per (camera,
//!   objective), fitted on profiling data and updated online
//!   (Algorithm 2, lines 1-4 and 18),
//! * [`pool`] — the discrete joint-configuration candidate pool over
//!   which the BO loop searches (placement is delegated to Algorithm 1,
//!   shrinking the paper's `(N·C_r·C_f)^M` space to `(C_r·C_f)^M`),
//! * [`composite`] — the composite surrogate `g(f(x))`: outcome-GP
//!   samples pushed through the preference model, exposed through
//!   `eva-bo`'s [`eva_bo::SurrogateSampler`] so qNEI/qEI/qUCB/qSR all
//!   apply unchanged,
//! * [`pamo`] — Algorithm 2 end to end: profile → elicit preferences →
//!   BO with qNEI → recommend, plus the PaMO+ oracle variant and the
//!   acquisition ablations.

pub mod benefit;
pub mod composite;
pub mod error;
pub mod gp;
pub mod models;
pub mod online;
pub mod overload;
pub mod pamo;
pub mod pool;
pub mod prefgp;
pub mod serving;
mod solves;

pub use benefit::{normalized_benefit, OutcomeNormalizer, TruePreference};
pub use composite::{CompositeSampler, PreferenceEval};
pub use error::CoreError;
pub use models::{OutcomeModelBank, ProfilingDesign};
pub use online::{run_online, FaultedRunConfig, OnlineRun};
pub use overload::{ControlPlaneSnapshot, OverloadConfig, ServingSession};
pub use pamo::{Pamo, PamoConfig, PamoDecision, PreferenceSource};
pub use pool::{build_pool, decode_joint};
pub use serving::{run_serving, ServeEvent, ServingConfig, ServingRun, SERVING_POLICY};
