//! # PaMO — a preference-aware edge video analytics scheduler
//!
//! A from-scratch Rust reproduction of *"The Blind and the Elephant: A
//! Preference-aware Edge Video Analytics Scheduler for Maximizing
//! System Benefit"* (Zhang et al., ICPP 2024).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`linalg`] | `eva-linalg` | dense matrices, Cholesky/LU, solves |
//! | [`stats`] | `eva-stats` | normal dist, LHS, metrics, weights |
//! | [`gp`] | `pamo-core` | Gaussian-process regression (ARD kernels) |
//! | [`prefgp`] | `pamo-core` | pairwise preference GP + EUBO |
//! | [`bo`] | `eva-bo` | qNEI/qEI/qUCB/qSR + BO driver |
//! | [`sched`] | `eva-sched` | zero-jitter grouping + rank-pairing placement |
//! | [`fault`] | `eva-fault` | seeded fault plans, composed chaos |
//! | [`obs`] | `eva-obs` | recorders, phase spans, decision budgets |
//! | [`serve`] | `eva-serve` | churn, admission control, rescheduling |
//! | [`sim`] | `eva-sim` | discrete-event cluster simulator |
//! | [`workload`] | `eva-workload` | synthetic MOT16-like workload |
//! | [`baselines`] | `eva-baselines` | JCAB, FACT, fixed-weight |
//! | [`core`] | `pamo-core` | PaMO / PaMO+ (Algorithm 2) |
//!
//! ## Quickstart
//!
//! ```
//! use pamo::prelude::*;
//!
//! // A small deployment: 3 cameras, 2 edge servers @ 20 Mbps.
//! let scenario = Scenario::uniform(3, 2, 20e6, 42);
//! // The operator's hidden pricing preference (Eq. 13 weights).
//! let pref = TruePreference::uniform(&scenario);
//! // Run PaMO+ (oracle preference) with a small budget.
//! let mut cfg = PamoConfig::default().plus();
//! cfg.bo.max_iters = 2;
//! cfg.bo.mc_samples = 16;
//! cfg.pool_size = 20;
//! cfg.profiling_per_camera = 20;
//! let mut rng = pamo::stats::rng::seeded(7);
//! let decision = Pamo::new(cfg).decide(&scenario, &pref, &mut rng).unwrap();
//! assert!(scenario.schedule(&decision.configs).is_ok());
//! ```

pub use eva_baselines as baselines;
pub use eva_bo as bo;
pub use eva_fault as fault;
pub use eva_linalg as linalg;
pub use eva_obs as obs;
pub use eva_sched as sched;
pub use eva_serve as serve;
pub use eva_sim as sim;
pub use eva_stats as stats;
pub use eva_workload as workload;
pub use pamo_core as core;
pub use pamo_core::gp;
pub use pamo_core::prefgp;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use eva_baselines::{Decision, Fact, FactConfig, Jcab, JcabConfig};
    pub use eva_bo::{AcqKind, BoConfig};
    pub use eva_sched::{assign_groups_to_servers, StreamId, StreamTiming};
    pub use eva_sim::{simulate_scenario_with_deadline_recorded, PhasePolicy};
    pub use eva_workload::{ClipProfile, ConfigSpace, Outcome, Scenario, VideoConfig};
    pub use pamo_core::{Pamo, PamoConfig, PamoDecision, PreferenceSource, TruePreference};
}
