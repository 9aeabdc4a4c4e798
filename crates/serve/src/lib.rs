//! Continuous-arrival multi-tenant serving for the PaMO scheduler.
//!
//! Every other crate in this workspace replays a *fixed* scenario
//! epoch-by-epoch. Real edge deployments are not fixed: tenants
//! (cameras) arrive and depart mid-run, and the scheduler has to react
//! in milliseconds rather than at the next epoch boundary. This crate
//! supplies the three serving-layer substrates:
//!
//! * [`arrival`] — seeded Poisson / MMPP arrival–departure processes
//!   that generate a deterministic churn trace over a horizon,
//! * [`admission`] — an admission controller whose fast feasibility
//!   probe re-runs the survivor-restricted Algorithm 1 path
//!   for a candidate tenant and accepts only placements that keep the
//!   *incumbent* tenants' benefit above a configured floor,
//! * [`reschedule`] — an event-driven rescheduler that treats
//!   arrival / departure / server failure / server restore uniformly as
//!   replan triggers and repairs only the perturbed assignment rows
//!   (one row = one zero-jitter group), falling back to a full
//!   Algorithm-1 re-solve when row repair cannot restore feasibility —
//!   or, under a decision budget, running the repair step
//!   ([`Rescheduler::replan_limited`]) and the full re-solve
//!   ([`Rescheduler::replan_full`]) as separately charged steps, plus
//!   coalesced batch repairs ([`Rescheduler::replan_coalesced`]),
//! * [`queue`] — the admission retry queue with overload backpressure:
//!   age-based shedding and a high-water mark that flips the serving
//!   loop into coalesced-repair mode.
//!
//! The serving *loop* that drives these against live PaMO decisions
//! (`ServingSession`, run end to end by `run_serving`) lives in
//! `pamo-core`, which composes this crate with
//! the BO pipeline; this crate stays below `pamo-core` in the layering
//! and is usable with any benefit function.

pub mod admission;
pub mod arrival;
pub mod queue;
pub mod reschedule;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionDecision, ProbeReport};
pub use arrival::{ArrivalModel, ChurnAction, ChurnConfig, ChurnEvent, ChurnTrace};
pub use queue::{QueueEntry, RetryQueue};
pub use reschedule::{ReplanScope, ReplanStats, ReplanTrigger, Rescheduler};
