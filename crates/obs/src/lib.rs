//! eva-obs: zero-overhead telemetry for the PaMO scheduler stack.
//!
//! Three layers (DESIGN.md §9):
//!
//! * [`hist`] / [`registry`] — a metrics registry of counters, gauges
//!   and mergeable log-linear histograms with bounded-relative-error
//!   quantile queries,
//! * [`recorder`] — the [`Recorder`] trait and the [`Phase`] span
//!   taxonomy. Instrumented hot paths take `&dyn Recorder`; the default
//!   [`NoopRecorder`] compiles to empty bodies and never reads the
//!   clock, so telemetry-off runs are bit-identical to uninstrumented
//!   ones (telemetry never touches RNG state or numeric inputs),
//! * [`flight`] — the [`FlightRecorder`]: an in-memory sink exporting
//!   a machine-readable JSON snapshot. `perf_baseline`
//!   keeps the snapshots' clock-free part (span counts, counters,
//!   histogram extremes) as `BENCH_perf.json`.
//!
//! The crate is intentionally dependency-free (std only) so every
//! workspace crate can accept a recorder without pulling anything in.

pub mod budget;
pub mod flight;
pub mod hist;
mod json;
pub mod recorder;
pub mod registry;

pub use budget::{cost, BudgetPolicy, DecisionBudget, DecisionRung};
pub use flight::{FlightRecorder, ObsSnapshot, PhaseStats};
pub use hist::LogLinearHistogram;
pub use recorder::{emit_warn, span, Field, NoopRecorder, ObsEvent, Phase, Recorder};
