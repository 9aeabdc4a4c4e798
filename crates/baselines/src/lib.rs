//! Baseline EVA schedulers the paper compares against (Sec. 5.1).
//!
//! * [`jcab`] — JCAB (Zhang et al., IEEE/ACM ToN'21): Lyapunov
//!   drift-plus-penalty over a virtual energy queue chooses per-stream
//!   configurations maximizing `V·w_acc·accuracy − Q·power`; placement
//!   is First-Fit by utilization. No zero-jitter awareness.
//! * [`fact`] — FACT (Liu et al., INFOCOM'18): block coordinate descent
//!   alternating per-stream *resolution* choices (frame rate is not a
//!   FACT knob) against latency-driven server allocation, minimizing
//!   `w_lct·latency + w_acc·(1−accuracy)`. Energy and bandwidth are not
//!   modeled.
//! * [`fixed`] — classical fixed-weight scalarizers (Equal / ROC /
//!   Rank-Sum weights, Sec. 1/6) over the full outcome vector, solved by
//!   discrete coordinate descent: the "textbook" multi-objective
//!   baseline the paper argues cannot capture real pricing preference.
//! * [`measure`] — the shared decision evaluator: analytic resource
//!   aggregates plus *simulated* latency (the DES charges baselines for
//!   the queueing and jitter their placements actually cause — PaMO's
//!   zero-jitter placements measure jitter-free by Theorem 1).

mod discrete;
pub mod fact;
pub mod fixed;
pub mod jcab;
pub mod measure;

pub use fact::{Fact, FactConfig};
pub use fixed::{FixedWeight, FixedWeightScheme};
pub use jcab::{Jcab, JcabConfig};
pub use measure::{measure_decision, Decision};
