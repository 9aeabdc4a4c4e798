//! Network dynamics for the EVA testbed: time-varying uplink models and
//! online bandwidth estimators.
//!
//! The paper's Eq. 5 charges each frame a fixed `θ_bit(r)/B` uplink
//! term — `B` is a known constant. Real radio links are neither known
//! nor constant: WiFi/cellular uplinks fade, share airtime, and drift
//! on diurnal cycles. This crate supplies the two halves the scheduler
//! needs to cope:
//!
//! * [`link`] — per-camera *link models*: deterministic, seeded
//!   processes (`B(t)`) materialized as piecewise-constant
//!   [`link::LinkTrace`]s the simulator samples per frame,
//! * [`estimator`] — *online estimators* fed per-frame delivery
//!   samples `(bytes, duration)`, producing the `B̂` the scheduler
//!   plans against (EWMA, and a BBR-style windowed max-filter).
//!
//! The split mirrors the deployment loop: the true `B(t)` drives the
//! simulated transmissions, the estimator only ever sees realized
//! deliveries, and scheduling decisions consume `B̂ / headroom`.

pub mod estimator;
pub mod link;

pub use estimator::{delivery_rate_bps, EwmaEstimator, LinkEstimator, MaxFilterEstimator};
pub use link::{LinkModel, LinkTrace};
