//! Bonded multipath uplinks for edge video analytics.
//!
//! Real edge cameras rarely ride one radio: deployments bond 2–6
//! heterogeneous cellular/WiFi links (strata-style) and stripe each
//! frame's packets across them. Done naïvely this *hurts* — the
//! "multipath penalty": a slow high-RTT member head-of-line blocks the
//! receiver's reorder buffer until bonded goodput falls below the best
//! single link. Done well (HoL-aware earliest-delivery striping) the
//! bundle beats every member.
//!
//! This crate supplies the three layers:
//!
//! * [`LinkBundle`] / [`BondedLink`] — the description: per-member
//!   [`eva_net`] rate processes plus base RTTs, with analytic
//!   *effective-rate* formulas per policy
//!   ([`LinkBundle::effective_rate_bps`]) that the planner consumes as
//!   the camera's Eq. 5 bandwidth belief,
//! * [`BondPolicy`] — the packet-striping policies (`RoundRobin`,
//!   `RateWeighted`, `EarliestDelivery`), a plain enum whose `match`
//!   chooses a member per packet from *believed* rates (per-link
//!   BBR-style estimators), queue depths and RTTs,
//! * [`BundleSim`] / [`ReorderBuffer`] — the materialization the DES
//!   drives: true traces carry the packets, the in-order receiver
//!   charges HoL blocking, and `FrameDelivery` reports the in-order
//!   frame delivery time plus per-link accounting. [`ReorderBuffer`] is
//!   the receiver's reference model; `BundleSim` computes the same
//!   releases by merging its per-member arrival lists, and memoizes
//!   each striped frame by its full input (frame size, round-robin
//!   cursor, every member's true and believed rate), replaying the
//!   outcome when a link state repeats
//!   ([`BundleSim::stripe_memo_hits`]).
//!
//! A single-member zero-RTT bundle is bit-identical to the unbonded
//! single-trace path (property-tested in `eva-sim`), so bundles are a
//! strict generalization, not a fork.

pub mod bundle;
pub mod reorder;
pub mod sched;

pub use bundle::{BondedLink, BundleSim, LinkBundle};
pub use reorder::ReorderBuffer;
pub use sched::BondPolicy;
