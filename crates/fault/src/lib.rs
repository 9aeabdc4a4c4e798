//! Fault injection for the EVA testbed: seeded failure processes and the
//! policies the scheduler uses to survive them.
//!
//! The paper's zero-jitter guarantee (Theorems 1-3) and the online BO
//! loop both assume every server and camera stays up for the whole
//! horizon. Real edge clusters do not cooperate: servers crash and
//! reboot, cameras drop off their radio and rejoin, links lose frames,
//! and co-tenant interference turns a server into a straggler. This
//! crate supplies deterministic, seeded models of those four failure
//! modes — mirroring `eva-net`'s Gilbert-Elliott machinery — plus the
//! retry policy that bounds how long a lost frame is chased:
//!
//! * [`process`] — the fault processes: two-state up/down Markov chains
//!   with exponential dwells (`AvailabilityModel` → materialized
//!   [`AvailabilityTrace`]), transient slowdowns (`SlowdownModel` →
//!   [`SlowdownTrace`]), and per-frame Bernoulli loss ([`LossProcess`]),
//! * [`plan`] — [`FaultPlan`]: the per-server / per-camera bundle a
//!   scenario carries, with [`RetryPolicy`] (bounded retries,
//!   exponential backoff) governing lost-frame retransmission,
//! * [`chaos`] — [`ChaosSpec`]: one seeded composition of churn storms
//!   × link collapse × crash bursts × control-plane stragglers, the
//!   overload experiments' single reproducible knob.
//!
//! Everything is deterministic given its seed: the same plan always
//! injects the same faults, so fault-tolerance experiments replay
//! exactly and the zero-rate plan is observationally (bit-)identical to
//! no plan at all.

pub mod chaos;
pub mod plan;
pub mod process;

pub use chaos::{ChaosSpec, ChaosWindow, ChurnStorm, ControlStragglers, CrashBursts, LinkCollapse};
pub use plan::{FaultPlan, RetryPolicy};
pub use process::{AvailabilityTrace, LossProcess, SlowdownTrace};
