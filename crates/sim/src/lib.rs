//! Discrete-event simulation of an edge video analytics cluster.
//!
//! Replaces the paper's physical testbed (cameras → WiFi → Jetson
//! servers running Triton/YOLOv8). The simulator reproduces exactly the
//! phenomena the scheduler cares about:
//!
//! * per-frame end-to-end latency = transmission + queueing + processing,
//! * **queueing-induced latency accumulation** on overloaded servers
//!   (Fig. 3(a)) and **delay jitter** from poorly phased co-located
//!   streams (Fig. 4),
//! * the absence of both when the placement satisfies `Const2` and the
//!   streams use the static offsets of Theorem 1.
//!
//! Structure:
//! * [`des`] — the event-driven engine: periodic frame sources, FIFO
//!   server queues, per-stream latency statistics; optionally driven by
//!   `eva-net` link traces (time-varying per-frame transmission times),
//!   bonded multipath uplinks, fault schedules, or one uplink per server
//!   shared by its streams,
//! * `server` — one server's FIFO replayed on its own against its
//!   region of the seeded arrivals (the engine's run loop), with a
//!   shared uplink's FIFO replayed in front of it,
//! * [`runner`] — glue from (`eva-workload` scenario, configs,
//!   `eva-sched` assignment) to a simulation and back to measured
//!   outcomes.

pub mod des;
#[cfg(test)]
mod event;
pub mod fault;
pub mod runner;
mod server;

pub use des::{simulate, SimConfig, SimReport, SimStream, StreamBundle, StreamLink, Uplinks};
pub use fault::{plan_stream_deliveries, SimFaults};
pub use runner::{
    simulate_scenario_faulted_recorded, simulate_scenario_with_deadline_recorded, PhasePolicy,
    ScenarioSimReport,
};
