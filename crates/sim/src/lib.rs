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
//! * [`event`] — the time-ordered event queue,
//! * [`des`] — the event-driven engine: periodic frame sources, FIFO
//!   server queues, per-stream latency statistics; optionally driven by
//!   `eva-net` link traces (time-varying per-frame transmission times),
//! * [`runner`] — glue from (`eva-workload` scenario, configs,
//!   `eva-sched` assignment) to a simulation and back to measured
//!   outcomes.

pub mod des;
pub mod event;
pub mod fault;
pub mod runner;
pub mod tandem;

pub use des::{
    simulate, SimConfig, SimError, SimReport, SimStream, StreamBundle, StreamLink, StreamReport,
    Uplinks,
};
pub use fault::{plan_stream_deliveries, service_end, PlannedFrame, SimFaults};
pub use runner::{
    simulate_scenario_faulted_recorded, simulate_scenario_with_deadline_recorded, PhasePolicy,
    ScenarioSimReport,
};
pub use tandem::{simulate_shared_uplink, TandemReport, TandemStreamReport};
