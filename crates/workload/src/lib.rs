//! Synthetic edge-video-analytics workload substrate.
//!
//! The paper profiles MOT16 clips running YOLOv8 on Jetson boards
//! (Sec. 5.1). We cannot ship that testbed, so this crate provides the
//! closest synthetic equivalent: analytic ground-truth *outcome
//! surfaces* whose shapes are calibrated to the paper's Figure 2
//! (accuracy saturating in resolution and frame rate; bits, FLOPs,
//! processing time and energy quadratic in resolution and linear in
//! frame rate), modulated by per-clip content factors, plus measurement
//! noise. Everything downstream — GP outcome models, the schedulers,
//! the DES — only ever observes the five-dimensional outcome vector,
//! exactly as the paper's scheduler does.
//!
//! * [`config`] — the discrete (resolution × frame-rate) knob space,
//! * [`clip`] — the MOT16-like clip library with content factors,
//! * [`surfaces`] — ground-truth θ(·)/ε(·) response functions (Eq. 2-5),
//! * [`outcome`] — the five-objective outcome vector,
//! * [`profiler`] — noisy profiling-sample generation (Algorithm 2 line 3),
//! * [`scenario`] — cameras + servers + analytic aggregate outcomes,
//! * [`aggregate`] — the one Eq. 2-5 sum of cameras into an outcome.

pub mod aggregate;
pub mod clip;
pub mod config;
pub mod drift;
pub mod hetero;
pub mod outcome;
pub mod profiler;
pub mod scenario;
pub mod surfaces;

pub use aggregate::{AggregateError, Cameras, FrameFractions};
pub use clip::{clip_set, mot16_library, ClipProfile};
pub use config::{ConfigSpace, VideoConfig};
pub use drift::DriftingScenario;
pub use eva_bond::{BondPolicy, BondedLink, LinkBundle}; // appear in Scenario's builder API
pub use eva_fault::FaultPlan; // appears in Scenario's builder API
pub use eva_net::LinkModel; // appears in Scenario's builder API
pub use hetero::{PhysicalServer, Virtualization};
pub use outcome::{Outcome, N_OBJECTIVES, OBJECTIVE_NAMES};
pub use profiler::{ProfileSample, Profiler};
pub use scenario::{DeriveError, LastCameraProbe, Scenario, ScenarioOutcome};
pub use surfaces::SurfaceModel;
