//! A full EVA deployment: cameras (clips) + edge servers (uplinks),
//! with the analytic system-level outcome of a joint decision.
//!
//! `Scenario::evaluate` is the paper's Eq. 2-5 evaluated under the
//! Algorithm-1 placement: the quantity the BO loop optimizes and the
//! discrete-event simulator cross-checks.

use std::cell::OnceCell;

use eva_bond::{BondPolicy, LinkBundle};
use eva_fault::FaultPlan;
use eva_net::LinkModel;
use eva_obs::{NoopRecorder, Recorder};
use eva_sched::{
    assign_groups_to_servers, exceeds_capacity, Assignment, GroupingError, StreamId, StreamTiming,
};
use rand::Rng;

use crate::aggregate::{AggregateError, Cameras, ConfigSums, FrameFractions};
use crate::clip::{clip_set, ClipProfile};
use crate::config::{ConfigSpace, VideoConfig};
use crate::outcome::Outcome;
use crate::surfaces::SurfaceModel;

/// The uplink pool the paper samples from for the Fig. 7 experiments
/// ("randomly select bandwidth values for servers from (5..30 Mbps)").
pub(crate) const UPLINK_POOL_MBPS: [f64; 6] = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0];

/// Why a planning-bandwidth belief was rejected
/// ([`Scenario::with_planning_uplinks`], [`Scenario::with_bonded_planning`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanningError {
    /// Not one estimate per server.
    WrongLength {
        /// Servers in the scenario.
        expected: usize,
        /// Estimates given.
        got: usize,
    },
    /// The headroom divisor is not a finite positive number.
    Headroom(f64),
    /// A bandwidth estimate is not a finite positive rate.
    Estimate(f64),
    /// Bonded planning was asked for before any bundles were attached.
    NoBundles,
}

impl std::fmt::Display for PlanningError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanningError::WrongLength { expected, got } => {
                write!(f, "{got} bandwidth estimates for {expected} servers")
            }
            PlanningError::Headroom(h) => write!(f, "headroom {h} is not finite and positive"),
            PlanningError::Estimate(b) => {
                write!(f, "bandwidth estimate {b} is not finite and positive")
            }
            PlanningError::NoBundles => write!(f, "bonded planning needs attached link bundles"),
        }
    }
}

impl std::error::Error for PlanningError {}

/// Why a scenario could not be derived by adding or removing a camera
/// ([`Scenario::with_camera`], [`Scenario::without_camera`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeriveError {
    /// Per-camera link models, link bundles or a fault plan are
    /// attached. They hold no entry for an added camera, so neither
    /// derivation carries them.
    PerCameraAttachment,
    /// The camera to remove does not exist.
    NoSuchCamera {
        /// The camera asked for.
        camera: usize,
        /// Cameras in the scenario.
        cameras: usize,
    },
    /// Removing the only camera would leave a scenario without cameras.
    LastCamera,
}

impl std::fmt::Display for DeriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeriveError::PerCameraAttachment => write!(
                f,
                "per-camera link models, bundles or faults cannot follow a camera change"
            ),
            DeriveError::NoSuchCamera { camera, cameras } => {
                write!(f, "no camera {camera} among {cameras}")
            }
            DeriveError::LastCamera => write!(f, "cannot remove the only camera"),
        }
    }
}

impl std::error::Error for DeriveError {}

/// One camera's single-stream cost extremes over the config grid (cost
/// vector order, accuracy negated): each cost's minimum and maximum at
/// the slowest true uplink, latency's also over the fastest. They depend
/// only on the camera's clip, the config grid and the slowest and
/// fastest true uplinks, so a derived scenario that keeps all three
/// carries them.
#[derive(Clone, Copy)]
struct CostExtremes {
    min: [f64; crate::outcome::N_OBJECTIVES],
    max: [f64; crate::outcome::N_OBJECTIVES],
}

/// An EVA deployment instance.
#[derive(Clone)]
pub struct Scenario {
    clips: Vec<ClipProfile>,
    surfaces: Vec<SurfaceModel>,
    uplink_bps: Vec<f64>,
    space: ConfigSpace,
    /// Optional per-camera time-varying uplink processes. When present,
    /// the DES transmits camera `i`'s frames over `links[i]` instead of
    /// the fixed per-server uplink; the analytic model and `uplink_bps`
    /// keep describing the provisioned (planning-time) bandwidth.
    links: Option<Vec<LinkModel>>,
    /// Optional per-camera *bonded* multipath uplinks (mutually
    /// exclusive with `links`): the DES stripes camera `i`'s frames
    /// across `bundles[i]` under `bond_policy`.
    bundles: Option<Vec<LinkBundle>>,
    /// Packet-striping policy for attached bundles.
    bond_policy: BondPolicy,
    /// Optional per-server *planning* bandwidths (already divided by
    /// the headroom factor): the `B̂` the schedulers believe in.
    /// `None` = plan on the true provisioned `uplink_bps` (oracle-B).
    planning_bps: Option<Vec<f64>>,
    /// Optional fault plan (server crash/recovery, camera dropout,
    /// frame loss, stragglers). `None` = nothing ever fails.
    faults: Option<FaultPlan>,
    /// Per-camera cost extremes behind [`Scenario::cost_bounds`],
    /// computed on the first bounds read (a scenario that never reads
    /// them, such as a DES run's, pays nothing).
    extremes: OnceCell<Vec<CostExtremes>>,
}

/// The derived `Debug` form without the cost-extremes cache, so that a
/// scenario prints the same before and after its bounds are first read
/// (checkpoint digests hash this text).
impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("clips", &self.clips)
            .field("surfaces", &self.surfaces)
            .field("uplink_bps", &self.uplink_bps)
            .field("space", &self.space)
            .field("links", &self.links)
            .field("bundles", &self.bundles)
            .field("bond_policy", &self.bond_policy)
            .field("planning_bps", &self.planning_bps)
            .field("faults", &self.faults)
            .finish()
    }
}

/// Result of evaluating a joint configuration on a scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The aggregate five-objective outcome (Eq. 2-5).
    pub outcome: Outcome,
    /// The zero-jitter placement that produced it.
    pub assignment: Assignment,
}

impl Scenario {
    /// Build from explicit parts.
    pub fn new(clips: Vec<ClipProfile>, uplink_bps: Vec<f64>, space: ConfigSpace) -> Self {
        assert!(!clips.is_empty(), "Scenario: no cameras");
        assert!(
            uplink_bps.iter().all(|&b| b > 0.0) && !uplink_bps.is_empty(),
            "Scenario: invalid uplinks"
        );
        let surfaces = clips.iter().cloned().map(SurfaceModel::new).collect();
        Scenario {
            clips,
            surfaces,
            uplink_bps,
            space,
            links: None,
            bundles: None,
            bond_policy: BondPolicy::default(),
            planning_bps: None,
            faults: None,
            extremes: OnceCell::new(),
        }
    }

    /// This scenario with `clip` appended as the last camera: the same
    /// servers, uplinks, planning belief and config grid, and the same
    /// outputs as a scratch build over the extended clip list. When this
    /// scenario's cost extremes are computed, they carry over and the new
    /// camera's are computed here, one pass over its grid; otherwise the
    /// derived scenario computes all of them on its first bounds read.
    /// Errors when per-camera link models, bundles or a fault plan are
    /// attached.
    pub fn with_camera(&self, clip: ClipProfile) -> Result<Scenario, DeriveError> {
        let mut surfaces = Vec::with_capacity(self.surfaces.len() + 1);
        surfaces.extend_from_slice(&self.surfaces);
        surfaces.push(SurfaceModel::new(clip.clone()));
        let mut clips = Vec::with_capacity(self.clips.len() + 1);
        clips.extend_from_slice(&self.clips);
        clips.push(clip);
        let mut derived = self.derive(clips, surfaces)?;
        if let Some(carried) = self.extremes.get() {
            let (slowest, fastest) = self.uplink_range();
            let mut all = Vec::with_capacity(derived.n_videos());
            all.extend_from_slice(carried);
            all.push(derived.camera_extremes(self.n_videos(), slowest, fastest));
            derived.extremes = OnceCell::from(all);
        }
        Ok(derived)
    }

    /// This scenario without camera `camera`, the cameras after it
    /// moving down one index: the same servers, uplinks, planning belief
    /// and config grid, and the same outputs as a scratch build over the
    /// shortened clip list. The remaining cameras' computed cost
    /// extremes carry over. Errors when per-camera link models, bundles
    /// or a fault plan are attached, when `camera` does not exist, or
    /// when it is the only camera.
    pub fn without_camera(&self, camera: usize) -> Result<Scenario, DeriveError> {
        let cameras = self.n_videos();
        if camera >= cameras {
            return Err(DeriveError::NoSuchCamera { camera, cameras });
        }
        if cameras == 1 {
            return Err(DeriveError::LastCamera);
        }
        let keep = |i: &usize| *i != camera;
        let clips = (0..cameras).filter(keep).map(|i| self.clips[i].clone());
        let surfaces = (0..cameras).filter(keep).map(|i| self.surfaces[i].clone());
        let mut derived = self.derive(clips.collect(), surfaces.collect())?;
        if let Some(carried) = self.extremes.get() {
            let kept: Vec<CostExtremes> = (0..cameras).filter(keep).map(|i| carried[i]).collect();
            derived.extremes = OnceCell::from(kept);
        }
        Ok(derived)
    }

    /// The derived scenario over `clips` and their `surfaces`, with this
    /// scenario's servers and grid and no cost extremes yet.
    fn derive(
        &self,
        clips: Vec<ClipProfile>,
        surfaces: Vec<SurfaceModel>,
    ) -> Result<Scenario, DeriveError> {
        if self.links.is_some() || self.bundles.is_some() || self.faults.is_some() {
            return Err(DeriveError::PerCameraAttachment);
        }
        Ok(Scenario {
            clips,
            surfaces,
            uplink_bps: self.uplink_bps.clone(),
            space: self.space.clone(),
            links: None,
            bundles: None,
            bond_policy: self.bond_policy,
            planning_bps: self.planning_bps.clone(),
            faults: None,
            extremes: OnceCell::new(),
        })
    }

    /// Attach per-camera time-varying link models (one per camera).
    /// Simulation-level transmissions then follow `models[i].trace(·)`;
    /// planning still uses [`Scenario::planning_uplinks`].
    pub fn with_link_models(mut self, models: Vec<LinkModel>) -> Self {
        assert_eq!(
            models.len(),
            self.n_videos(),
            "Scenario::with_link_models: one model per camera"
        );
        assert!(
            self.bundles.is_none(),
            "Scenario: attach link models or link bundles, not both"
        );
        self.links = Some(models);
        self
    }

    /// Attach per-camera *bonded multipath* uplinks (one bundle per
    /// camera), striped under `policy`. Simulation-level transmissions
    /// then follow each bundle's packet-level delivery model; planning
    /// still uses [`Scenario::planning_uplinks`] — call
    /// [`Scenario::with_bonded_planning`] to derive that belief from
    /// the bundles' effective rates.
    pub fn with_link_bundles(mut self, bundles: Vec<LinkBundle>, policy: BondPolicy) -> Self {
        assert_eq!(
            bundles.len(),
            self.n_videos(),
            "Scenario::with_link_bundles: one bundle per camera"
        );
        assert!(
            self.links.is_none(),
            "Scenario: attach link models or link bundles, not both"
        );
        self.bundles = Some(bundles);
        self.bond_policy = policy;
        self
    }

    /// Derive the per-server planning belief from the attached bundles:
    /// each camera's bonded effective rate under the configured policy
    /// (for a reference frame of `frame_bits`), fleet-averaged and
    /// divided by `headroom`. The fleet average reflects the uniform-
    /// radio planning assumption: Eq. 5's bandwidth is per *server*,
    /// while radios ride with cameras, so the planner believes the mean
    /// bonded rate wherever it places a stream. Algorithm-1 placement,
    /// JCAB, FACT and the BO composite sampler all consume the result
    /// through [`Scenario::planning_uplinks`].
    /// Errors without attached bundles, or as
    /// [`Scenario::with_planning_uplinks`] does.
    pub fn with_bonded_planning(
        self,
        frame_bits: f64,
        headroom: f64,
    ) -> Result<Self, PlanningError> {
        let Some(bundles) = self.bundles.as_ref() else {
            return Err(PlanningError::NoBundles);
        };
        let mean_eff = bundles
            .iter()
            .map(|b| b.effective_rate_bps(self.bond_policy, frame_bits))
            .sum::<f64>()
            / bundles.len() as f64;
        let n_servers = self.n_servers();
        self.with_planning_uplinks(vec![mean_eff; n_servers], headroom)
    }

    /// Per-camera bonded uplinks, when attached.
    pub fn link_bundles(&self) -> Option<&[LinkBundle]> {
        self.bundles.as_deref()
    }

    /// The packet-striping policy for attached bundles.
    pub fn bond_policy(&self) -> BondPolicy {
        self.bond_policy
    }

    /// Plan against *estimated* per-server bandwidths: schedulers see
    /// `est_bps[q] / headroom` instead of the true uplink. `headroom >=
    /// 1` hedges estimation optimism (BBR-style max-filters overshoot a
    /// fading link's sustainable rate). Evaluation of realized latency
    /// keeps using the true uplinks. Errors unless there is one finite
    /// positive estimate per server and `headroom` is finite and positive.
    pub fn with_planning_uplinks(
        mut self,
        est_bps: Vec<f64>,
        headroom: f64,
    ) -> Result<Self, PlanningError> {
        if est_bps.len() != self.n_servers() {
            return Err(PlanningError::WrongLength {
                expected: self.n_servers(),
                got: est_bps.len(),
            });
        }
        if !(headroom.is_finite() && headroom > 0.0) {
            return Err(PlanningError::Headroom(headroom));
        }
        if let Some(&bad) = est_bps.iter().find(|&&b| !(b.is_finite() && b > 0.0)) {
            return Err(PlanningError::Estimate(bad));
        }
        self.planning_bps = Some(est_bps.iter().map(|&b| b / headroom).collect());
        Ok(self)
    }

    /// Drop any planning-bandwidth override (back to oracle-B).
    #[cfg(test)]
    pub(crate) fn clear_planning_uplinks(mut self) -> Self {
        self.planning_bps = None;
        self
    }

    /// Attach a fault plan: seeded server crash/recovery, camera
    /// dropout, per-frame loss, and straggler processes that the DES
    /// and the fault-aware online loop inject. Scheduling and analytic
    /// evaluation are unaffected until a consumer asks for the plan —
    /// a zero plan ([`FaultPlan::is_zero`]) is observationally
    /// identical to no plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        assert_eq!(
            plan.servers.len(),
            self.n_servers(),
            "Scenario::with_fault_plan: one ServerFaults per server"
        );
        assert_eq!(
            plan.cameras.len(),
            self.n_videos(),
            "Scenario::with_fault_plan: one CameraFaults per camera"
        );
        self.faults = Some(plan);
        self
    }

    /// Drop the fault plan (back to a fault-free world).
    #[cfg(test)]
    pub(crate) fn clear_fault_plan(mut self) -> Self {
        self.faults = None;
        self
    }

    /// The attached fault plan, when present.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The paper's standard testbed shape: `n_videos` MOT16-like clips,
    /// `n_servers` servers with uplinks drawn from `UPLINK_POOL_MBPS`.
    pub fn standard<R: Rng + ?Sized>(n_videos: usize, n_servers: usize, rng: &mut R) -> Self {
        let clips = clip_set(n_videos, rng.gen());
        let uplinks: Vec<f64> = (0..n_servers)
            .map(|_| UPLINK_POOL_MBPS[rng.gen_range(0..UPLINK_POOL_MBPS.len())] * 1e6)
            .collect();
        Scenario::new(clips, uplinks, ConfigSpace::default())
    }

    /// Like [`Scenario::standard`] but with one shared uplink bandwidth
    /// (the Fig. 2 / Fig. 6 setting keeps the network fixed).
    pub fn uniform(n_videos: usize, n_servers: usize, uplink_bps: f64, seed: u64) -> Self {
        let clips = clip_set(n_videos, seed);
        Scenario::new(clips, vec![uplink_bps; n_servers], ConfigSpace::default())
    }

    /// Number of cameras (`M'`).
    pub fn n_videos(&self) -> usize {
        self.clips.len()
    }

    /// Number of servers (`N`).
    pub fn n_servers(&self) -> usize {
        self.uplink_bps.len()
    }

    /// Clip behind camera `i`.
    pub fn clip(&self, i: usize) -> &ClipProfile {
        &self.clips[i]
    }

    /// Ground-truth surfaces of camera `i` (hidden from schedulers;
    /// exposed for profiling and test oracles).
    pub fn surfaces(&self, i: usize) -> &SurfaceModel {
        &self.surfaces[i]
    }

    /// True (provisioned) server uplink bandwidths (bits/s) — what the
    /// physical system delivers and what realized-outcome measurement
    /// uses.
    pub fn uplinks(&self) -> &[f64] {
        &self.uplink_bps
    }

    /// The per-server bandwidths scheduling decisions are based on:
    /// the planning override when one is set (estimated `B̂/headroom`),
    /// otherwise the true uplinks (the oracle-B default).
    pub fn planning_uplinks(&self) -> &[f64] {
        self.planning_bps.as_deref().unwrap_or(&self.uplink_bps)
    }

    /// Per-camera time-varying link models, when attached.
    pub fn link_models(&self) -> Option<&[LinkModel]> {
        self.links.as_deref()
    }

    /// Camera `i`'s link model, when attached.
    #[cfg(test)]
    pub(crate) fn link_model(&self, i: usize) -> Option<&LinkModel> {
        self.links.as_ref().map(|ls| &ls[i])
    }

    /// The shared configuration knob grid.
    pub fn config_space(&self) -> &ConfigSpace {
        &self.space
    }

    /// Periodic-stream timings implied by a joint configuration.
    pub fn stream_timings(&self, configs: &[VideoConfig]) -> Vec<StreamTiming> {
        assert_eq!(configs.len(), self.n_videos(), "one config per camera");
        configs
            .iter()
            .enumerate()
            .map(|(i, c)| self.stream_timing(i, c))
            .collect()
    }

    /// Periodic-stream timing of camera `i` at `config`: entry `i` of
    /// [`Scenario::stream_timings`].
    pub fn stream_timing(&self, i: usize, config: &VideoConfig) -> StreamTiming {
        StreamTiming::from_rate(
            StreamId::source(i),
            config.fps,
            self.surfaces[i].proc_time_secs(config.resolution),
        )
    }

    /// Run Algorithm 1 for a joint configuration. Placement costs use
    /// the *planning* bandwidths ([`Scenario::planning_uplinks`]):
    /// under an estimated-B override the scheduler optimizes against
    /// its belief, not the hidden truth.
    pub fn schedule(&self, configs: &[VideoConfig]) -> Result<Assignment, GroupingError> {
        self.schedule_surviving(configs, None, &NoopRecorder)
    }

    /// Failure-aware Algorithm 1: like [`Scenario::schedule`] but only
    /// servers marked `true` in `alive` receive groups (server indices
    /// in the result still refer to the full server list). `None` (or
    /// all-true) reproduces the unrestricted placement bit-identically.
    /// Telemetry is threaded down to the Algorithm-1
    /// grouping/assignment spans on `rec`. A `configs` slice without
    /// exactly one entry per camera is a
    /// [`GroupingError::ConfigsLengthMismatch`].
    pub fn schedule_surviving(
        &self,
        configs: &[VideoConfig],
        alive: Option<&[bool]>,
        rec: &dyn Recorder,
    ) -> Result<Assignment, GroupingError> {
        if configs.len() != self.n_videos() {
            return Err(GroupingError::ConfigsLengthMismatch {
                configs: configs.len(),
                cameras: self.n_videos(),
            });
        }
        let timings = self.stream_timings(configs);
        let bits: Vec<f64> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| self.frame_bits(i, c))
            .collect();
        assign_groups_to_servers(&timings, &bits, self.planning_uplinks(), alive, rec)
    }

    /// Camera `i`'s encoded frame size at `config`: its Algorithm-1
    /// placement weight.
    fn frame_bits(&self, i: usize, config: &VideoConfig) -> f64 {
        self.surfaces[i].bits_per_frame(config.resolution)
    }

    /// Evaluate the aggregate outcome of a joint configuration under the
    /// Algorithm-1 placement (Eq. 2-5). Fails when no zero-jitter
    /// placement exists.
    pub fn evaluate(&self, configs: &[VideoConfig]) -> Result<ScenarioOutcome, GroupingError> {
        self.evaluate_surviving(configs, None, &NoopRecorder)
    }

    /// Failure-aware evaluation: Algorithm 1 restricted to the `alive`
    /// servers, realized latency charged on the (true) uplinks of the
    /// servers actually used. `None` (or all-true) reproduces
    /// [`Scenario::evaluate`] bit-identically. Telemetry is threaded
    /// down to the placement spans on `rec`.
    pub fn evaluate_surviving(
        &self,
        configs: &[VideoConfig],
        alive: Option<&[bool]>,
        rec: &dyn Recorder,
    ) -> Result<ScenarioOutcome, GroupingError> {
        let assignment = self.schedule_surviving(configs, alive, rec)?;
        let outcome = self.outcome_over(configs, assignment.placement(), Cameras::All);
        Ok(placed(outcome, assignment))
    }

    /// Prepare Algorithm-1 evaluations of the last camera at candidate
    /// configurations, cameras `0..n-1` pinned at `pinned` and placed on
    /// the `alive` servers ([`LastCameraProbe`]). Errors unless `pinned`
    /// holds one configuration per camera but the last.
    pub fn last_camera_probe<'a>(
        &'a self,
        pinned: &[VideoConfig],
        alive: Option<&'a [bool]>,
    ) -> Result<LastCameraProbe<'a>, GroupingError> {
        if pinned.len() + 1 != self.n_videos() {
            return Err(GroupingError::ConfigsLengthMismatch {
                configs: pinned.len() + 1,
                cameras: self.n_videos(),
            });
        }
        let mut pinned_sums = ConfigSums::default();
        for (i, c) in pinned.iter().enumerate() {
            pinned_sums.add(&self.surfaces[i], c, FrameFractions::FULL);
        }
        let timings: Vec<StreamTiming> = pinned
            .iter()
            .enumerate()
            .map(|(i, c)| self.stream_timing(i, c))
            .collect();
        Ok(LastCameraProbe {
            scenario: self,
            alive,
            live_servers: alive.map_or(self.planning_uplinks().len(), |a| {
                a.iter().filter(|&&up| up).count()
            }),
            pinned_utilization: timings.iter().map(StreamTiming::utilization).sum(),
            configs: pinned.to_vec(),
            timings,
            bits: pinned
                .iter()
                .enumerate()
                .map(|(i, c)| self.frame_bits(i, c))
                .collect(),
            pinned_sums,
        })
    }

    /// Per-objective `(min, max)` bounds of the system-level *cost*
    /// vector (accuracy negated), computed from single-stream extremes
    /// over the config grid and uplink set: latency and accuracy stay at
    /// per-stream (mean) scale, the three resource totals scale by the
    /// number of cameras. Used to normalize outcomes before preference
    /// evaluation (Sec. 2.3 normalizes to (0,1)).
    ///
    /// Each camera's extremes are computed once per scenario, on first
    /// use, and carried into scenarios derived by
    /// [`Scenario::with_camera`] / [`Scenario::without_camera`]; the
    /// bounds fold them over cameras in index order. That gives the same
    /// bits as one flat pass over every (camera, config) pair: `min` and
    /// `max` return one of their operands exactly, and every cost is a
    /// nonzero finite number (no NaN, no signed-zero tie), so the
    /// grouping of the fold cannot change its result.
    pub fn cost_bounds(&self) -> Vec<(f64, f64)> {
        use crate::outcome::idx::{ACCURACY, LATENCY};
        let n = self.n_videos() as f64;
        let mut mins = [f64::INFINITY; crate::outcome::N_OBJECTIVES];
        let mut maxs = [f64::NEG_INFINITY; crate::outcome::N_OBJECTIVES];
        let extremes = self.extremes.get_or_init(|| {
            let (slowest, fastest) = self.uplink_range();
            (0..self.n_videos())
                .map(|i| self.camera_extremes(i, slowest, fastest))
                .collect()
        });
        for e in extremes {
            for d in 0..mins.len() {
                mins[d] = mins[d].min(e.min[d]);
                maxs[d] = maxs[d].max(e.max[d]);
            }
        }
        (0..mins.len())
            .map(|d| {
                if d == LATENCY || d == ACCURACY {
                    (mins[d], maxs[d])
                } else {
                    (mins[d] * n, maxs[d] * n)
                }
            })
            .collect()
    }

    /// The slowest and fastest true uplinks. Latency is the only
    /// objective that reads the uplink, and `proc + bits / b` never rises
    /// with `b`: under round-to-nearest a larger positive divisor never
    /// gives a larger quotient, and adding the same `proc` keeps the
    /// order. So the slowest uplink holds every per-(camera, config)
    /// latency maximum and the fastest every minimum; no server in
    /// between moves an extreme. `new` guarantees at least one uplink,
    /// and every one positive.
    fn uplink_range(&self) -> (f64, f64) {
        let slowest = self
            .uplink_bps
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let fastest = self.uplink_bps.iter().copied().fold(0.0, f64::max);
        (slowest, fastest)
    }

    /// Camera `i`'s cost extremes over the config grid, latency at the
    /// `slowest` and `fastest` true uplinks.
    fn camera_extremes(&self, i: usize, slowest: f64, fastest: f64) -> CostExtremes {
        use crate::outcome::idx::{ACCURACY, LATENCY};
        let mut e = CostExtremes {
            min: [f64::INFINITY; crate::outcome::N_OBJECTIVES],
            max: [f64::NEG_INFINITY; crate::outcome::N_OBJECTIVES],
        };
        for c in self.space.iter() {
            let mut cost = self.evaluate_stream(i, &c, slowest).to_array();
            cost[ACCURACY] = -cost[ACCURACY];
            for (d, &v) in cost.iter().enumerate() {
                e.min[d] = e.min[d].min(v);
                e.max[d] = e.max[d].max(v);
            }
            let fast = self.surfaces[i].e2e_latency_secs(&c, fastest);
            e.min[LATENCY] = e.min[LATENCY].min(fast);
            e.max[LATENCY] = e.max[LATENCY].max(fast);
        }
        e
    }

    /// Evaluate the outcome vector of a *single* stream under a given
    /// uplink — the per-stream view used to build profiling datasets.
    pub fn evaluate_stream(&self, i: usize, config: &VideoConfig, uplink_bps: f64) -> Outcome {
        let s = &self.surfaces[i];
        Outcome {
            latency_s: s.e2e_latency_secs(config, uplink_bps),
            accuracy: s.accuracy(config),
            network_bps: s.bandwidth_bps(config),
            compute_tflops: s.compute_tflops(config),
            power_w: s.power_w(config),
        }
    }
}

/// An Algorithm-1 placement with its outcome, whose aggregation cannot
/// fail: Algorithm 1 places only the scenario's cameras on its servers.
fn placed(outcome: Result<Outcome, AggregateError>, assignment: Assignment) -> ScenarioOutcome {
    let outcome = outcome.unwrap_or_else(|e| unreachable!("Algorithm 1 placed {e}"));
    ScenarioOutcome {
        outcome,
        assignment,
    }
}

/// Algorithm-1 evaluations of a scenario's last camera at candidate
/// configurations, every other camera pinned and the placement
/// restricted to fixed live servers ([`Scenario::last_camera_probe`]).
/// The pinned cameras' stream timings, frame sizes, utilisation and
/// configuration-only sums are computed once; each candidate replaces
/// only the last camera's entries. Since the varying camera is the last,
/// every sum adds the same terms in the same order as
/// [`Scenario::evaluate_surviving`] does, so each placed evaluation
/// equals it on the full joint configuration bit for bit and makes the
/// same Algorithm-1 call (same spans and counters on the recorder).
#[derive(Debug)]
pub struct LastCameraProbe<'a> {
    scenario: &'a Scenario,
    alive: Option<&'a [bool]>,
    live_servers: usize,
    /// The pinned cameras' `Σ pᵢ/Tᵢ`, in camera order.
    pinned_utilization: f64,
    configs: Vec<VideoConfig>,
    timings: Vec<StreamTiming>,
    bits: Vec<f64>,
    pinned_sums: ConfigSums,
}

impl LastCameraProbe<'_> {
    /// The joint configuration of the last evaluation: the pinned
    /// configurations, then the last candidate (none before the first
    /// evaluation).
    pub fn configs(&self) -> &[VideoConfig] {
        &self.configs
    }

    /// [`Scenario::evaluate_surviving`] of the pinned configurations
    /// plus `candidate` for the last camera, or `Ok(None)` without
    /// running Algorithm 1 when the joint utilisation sum (pinned
    /// cameras in order, then the candidate) [`exceeds_capacity`] of the
    /// live servers, since no placement fits it.
    pub fn evaluate(
        &mut self,
        candidate: VideoConfig,
        rec: &dyn Recorder,
    ) -> Result<Option<ScenarioOutcome>, GroupingError> {
        let sc = self.scenario;
        let last = sc.n_videos() - 1;
        let timing = sc.stream_timing(last, &candidate);
        if exceeds_capacity(
            self.pinned_utilization + timing.utilization(),
            self.live_servers,
        ) {
            return Ok(None);
        }
        self.configs.truncate(last);
        self.configs.push(candidate);
        self.timings.truncate(last);
        self.timings.push(timing);
        self.bits.truncate(last);
        self.bits.push(sc.frame_bits(last, &candidate));
        let assignment = assign_groups_to_servers(
            &self.timings,
            &self.bits,
            sc.planning_uplinks(),
            self.alive,
            rec,
        )?;
        let mut sums = self.pinned_sums;
        sums.add(&sc.surfaces[last], &candidate, FrameFractions::FULL);
        let outcome = sc.outcome_from_sums(&self.configs, &sums, last + 1, assignment.placement());
        Ok(Some(placed(outcome, assignment)))
    }

    /// The pinned cameras' Eq. 2-5 outcome under `placement`, with the
    /// joint configuration of the last evaluation:
    /// [`Scenario::outcome_over`] of [`LastCameraProbe::configs`] with
    /// [`Cameras::Prefix`] of the pinned count, bit for bit, from the
    /// pinned sums prepared once. Before the first evaluation the
    /// configurations are one short, an [`AggregateError::Length`].
    pub fn pinned_outcome<P>(&self, placement: P) -> Result<Outcome, AggregateError>
    where
        P: IntoIterator<Item = (usize, usize)>,
    {
        let sc = self.scenario;
        let pinned = sc.n_videos() - 1;
        if self.configs.len() != sc.n_videos() {
            return Err(AggregateError::Length(
                "configurations",
                self.configs.len(),
                sc.n_videos(),
            ));
        }
        sc.outcome_from_sums(&self.configs, &self.pinned_sums, pinned, placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_sched::const2_zero_jitter_ok;
    use eva_stats::rng::seeded;
    use proptest::prelude::*;

    fn small_scenario() -> Scenario {
        Scenario::uniform(4, 3, 20e6, 42)
    }

    fn low_config(n: usize) -> Vec<VideoConfig> {
        vec![VideoConfig::new(480.0, 5.0); n]
    }

    #[test]
    fn evaluate_produces_feasible_zero_jitter_placement() {
        let sc = small_scenario();
        let out = sc.evaluate(&low_config(4)).unwrap();
        for server in 0..sc.n_servers() {
            let members: Vec<StreamTiming> = out
                .assignment
                .streams_on(server)
                .into_iter()
                .map(|i| out.assignment.streams[i])
                .collect();
            assert!(const2_zero_jitter_ok(&members));
        }
    }

    #[test]
    fn aggregate_outcome_matches_manual_sums() {
        let sc = small_scenario();
        let cfgs = low_config(4);
        let out = sc.evaluate(&cfgs).unwrap().outcome;
        let manual_net: f64 = (0..4).map(|i| sc.surfaces(i).bandwidth_bps(&cfgs[i])).sum();
        assert!((out.network_bps - manual_net).abs() < 1e-9);
        let manual_acc: f64 = (0..4)
            .map(|i| sc.surfaces(i).accuracy(&cfgs[i]))
            .sum::<f64>()
            / 4.0;
        assert!((out.accuracy - manual_acc).abs() < 1e-12);
    }

    #[test]
    fn bigger_configs_cost_more_everywhere_but_accuracy() {
        let sc = small_scenario();
        let lo = sc.evaluate(&low_config(4)).unwrap().outcome;
        let hi_cfg = vec![VideoConfig::new(900.0, 10.0); 4];
        let hi = sc.evaluate(&hi_cfg).unwrap().outcome;
        assert!(hi.accuracy > lo.accuracy);
        assert!(hi.network_bps > lo.network_bps);
        assert!(hi.compute_tflops > lo.compute_tflops);
        assert!(hi.power_w > lo.power_w);
        assert!(hi.latency_s > lo.latency_s);
    }

    #[test]
    fn infeasible_demand_is_rejected() {
        // 4 heavy streams on 1 server cannot satisfy Const2.
        let sc = Scenario::uniform(4, 1, 20e6, 1);
        let heavy = vec![VideoConfig::new(2160.0, 30.0); 4];
        assert!(sc.evaluate(&heavy).is_err());
    }

    #[test]
    fn too_few_configs_are_an_error() {
        let sc = small_scenario();
        let want = Err(GroupingError::ConfigsLengthMismatch {
            configs: 3,
            cameras: 4,
        });
        assert_eq!(sc.schedule(&low_config(3)), want);
        assert_eq!(sc.evaluate(&low_config(3)).map(|_| ()), want.map(|_| ()));
    }

    #[test]
    fn too_many_configs_are_an_error() {
        let sc = small_scenario();
        let want = Err(GroupingError::ConfigsLengthMismatch {
            configs: 5,
            cameras: 4,
        });
        assert_eq!(sc.schedule(&low_config(5)), want);
        let alive = [true, false, true];
        assert_eq!(
            sc.evaluate_surviving(&low_config(5), Some(&alive), &NoopRecorder)
                .map(|_| ()),
            want.map(|_| ())
        );
    }

    #[test]
    fn standard_scenario_uses_pool_uplinks() {
        let sc = Scenario::standard(6, 4, &mut seeded(9));
        assert_eq!(sc.n_videos(), 6);
        assert_eq!(sc.n_servers(), 4);
        for &b in sc.uplinks() {
            assert!(UPLINK_POOL_MBPS.iter().any(|&m| (m * 1e6 - b).abs() < 1.0));
        }
    }

    #[test]
    fn per_stream_view_is_consistent_with_surfaces() {
        let sc = small_scenario();
        let c = VideoConfig::new(720.0, 10.0);
        let o = sc.evaluate_stream(2, &c, 15e6);
        assert_eq!(o.accuracy, sc.surfaces(2).accuracy(&c));
        assert_eq!(o.latency_s, sc.surfaces(2).e2e_latency_secs(&c, 15e6));
    }

    #[test]
    fn cost_bounds_contain_evaluated_outcomes() {
        let sc = small_scenario();
        let bounds = sc.cost_bounds();
        assert_eq!(bounds.len(), 5);
        for &(lo, hi) in &bounds {
            assert!(lo < hi, "degenerate bound ({lo}, {hi})");
        }
        // A feasible aggregate outcome must fall inside the bounds.
        let out = sc.evaluate(&low_config(4)).unwrap().outcome;
        for (d, &c) in out.to_cost_vec().iter().enumerate() {
            assert!(
                c >= bounds[d].0 - 1e-9 && c <= bounds[d].1 + 1e-9,
                "objective {d}: {c} outside {:?}",
                bounds[d]
            );
        }
    }

    /// The bounds by brute force: every (camera, config, server uplink)
    /// triple, with no appeal to latency's monotonicity in the uplink.
    fn cost_bounds_reference(sc: &Scenario) -> Vec<(f64, f64)> {
        let n = sc.n_videos() as f64;
        let mut mins = [f64::INFINITY; crate::outcome::N_OBJECTIVES];
        let mut maxs = [f64::NEG_INFINITY; crate::outcome::N_OBJECTIVES];
        for i in 0..sc.n_videos() {
            for c in sc.config_space().iter() {
                for &b in sc.uplinks() {
                    let cost = sc.evaluate_stream(i, &c, b).to_cost_vec();
                    for d in 0..cost.len() {
                        mins[d] = mins[d].min(cost[d]);
                        maxs[d] = maxs[d].max(cost[d]);
                    }
                }
            }
        }
        (0..mins.len())
            .map(|d| {
                if d == crate::outcome::idx::LATENCY || d == crate::outcome::idx::ACCURACY {
                    (mins[d], maxs[d])
                } else {
                    (mins[d] * n, maxs[d] * n)
                }
            })
            .collect()
    }

    /// Strictly increasing knob values from positive steps.
    fn knob_grid(start: f64, steps: &[f64]) -> Vec<f64> {
        steps
            .iter()
            .scan(start, |v, &dv| {
                *v += dv;
                Some(*v)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `LastCameraProbe::pinned_outcome` of every placed candidate
        /// equals `outcome_over` of the probe's configurations with the
        /// pinned cameras as the prefix, bit for bit, on random fleets,
        /// pinned configurations and live-server masks. With every
        /// incumbent at the cheapest configuration and a live server,
        /// some candidate is placed.
        #[test]
        fn pinned_outcome_matches_the_prefix_outcome(
            seed in 0u64..1_000,
            cameras in 1usize..=12,
            servers in 1usize..=5,
            dead in 0usize..6,
            cheapest in 0usize..2,
        ) {
            let sc = Scenario::standard(cameras, servers, &mut seeded(seed));
            let space = sc.config_space();
            let mut rng = seeded(seed + 1);
            let pinned: Vec<VideoConfig> = (1..cameras)
                .map(|_| space.at(if cheapest == 1 { 0 } else { rng.gen_range(0..space.len()) }))
                .collect();
            let alive: Vec<bool> = (0..servers).map(|j| j != dead).collect();
            let mut probe = sc.last_camera_probe(&pinned, Some(&alive)).unwrap();
            prop_assert!(probe.pinned_outcome(std::iter::empty()).is_err());
            let bits = |o: &Outcome| o.to_array().map(f64::to_bits);
            let mut placed = 0;
            for cand in space.iter() {
                let Ok(Some(out)) = probe.evaluate(cand, &NoopRecorder) else {
                    continue;
                };
                placed += 1;
                let got = probe.pinned_outcome(out.assignment.placement()).unwrap();
                let want = sc
                    .outcome_over(
                        probe.configs(),
                        out.assignment.placement(),
                        Cameras::Prefix(cameras - 1),
                    )
                    .unwrap();
                prop_assert_eq!(bits(&got), bits(&want));
            }
            prop_assert!(placed > 0 || cheapest == 0 || alive.iter().all(|&up| !up));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The slowest/fastest-uplink bounds equal the brute-force ones
        /// bit for bit: 1–6 random clips, 1–12 servers whose uplinks
        /// repeat pool values (all equal when `same == 0`), and the
        /// default or a random custom config grid.
        #[test]
        fn cost_bounds_match_the_per_server_reference(
            clips in prop::collection::vec(
                (0.82f64..1.05, 0.86f64..1.2, 0.8f64..1.3, 0.6f64..1.6),
                1..=6,
            ),
            servers in prop::collection::vec((0usize..9, 1.0f64..60.0), 1..=12),
            same in 0usize..4,
            (custom, res_steps, fps_steps) in (
                0usize..2,
                prop::collection::vec(1.0f64..400.0, 1..=5),
                prop::collection::vec(0.2f64..8.0, 1..=4),
            ),
        ) {
            let clips: Vec<ClipProfile> = clips
                .into_iter()
                .enumerate()
                .map(|(i, (a, c, b, m))| ClipProfile::new(format!("prop{i}"), a, c, b, m))
                .collect();
            let mut uplinks: Vec<f64> = servers
                .iter()
                .map(|&(k, mbps)| UPLINK_POOL_MBPS.get(k).copied().unwrap_or(mbps) * 1e6)
                .collect();
            if same == 0 {
                let first = uplinks[0];
                uplinks.fill(first);
            }
            let space = if custom == 0 {
                ConfigSpace::default()
            } else {
                ConfigSpace::new(knob_grid(100.0, &res_steps), knob_grid(0.5, &fps_steps))
            };
            let sc = Scenario::new(clips, uplinks, space);
            prop_assert_eq!(
                bound_bits(sc.cost_bounds()),
                bound_bits(cost_bounds_reference(&sc))
            );
        }
    }

    fn bound_bits(b: Vec<(f64, f64)>) -> Vec<(u64, u64)> {
        b.into_iter()
            .map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
            .collect()
    }

    fn prop_clip(name: String, (a, c, b, m): (f64, f64, f64, f64)) -> ClipProfile {
        ClipProfile::new(name, a, c, b, m)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A random sequence of camera additions and removals, with the
        /// bounds read at random points between them (so some
        /// derivations carry computed extremes and some do not), gives bounds
        /// bit-equal to the brute-force reference at every read, and at
        /// the end also to `Scenario::new` over the same clips.
        #[test]
        fn derived_bounds_match_a_fresh_build(
            clips in prop::collection::vec(
                (0.82f64..1.05, 0.86f64..1.2, 0.8f64..1.3, 0.6f64..1.6),
                1..=4,
            ),
            servers in prop::collection::vec((0usize..9, 1.0f64..60.0), 1..=6),
            steps in prop::collection::vec(
                (
                    0usize..3,
                    0usize..16,
                    (0.82f64..1.05, 0.86f64..1.2, 0.8f64..1.3, 0.6f64..1.6),
                    0usize..3,
                ),
                1..=10,
            ),
        ) {
            let uplinks: Vec<f64> = servers
                .iter()
                .map(|&(k, mbps)| UPLINK_POOL_MBPS.get(k).copied().unwrap_or(mbps) * 1e6)
                .collect();
            let clips: Vec<ClipProfile> = clips
                .into_iter()
                .enumerate()
                .map(|(i, f)| prop_clip(format!("prop{i}"), f))
                .collect();
            let mut sc = Scenario::new(clips, uplinks, ConfigSpace::default());
            for (k, (op, pick, factors, read)) in steps.into_iter().enumerate() {
                if read == 0 {
                    prop_assert_eq!(
                        bound_bits(sc.cost_bounds()),
                        bound_bits(cost_bounds_reference(&sc))
                    );
                }
                sc = if op == 0 && sc.n_videos() > 1 {
                    sc.without_camera(pick % sc.n_videos()).unwrap()
                } else {
                    sc.with_camera(prop_clip(format!("step{k}"), factors)).unwrap()
                };
            }
            let fresh = Scenario::new(
                (0..sc.n_videos()).map(|i| sc.clip(i).clone()).collect(),
                sc.uplinks().to_vec(),
                sc.config_space().clone(),
            );
            prop_assert_eq!(bound_bits(sc.cost_bounds()), bound_bits(fresh.cost_bounds()));
            prop_assert_eq!(
                bound_bits(sc.cost_bounds()),
                bound_bits(cost_bounds_reference(&sc))
            );
        }
    }

    #[test]
    fn other_uplinks_or_grids_never_reuse_stale_extremes() {
        let sc = Scenario::standard(5, 3, &mut seeded(23));
        let first = sc.cost_bounds();
        let clips = || (0..sc.n_videos()).map(|i| sc.clip(i).clone()).collect();
        // A collapsed link, as a serving boundary builds it, and a
        // coarser grid: both start from scratch.
        let slower = Scenario::new(
            clips(),
            sc.uplinks().iter().map(|u| u * 0.5).collect(),
            sc.config_space().clone(),
        );
        let coarser = Scenario::new(
            clips(),
            sc.uplinks().to_vec(),
            ConfigSpace::new(vec![360.0, 720.0], vec![1.0, 5.0]),
        );
        for other in [&slower, &coarser] {
            assert_ne!(bound_bits(other.cost_bounds()), bound_bits(first.clone()));
            let grown = other.with_camera(sc.clip(0).clone()).unwrap();
            assert_eq!(
                bound_bits(grown.cost_bounds()),
                bound_bits(cost_bounds_reference(&grown))
            );
        }
        // A planning belief moves no bound: the bounds read true uplinks.
        let believed = sc
            .clone()
            .with_planning_uplinks(vec![1e6; 3], 1.0)
            .unwrap()
            .without_camera(4)
            .unwrap();
        assert_eq!(
            bound_bits(believed.cost_bounds()),
            bound_bits(cost_bounds_reference(&believed))
        );
        assert_eq!(believed.planning_uplinks(), &[1e6; 3]);
    }

    #[test]
    fn derivations_refuse_per_camera_attachments_and_bad_indices() {
        let sc = Scenario::uniform(2, 2, 20e6, 5);
        let clip = sc.clip(0).clone();
        let linked = sc
            .clone()
            .with_link_models(vec![LinkModel::constant(20e6); 2]);
        let faulted = sc.clone().with_fault_plan(FaultPlan::none(2, 2));
        for attached in [&linked, &faulted] {
            assert_eq!(
                attached.with_camera(clip.clone()).unwrap_err(),
                DeriveError::PerCameraAttachment
            );
            assert_eq!(
                attached.without_camera(0).unwrap_err(),
                DeriveError::PerCameraAttachment
            );
        }
        assert_eq!(
            sc.without_camera(2).unwrap_err(),
            DeriveError::NoSuchCamera {
                camera: 2,
                cameras: 2
            }
        );
        let single = sc.without_camera(0).unwrap();
        assert_eq!(single.clip(0).name, sc.clip(1).name);
        assert_eq!(
            single.without_camera(0).unwrap_err(),
            DeriveError::LastCamera
        );
    }

    #[test]
    fn high_rate_configs_split_into_more_streams() {
        let sc = small_scenario();
        // 2160 px ~ 0.27 s proc; at 15 fps p*s ~ 4 -> splits.
        let cfgs = vec![
            VideoConfig::new(2160.0, 15.0),
            VideoConfig::new(360.0, 1.0),
            VideoConfig::new(360.0, 1.0),
            VideoConfig::new(360.0, 1.0),
        ];
        // May or may not be feasible on 3 servers; only check the split
        // happens when scheduling succeeds.
        if let Ok(out) = sc.evaluate(&cfgs) {
            assert!(out.assignment.streams.len() > 4);
        }
    }

    #[test]
    fn planning_uplinks_default_to_true_uplinks() {
        let sc = small_scenario();
        assert_eq!(sc.planning_uplinks(), sc.uplinks());
        assert!(sc.link_models().is_none());
    }

    #[test]
    fn planning_override_divides_by_headroom() {
        let sc = Scenario::uniform(4, 2, 20e6, 5)
            .with_planning_uplinks(vec![30e6, 10e6], 1.25)
            .unwrap();
        assert_eq!(sc.planning_uplinks(), &[24e6, 8e6]);
        // True uplinks untouched.
        assert_eq!(sc.uplinks(), &[20e6, 20e6]);
        let back = sc.clear_planning_uplinks();
        assert_eq!(back.planning_uplinks(), &[20e6, 20e6]);
    }

    #[test]
    fn bad_planning_beliefs_are_errors() {
        let sc = || Scenario::uniform(4, 2, 20e6, 5);
        let err =
            |est: Vec<f64>, headroom: f64| sc().with_planning_uplinks(est, headroom).unwrap_err();
        assert_eq!(
            err(vec![20e6], 1.0),
            PlanningError::WrongLength {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(err(vec![20e6; 2], 0.0), PlanningError::Headroom(0.0));
        assert_eq!(err(vec![20e6; 2], -1.0), PlanningError::Headroom(-1.0));
        assert!(matches!(err(vec![20e6; 2], f64::NAN), PlanningError::Headroom(h) if h.is_nan()));
        assert_eq!(err(vec![20e6, 0.0], 1.0), PlanningError::Estimate(0.0));
        assert_eq!(
            err(vec![f64::INFINITY, 20e6], 1.0),
            PlanningError::Estimate(f64::INFINITY)
        );
        assert_eq!(
            sc().with_bonded_planning(5e5, 1.0).unwrap_err(),
            PlanningError::NoBundles
        );
    }

    #[test]
    fn bonded_planning_derives_belief_from_bundle_effective_rates() {
        use eva_bond::{BondPolicy, BondedLink, LinkBundle};

        let trio = || {
            LinkBundle::new(vec![
                BondedLink::new(LinkModel::constant(12e6), 0.030),
                BondedLink::new(LinkModel::constant(8e6), 0.080),
                BondedLink::new(LinkModel::constant(5e6), 0.200),
            ])
        };
        let frame_bits = 5e5;
        let eff = trio().effective_rate_bps(BondPolicy::EarliestDelivery, frame_bits);
        let sc = Scenario::uniform(4, 2, 20e6, 5)
            .with_link_bundles(vec![trio(); 4], BondPolicy::EarliestDelivery)
            .with_bonded_planning(frame_bits, 1.25)
            .unwrap();
        assert_eq!(sc.bond_policy(), BondPolicy::EarliestDelivery);
        assert_eq!(sc.link_bundles().map(<[LinkBundle]>::len), Some(4));
        assert_eq!(sc.planning_uplinks(), &[eff / 1.25; 2]);
        // True uplinks untouched; link models remain unset (bundles and
        // single-trace models are mutually exclusive).
        assert_eq!(sc.uplinks(), &[20e6, 20e6]);
        assert!(sc.link_models().is_none());
    }

    #[test]
    #[should_panic(expected = "not both")]
    fn bundles_and_link_models_are_mutually_exclusive() {
        use eva_bond::{BondPolicy, LinkBundle};
        let _ = Scenario::uniform(2, 2, 20e6, 5)
            .with_link_models(vec![LinkModel::constant(20e6); 2])
            .with_link_bundles(
                vec![LinkBundle::single(LinkModel::constant(20e6), 0.0); 2],
                BondPolicy::EarliestDelivery,
            );
    }

    #[test]
    fn schedule_follows_planning_not_truth() {
        // Two servers, uniform true uplinks. Planning believes server 1
        // is far faster: the comm-latency matching must send every
        // group there or to equally-cheap options — compare against the
        // belief-swapped override, which must mirror the preference.
        let sc = Scenario::uniform(2, 2, 20e6, 8);
        let cfgs = low_config(2);
        let fast1 = sc
            .clone()
            .with_planning_uplinks(vec![1e6, 50e6], 1.0)
            .unwrap()
            .schedule(&cfgs)
            .unwrap();
        let fast0 = sc
            .with_planning_uplinks(vec![50e6, 1e6], 1.0)
            .unwrap()
            .schedule(&cfgs)
            .unwrap();
        let on =
            |a: &Assignment, server: usize| a.server_of.iter().filter(|&&s| s == server).count();
        assert!(on(&fast1, 1) >= on(&fast1, 0));
        assert!(on(&fast0, 0) >= on(&fast0, 1));
    }

    #[test]
    fn evaluate_charges_true_uplinks_under_planning_override() {
        // An optimistic belief must not lower the *realized* latency.
        let sc = Scenario::uniform(4, 3, 20e6, 42);
        let cfgs = low_config(4);
        let honest = sc.evaluate(&cfgs).unwrap().outcome;
        let optimistic = sc
            .clone()
            .with_planning_uplinks(vec![100e6; 3], 1.0)
            .unwrap()
            .evaluate(&cfgs)
            .unwrap()
            .outcome;
        // Same uniform uplinks everywhere -> identical realized latency
        // regardless of belief-driven placement shuffling.
        assert!((optimistic.latency_s - honest.latency_s).abs() < 1e-12);
    }

    #[test]
    fn fault_plan_attaches_and_clears() {
        use eva_fault::FaultPlan;
        let sc = small_scenario();
        assert!(sc.fault_plan().is_none());
        let plan = FaultPlan::none(3, 4).with_server_crashes(60.0, 10.0, 7);
        let sc = sc.with_fault_plan(plan.clone());
        assert_eq!(sc.fault_plan(), Some(&plan));
        let sc = sc.clear_fault_plan();
        assert!(sc.fault_plan().is_none());
    }

    #[test]
    fn surviving_evaluation_matches_unrestricted_when_all_alive() {
        let sc = small_scenario();
        let cfgs = low_config(4);
        let plain = sc.evaluate(&cfgs).unwrap();
        let gated = sc
            .evaluate_surviving(&cfgs, Some(&vec![true; sc.n_servers()]), &NoopRecorder)
            .unwrap();
        assert_eq!(
            plain.outcome.latency_s.to_bits(),
            gated.outcome.latency_s.to_bits()
        );
        assert_eq!(plain.assignment.server_of, gated.assignment.server_of);
    }

    #[test]
    fn surviving_evaluation_avoids_dead_servers() {
        let sc = small_scenario();
        let cfgs = low_config(4);
        let alive = vec![true, false, true];
        let out = sc
            .evaluate_surviving(&cfgs, Some(&alive), &NoopRecorder)
            .unwrap();
        assert!(out.assignment.server_of.iter().all(|&s| s != 1));
    }

    #[test]
    fn link_models_attach_per_camera() {
        let sc = Scenario::uniform(3, 2, 20e6, 4).with_link_models(vec![
            LinkModel::constant(20e6),
            LinkModel::gilbert_elliott(25e6, 8e6, 3.0, 1.5, 1),
            LinkModel::sinusoid(20e6, 5e6, 30.0, 0.05, 2),
        ]);
        assert!(sc.link_models().is_some());
        assert_eq!(sc.link_model(0), Some(&LinkModel::constant(20e6)));
        assert!(sc.link_model(1).unwrap().nominal_bps() < 25e6);
    }

    use eva_sched::StreamTiming;
}
