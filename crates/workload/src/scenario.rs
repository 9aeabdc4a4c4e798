//! A full EVA deployment: cameras (clips) + edge servers (uplinks),
//! with the analytic system-level outcome of a joint decision.
//!
//! `Scenario::evaluate` is the paper's Eq. 2-5 evaluated under the
//! Algorithm-1 placement: the quantity the BO loop optimizes and the
//! discrete-event simulator cross-checks.

use eva_bond::{BondPolicy, LinkBundle};
use eva_fault::FaultPlan;
use eva_net::LinkModel;
use eva_obs::{NoopRecorder, Recorder};
use eva_sched::{assign_groups_to_servers, Assignment, GroupingError, StreamId, StreamTiming};
use rand::Rng;

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

/// An EVA deployment instance.
#[derive(Debug, Clone)]
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
        }
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
            .map(|(i, c)| self.surfaces[i].bits_per_frame(c.resolution))
            .collect();
        assign_groups_to_servers(&timings, &bits, self.planning_uplinks(), alive, rec)
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

        // Per-source aggregates (splitting does not change source totals).
        let mut acc_sum = 0.0;
        let mut net = 0.0;
        let mut com = 0.0;
        let mut eng = 0.0;
        for (i, c) in configs.iter().enumerate() {
            let s = &self.surfaces[i];
            acc_sum += s.accuracy(c);
            net += s.bandwidth_bps(c);
            com += s.compute_tflops(c);
            eng += s.power_w(c);
        }

        // Latency is averaged over the post-split stream set (Eq. 5 sums
        // over the M scheduler-visible streams), using each part's
        // assigned uplink.
        let mut lat_sum = 0.0;
        for (idx, st) in assignment.streams.iter().enumerate() {
            let src = st.id.source;
            let uplink = self.uplink_bps[assignment.server_of[idx]];
            lat_sum += self.surfaces[src].e2e_latency_secs(&configs[src], uplink);
        }
        let m = assignment.streams.len().max(1) as f64;

        Ok(ScenarioOutcome {
            outcome: Outcome {
                latency_s: lat_sum / m,
                accuracy: acc_sum / configs.len() as f64,
                network_bps: net,
                compute_tflops: com,
                power_w: eng,
            },
            assignment,
        })
    }

    /// Per-objective `(min, max)` bounds of the system-level *cost*
    /// vector (accuracy negated), computed from single-stream extremes
    /// over the config grid and uplink set: latency and accuracy stay at
    /// per-stream (mean) scale, the three resource totals scale by the
    /// number of cameras. Used to normalize outcomes before preference
    /// evaluation (Sec. 2.3 normalizes to (0,1)).
    pub fn cost_bounds(&self) -> Vec<(f64, f64)> {
        use crate::outcome::idx::{ACCURACY, LATENCY};
        let n = self.n_videos() as f64;
        let mut mins = [f64::INFINITY; crate::outcome::N_OBJECTIVES];
        let mut maxs = [f64::NEG_INFINITY; crate::outcome::N_OBJECTIVES];
        // Latency is the only objective that reads the uplink, and
        // `proc + bits / b` never rises with `b`: under round-to-nearest
        // a larger positive divisor never gives a larger quotient, and
        // adding the same `proc` keeps the order. So the slowest uplink
        // holds every per-(camera, config) latency maximum and the
        // fastest every minimum; no server in between moves an extreme.
        // `new` guarantees at least one uplink, and every one positive.
        let slowest = self
            .uplink_bps
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let fastest = self.uplink_bps.iter().copied().fold(0.0, f64::max);
        for (i, s) in self.surfaces.iter().enumerate() {
            for c in self.space.iter() {
                let mut cost = self.evaluate_stream(i, &c, slowest).to_array();
                cost[ACCURACY] = -cost[ACCURACY];
                for d in 0..cost.len() {
                    mins[d] = mins[d].min(cost[d]);
                    maxs[d] = maxs[d].max(cost[d]);
                }
                let fast = s.e2e_latency_secs(&c, fastest);
                mins[LATENCY] = mins[LATENCY].min(fast);
                maxs[LATENCY] = maxs[LATENCY].max(fast);
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
            let bits = |b: Vec<(f64, f64)>| -> Vec<(u64, u64)> {
                b.into_iter().map(|(lo, hi)| (lo.to_bits(), hi.to_bits())).collect()
            };
            prop_assert_eq!(bits(sc.cost_bounds()), bits(cost_bounds_reference(&sc)));
        }
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
