//! The outcome-model bank: one GP per (camera, objective).
//!
//! Algorithm 2 lines 1-4: profile a few configurations, fit GP outcome
//! models; line 18: update them with the observations the BO loop
//! makes. Inputs are the normalized `[r/2160, s/30, B/100Mbps]`
//! features of `eva_workload::profiler::features_of`; objectives that
//! do not depend on a feature (e.g. bandwidth on uplink) get that
//! irrelevance discovered by the ARD lengthscales.
//!
//! Clips share one surface *family* (Fig. 2's "consistent pattern"), so
//! kernel hyperparameters are fitted once per objective on the first
//! camera's data and reused — data (not hypers) stays per-camera. This
//! cuts fitting cost by ~M× without hurting accuracy.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use eva_obs::{span, Phase, Recorder};
use eva_workload::profiler::{features_of, N_FEATURES};
use eva_workload::{Outcome, ProfileSample, Profiler, Scenario, VideoConfig, N_OBJECTIVES};
use rand::Rng;
use rayon::prelude::*;

use crate::error::{require, CoreError};
use crate::gp::{fit_gp, theta_of, FitConfig, GpModel, PrefixSolve};

/// Minimum profiling samples per camera the initial GP fits need.
const MIN_PROFILING_SAMPLES: usize = 4;

/// A profiling design: the (config, uplink) grid points every camera
/// measures. Sharing one design across cameras makes the GP inputs `X`
/// identical bank-wide, so one kernel matrix / Cholesky factor per
/// objective serves all M cameras (`GpModel::with_targets`) — and a
/// cached design can be re-measured across epochs without re-drawing.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilingDesign {
    /// Configurations to profile, one per sample.
    pub configs: Vec<VideoConfig>,
    /// Uplink bandwidth (bits/s) paired with each config.
    pub uplinks: Vec<f64>,
}

impl ProfilingDesign {
    /// Draw a design of `samples_per_camera` points: configs uniform
    /// over the scenario's config space, uplinks uniform over its
    /// server pool (so the latency GP sees bandwidth variation).
    pub fn draw<R: Rng + ?Sized>(
        scenario: &Scenario,
        samples_per_camera: usize,
        rng: &mut R,
    ) -> Self {
        let space = scenario.config_space();
        let mut configs = Vec::with_capacity(samples_per_camera);
        let mut uplinks = Vec::with_capacity(samples_per_camera);
        for _ in 0..samples_per_camera {
            configs.push(space.at(rng.gen_range(0..space.len())));
            uplinks.push(scenario.uplinks()[rng.gen_range(0..scenario.n_servers())]);
        }
        ProfilingDesign { configs, uplinks }
    }

    /// Number of profiling points per camera.
    pub(crate) fn len(&self) -> usize {
        self.configs.len()
    }
}

/// GPs for all cameras and objectives.
///
/// Camera rows sit behind `Arc`, so cloning the bank is `M` refcount
/// bumps rather than a deep copy of 5·M GP models — the BO loop clones
/// the bank into a fresh surrogate every iteration, and at M = 2000 the
/// deep copy (~300k allocations) dominated the decision epoch.
/// [`OutcomeModelBank::update_all`] replaces a camera's row wholesale
/// (copy-on-write), so clones held by in-flight surrogates are
/// unaffected.
///
/// A GP back-substitutes for its weights on first read
/// (`GpModel::solve_weights`). Predictions read models through the
/// bank, which counts the solves they ran in a counter its clones
/// share; a decide reports it as `gp.weight_solves`.
#[derive(Debug, Clone)]
pub struct OutcomeModelBank {
    /// `models[camera][objective]`.
    models: Vec<Arc<Vec<GpModel>>>,
    /// Weight back-substitutions run by reads through this bank and
    /// its clones.
    weight_solves: Arc<AtomicUsize>,
}

impl OutcomeModelBank {
    /// Profile every camera with `samples_per_camera` random grid
    /// configurations (uplinks drawn from the scenario's pool) and fit
    /// the 5·M GPs. `rel_noise` is the profiling measurement noise.
    ///
    /// `warm[obj]` optionally seeds the hyperparameter search with the
    /// log-parameter vector of a previous epoch's fitted model for
    /// objective `obj` (see `OutcomeModelBank::shared_thetas`); with
    /// `warm: None` this draws exactly the same RNG stream as a cold
    /// fit. The whole fit runs under an `outcome_fit` span and per-GP
    /// fit internals go through `rec`.
    ///
    /// Numerical failure (a kernel matrix that stays non-PD after the
    /// Cholesky jitter ladder) is returned as
    /// [`CoreError::OutcomeModel`], not panicked.
    pub fn fit_initial<R: Rng + ?Sized>(
        scenario: &Scenario,
        samples_per_camera: usize,
        rel_noise: f64,
        warm: Option<&[Vec<f64>]>,
        rng: &mut R,
        rec: &dyn Recorder,
    ) -> Result<Self, CoreError> {
        if samples_per_camera < MIN_PROFILING_SAMPLES {
            return Err(CoreError::InsufficientProfiling {
                needed: MIN_PROFILING_SAMPLES,
                got: samples_per_camera,
            });
        }
        let design = ProfilingDesign::draw(scenario, samples_per_camera, rng);
        Self::fit_designed(scenario, &design, rel_noise, warm, rng, rec)
    }

    /// [`OutcomeModelBank::fit_initial`] on an explicit profiling
    /// design. All cameras measure the *same* (config, uplink) points,
    /// so the GP inputs `X` are identical bank-wide: camera 0 fits
    /// hyperparameters per objective (one O(n³) Cholesky each), seeded
    /// from `warm` when given, and every later camera is a
    /// hyperparameter-free rebuild that reuses that factor through
    /// `GpModel::with_targets` (O(n²) per model). Their profiling
    /// samples are drawn sequentially and the models built in parallel,
    /// keeping the RNG stream deterministic and independent of thread
    /// scheduling. Callers that cache the design across epochs also
    /// skip re-drawing it.
    pub fn fit_designed<R: Rng + ?Sized>(
        scenario: &Scenario,
        design: &ProfilingDesign,
        rel_noise: f64,
        warm: Option<&[Vec<f64>]>,
        rng: &mut R,
        rec: &dyn Recorder,
    ) -> Result<Self, CoreError> {
        if design.len() < MIN_PROFILING_SAMPLES {
            return Err(CoreError::InsufficientProfiling {
                needed: MIN_PROFILING_SAMPLES,
                got: design.len(),
            });
        }
        let _fit_span = span(rec, Phase::OutcomeFit);
        if scenario.n_videos() == 0 {
            return Ok(OutcomeModelBank::from_rows(Vec::new()));
        }

        // Measure the shared design on one camera (noise draws consume
        // the RNG; the design itself is fixed).
        let draw_samples = |cam: usize, rng: &mut R| -> Vec<ProfileSample> {
            let profiler = Profiler::new(scenario.surfaces(cam).clone())
                .with_noise(rel_noise, rel_noise.min(0.02));
            design
                .configs
                .iter()
                .zip(&design.uplinks)
                .map(|(cfg, &uplink)| profiler.measure(cfg, uplink, rng))
                .collect()
        };

        // Camera 0: the only hyperparameter fits in the bank.
        let cam0_samples = draw_samples(0, rng);
        let xs0: Vec<Vec<f64>> = cam0_samples.iter().map(|s| s.features().to_vec()).collect();
        let mut cam0_models = Vec::with_capacity(N_OBJECTIVES);
        for obj in 0..N_OBJECTIVES {
            let ys: Vec<f64> = cam0_samples
                .iter()
                .map(|s| s.outcome.to_array()[obj])
                .collect();
            // 60 evals per local search: the solver's simplex starts at
            // ~10 % of the (log-space) bound span and spends everything
            // past ~50 evals shrinking the simplex, not moving the
            // optimum — measured fit quality (R², noise recovery) is
            // unchanged from 120 while halving outcome-fit cost. One
            // random restart on top of the deterministic start (and none
            // once a warm seed exists) keeps the multi-start insurance
            // without tripling the bill.
            let cfg = FitConfig {
                restarts: 1,
                max_evals: 60,
                warm_start: warm.and_then(|w| w.get(obj)).cloned(),
                ..Default::default()
            };
            cam0_models.push(fit_gp(&xs0, &ys, &cfg, rng, rec)?);
        }

        // Remaining cameras: draw sequentially (deterministic RNG
        // stream), build in parallel. The shared design makes every
        // camera's `X` equal to camera 0's, so each build is a
        // target-swap on camera 0's cached Cholesky factor instead of a
        // fresh decomposition.
        let rest_samples: Vec<Vec<ProfileSample>> = (1..scenario.n_videos())
            .map(|cam| draw_samples(cam, rng))
            .collect();
        let rest_models: Vec<Vec<GpModel>> = rest_samples
            .par_iter()
            .map(|samples| {
                (0..N_OBJECTIVES)
                    .map(|obj| {
                        let ys: Vec<f64> =
                            samples.iter().map(|s| s.outcome.to_array()[obj]).collect();
                        cam0_models[obj].with_targets(ys)
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;

        let mut models = Vec::with_capacity(scenario.n_videos());
        models.push(Arc::new(cam0_models));
        models.extend(rest_models.into_iter().map(Arc::new));
        if rec.enabled() {
            rec.add("core.outcome_fits", 1);
            if warm.is_some() {
                rec.add("core.outcome_fit.warm", 1);
            }
            rec.observe(
                "core.profiling_samples",
                (design.len() * scenario.n_videos()) as f64,
            );
        }
        Ok(OutcomeModelBank::from_rows(models))
    }

    fn from_rows(models: Vec<Arc<Vec<GpModel>>>) -> Self {
        OutcomeModelBank {
            models,
            weight_solves: Arc::default(),
        }
    }

    /// The fitted log-parameter vectors `[obj] -> theta` of the shared
    /// (camera 0) kernels — the warm-start seed for the next epoch's
    /// [`OutcomeModelBank::fit_initial`].
    pub(crate) fn shared_thetas(&self) -> Vec<Vec<f64>> {
        self.models
            .first()
            .map(|cam0| cam0.iter().map(theta_of).collect())
            .unwrap_or_default()
    }

    /// Number of cameras covered.
    #[cfg(test)]
    pub(crate) fn n_cameras(&self) -> usize {
        self.models.len()
    }

    /// The GP for one (camera, objective) pair.
    pub fn model(&self, camera: usize, objective: usize) -> &GpModel {
        &self.models[camera][objective]
    }

    /// [`Self::model`] with its weights solved, counting the solve if
    /// this read ran it: the path every prediction takes.
    pub(crate) fn read(&self, camera: usize, objective: usize) -> &GpModel {
        let model = self.model(camera, objective);
        if model.solve_weights() {
            self.weight_solves.fetch_add(1, Ordering::Relaxed);
        }
        model
    }

    /// Weight back-substitutions that predictions through this bank and
    /// its clones have run (the `gp.weight_solves` counter of a decide).
    pub(crate) fn weight_solves(&self) -> usize {
        self.weight_solves.load(Ordering::Relaxed)
    }

    /// Condition camera `camera`'s models on a new measured sample, one
    /// model at a time: the reference [`Self::update_all`] must match.
    #[cfg(test)]
    pub(crate) fn update(
        &mut self,
        camera: usize,
        sample: &ProfileSample,
    ) -> Result<(), CoreError> {
        let x = sample.features().to_vec();
        let ys = sample.outcome.to_array();
        if x.iter().chain(&ys).any(|v| !v.is_finite()) {
            return Err(CoreError::NonFinite {
                context: "profile sample fed to OutcomeModelBank::update",
            });
        }
        // Stage all five updated models first so a mid-way failure
        // cannot leave the camera with a half-updated bank.
        let mut staged = Vec::with_capacity(N_OBJECTIVES);
        for (model, y) in self.models[camera].iter().zip(ys) {
            staged.push(model.condition(std::slice::from_ref(&x), &[y])?);
        }
        self.models[camera] = Arc::new(staged);
        Ok(())
    }

    /// Condition every camera's models on a new measured sample, one
    /// sample per camera (Algorithm 2 line 18 for a whole measured
    /// configuration; hyperparameters are kept).
    ///
    /// A GP's factor depends only on its inputs, and cameras measured
    /// at the same (config, uplink) in every evaluation share one: a
    /// sequential first pass registers each (factor, input) pair in a
    /// `SolveMemo`, and in the per-camera pass the first camera to
    /// reach a pair builds its grown factor (`GpModel::extend_factor`,
    /// seeded from the design-row solve shared by the whole prefix).
    /// Per camera, `GpModel::condition_on` then only appends the
    /// target and one forward row; the back-substitution for its
    /// weights waits for the model's first read. Every camera
    /// conditioned on one pair receives the same factor, so sharing
    /// follows from construction and never compares histories.
    /// Building on first use keeps a factor's parent alive only until
    /// the last camera on it has moved on. The result is bit-identical
    /// to conditioning each camera's models on their own and ignoring
    /// errors. Each updated row is swapped in as one new `Arc`, so
    /// clones of this bank held by in-flight surrogates keep the
    /// pre-update row.
    ///
    /// A camera whose sample is non-finite or whose conditioning fails
    /// keeps its previous row: the bank degrades to a stale model rather
    /// than poisoning the run. The returned [`BankUpdate`] counts those
    /// skips, the conditionings that fell back to a full rebuild, and
    /// the prefix solves and factor extensions computed. A sample count
    /// that does not match the bank's cameras is
    /// [`CoreError::InvalidInput`].
    pub fn update_all(&mut self, samples: &[ProfileSample]) -> Result<BankUpdate, CoreError> {
        require(
            samples.len() == self.models.len(),
            "update_all needs exactly one sample per camera",
        )?;
        // Per camera: the measured objectives, or `None` for a
        // non-finite sample.
        let measured: Vec<Option<([f64; N_FEATURES], [f64; N_OBJECTIVES])>> = samples
            .iter()
            .map(|sample| {
                let x = sample.features();
                let y = sample.outcome.to_array();
                let finite = x.iter().chain(&y).all(|v| v.is_finite());
                finite.then_some((x, y))
            })
            .collect();
        let mut memo = SolveMemo::default();
        let slots: Vec<[usize; N_OBJECTIVES]> = self
            .models
            .iter()
            .zip(&measured)
            .map(|(row, m)| {
                let mut slots = [0; N_OBJECTIVES];
                if let Some((x, _)) = m {
                    for (slot, model) in slots.iter_mut().zip(row.iter()) {
                        *slot = memo.slot(model, x);
                    }
                }
                slots
            })
            .collect();
        let extensions = memo.finish();

        // Per camera: `None` when skipped, else the number of its
        // conditionings that fell back to a rebuild.
        let outcomes: Vec<Option<usize>> = self
            .models
            .par_iter_mut()
            .zip(measured.par_iter().zip(slots.par_iter()))
            .map(|(row, (m, slots))| {
                let (x, y) = m.as_ref()?;
                let mut staged = Vec::with_capacity(N_OBJECTIVES);
                let mut rebuilds = 0;
                for ((model, &slot), &y) in row.iter().zip(slots).zip(y) {
                    let (_, ext) = extensions.get(slot, |pre| model.extend_factor(x, pre));
                    let ext = ext.as_ref().ok()?;
                    staged.push(model.condition_on(ext, &[y]).ok()?);
                    rebuilds += usize::from(ext.rebuilt());
                }
                *row = Arc::new(staged);
                Some(rebuilds)
            })
            .collect();
        let skipped = outcomes.iter().filter(|o| o.is_none()).count();
        Ok(BankUpdate {
            skipped,
            rebuilds: outcomes.iter().flatten().sum(),
            conditioned: (outcomes.len() - skipped) * N_OBJECTIVES,
            prefix_solves: extensions.prefix_solves(),
            factor_extensions: extensions.computed().filter(|e| e.is_ok()).count(),
        })
    }

    /// Predictive mean outcome of one camera under a config + uplink.
    pub(crate) fn predict(&self, camera: usize, config: &VideoConfig, uplink_bps: f64) -> Outcome {
        let x = features_of(config, uplink_bps);
        let v: Vec<f64> = (0..N_OBJECTIVES)
            .map(|obj| self.read(camera, obj).predict_mean(&x))
            .collect();
        Outcome::from_vec(&v)
    }

    /// Predictive mean and variance of one (camera, objective) at a
    /// config + uplink.
    pub fn predict_objective(
        &self,
        camera: usize,
        objective: usize,
        config: &VideoConfig,
        uplink_bps: f64,
    ) -> (f64, f64) {
        let x = features_of(config, uplink_bps);
        self.read(camera, objective).predict(&x)
    }
}

/// What one [`OutcomeModelBank::update_all`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankUpdate {
    /// Cameras that kept their previous row: a non-finite sample or a
    /// conditioning failure.
    pub skipped: usize,
    /// Conditionings that fell back to a full rebuild and so left the
    /// shared design prefix.
    pub rebuilds: usize,
    /// Models conditioned: one per objective of every updated camera.
    pub conditioned: usize,
    /// Distinct design-row solves computed (`SolveMemo` prefix misses).
    pub prefix_solves: usize,
    /// Grown factors built: one per distinct (factor, input) pair,
    /// against one conditioning per camera and objective.
    pub factor_extensions: usize,
}

impl BankUpdate {
    /// Report the pass as `core.bank_update_skipped`,
    /// `core.bank_rebuilds`, `gp.conditionings`, `gp.prefix_solves` and
    /// `gp.factor_extensions`.
    pub(crate) fn record(&self, rec: &dyn Recorder) {
        if rec.enabled() {
            rec.add("core.bank_update_skipped", self.skipped as u64);
            rec.add("core.bank_rebuilds", self.rebuilds as u64);
            rec.add("gp.conditionings", self.conditioned as u64);
            rec.add("gp.prefix_solves", self.prefix_solves as u64);
            rec.add("gp.factor_extensions", self.factor_extensions as u64);
        }
    }
}

/// Query work shared across cameras within one bank pass, at the two
/// levels a model shares: its design prefix and its whole factor.
///
/// A sequential first pass registers every (model, input) query
/// ([`SolveMemo::slot`]); [`SolveMemo::finish`] computes each distinct
/// (prefix, input) design-row solve once, and the per-camera pass fills
/// each distinct (factor, input) slot of the returned [`SharedWork`] on
/// first use. Every camera that reaches a slot receives the same
/// value, computed from the same factor and input, so the result does
/// not depend on which camera (or thread) fills it. Ids are addresses,
/// so a memo must not outlive the pass whose models it was filled from.
///
/// Slots are numbered in insertion order, so no output depends on the
/// maps' hasher: they use [`IdHasher`], a multiply-rotate hash of the
/// keys' words, in place of the std per-map-seeded SipHash.
#[derive(Default)]
pub(crate) struct SolveMemo<'m> {
    prefixes: HashMap<(usize, [u64; N_FEATURES]), usize, BuildHasherDefault<IdHasher>>,
    prefix_queries: Vec<(&'m GpModel, [f64; N_FEATURES])>,
    /// Keyed by factor id and prefix slot (which stands for the input);
    /// the value is the factor slot.
    factors: HashMap<(usize, usize), usize, BuildHasherDefault<IdHasher>>,
    /// Prefix slot of every factor slot.
    factor_prefix: Vec<usize>,
}

impl<'m> SolveMemo<'m> {
    /// Slot of `model`'s factor-level work at `point` (a
    /// [`features_of`] vector), registering the query on first sight.
    pub(crate) fn slot(&mut self, model: &'m GpModel, point: &[f64; N_FEATURES]) -> usize {
        let point = *point;
        let prefix_queries = &mut self.prefix_queries;
        let prefix = *self
            .prefixes
            .entry((model.prefix_id(), point.map(f64::to_bits)))
            .or_insert_with(|| {
                prefix_queries.push((model, point));
                prefix_queries.len() - 1
            });
        let factor_prefix = &mut self.factor_prefix;
        *self
            .factors
            .entry((model.factor_id(), prefix))
            .or_insert_with(|| {
                factor_prefix.push(prefix);
                factor_prefix.len() - 1
            })
    }

    /// Solve every registered design-row query; the factor-level work
    /// is left to the per-camera pass.
    pub(crate) fn finish<T>(self) -> SharedWork<T> {
        let prefix = self
            .prefix_queries
            .par_iter()
            .map(|(model, x)| model.prefix_solve(x))
            .collect();
        let work = self
            .factor_prefix
            .into_iter()
            .map(|p| (p, OnceLock::new()))
            .collect();
        SharedWork { prefix, work }
    }
}

/// The hasher of [`SolveMemo`]'s maps, whose keys are model ids,
/// slot numbers and feature bits: one multiply-rotate round per 64-bit
/// word (the `FxHash` scheme), rotated on finish so the bucket index
/// sees the well-mixed high bits. Fixed, so a pass hashes the same way
/// in every run; nothing depends on it beyond lookup speed.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0; 8];
            w.copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(w));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The design-row solves of one pass and its factor-level work, filled
/// on first use by whichever camera reaches a slot first.
pub(crate) struct SharedWork<T> {
    prefix: Vec<PrefixSolve>,
    /// Prefix slot and value of every factor slot.
    work: Vec<(usize, OnceLock<T>)>,
}

impl<T> SharedWork<T> {
    /// The design-row solve and work of the query at `slot`, computing
    /// the work from the design-row solve on first use.
    pub(crate) fn get(
        &self,
        slot: usize,
        work: impl FnOnce(&PrefixSolve) -> T,
    ) -> (&PrefixSolve, &T) {
        let (prefix, cell) = &self.work[slot];
        let pre = &self.prefix[*prefix];
        (pre, cell.get_or_init(|| work(pre)))
    }

    /// Distinct design-row solves computed.
    pub(crate) fn prefix_solves(&self) -> usize {
        self.prefix.len()
    }

    /// The factor-level work computed so far.
    pub(crate) fn computed(&self) -> impl Iterator<Item = &T> {
        self.work.iter().filter_map(|(_, cell)| cell.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_obs::NoopRecorder;
    use eva_stats::metrics::r_squared;
    use eva_stats::rng::seeded;
    use eva_workload::outcome::idx;

    use crate::benefit::{OutcomeNormalizer, TruePreference};
    use crate::composite::{CompositeSampler, PreferenceEval};
    use eva_bo::SurrogateSampler as _;

    fn bank(samples: usize) -> (Scenario, OutcomeModelBank) {
        let sc = Scenario::uniform(3, 2, 20e6, 31);
        let mut rng = seeded(1);
        let bank = OutcomeModelBank::fit_initial(&sc, samples, 0.02, None, &mut rng, &NoopRecorder)
            .unwrap();
        (sc, bank)
    }

    #[test]
    fn predictions_track_ground_truth() {
        let (sc, bank) = bank(60);
        // R² across a test grid, per objective, camera 0.
        let space = sc.config_space();
        let mut truth = vec![Vec::new(); N_OBJECTIVES];
        let mut pred = vec![Vec::new(); N_OBJECTIVES];
        for c in space.iter() {
            let t = sc.evaluate_stream(0, &c, 20e6).to_vec();
            let p = bank.predict(0, &c, 20e6).to_vec();
            for d in 0..N_OBJECTIVES {
                truth[d].push(t[d]);
                pred[d].push(p[d]);
            }
        }
        for d in 0..N_OBJECTIVES {
            let r2 = r_squared(&truth[d], &pred[d]);
            assert!(r2 > 0.9, "objective {d}: R² = {r2}");
        }
    }

    #[test]
    fn update_improves_local_prediction() {
        let (sc, mut bank) = bank(12); // deliberately under-profiled
        let c = VideoConfig::new(1800.0, 25.0);
        let truth = sc.evaluate_stream(1, &c, 20e6);
        let before = bank.predict(1, &c, 20e6);
        // Feed the exact point several times (noiseless).
        let profiler = Profiler::new(sc.surfaces(1).clone()).with_noise(0.0, 0.0);
        let mut rng = seeded(2);
        for _ in 0..3 {
            let s = profiler.measure(&c, 20e6, &mut rng);
            bank.update(1, &s).unwrap();
        }
        let after = bank.predict(1, &c, 20e6);
        let err = |o: &Outcome| (o.accuracy - truth.accuracy).abs();
        assert!(
            err(&after) <= err(&before) + 1e-9,
            "update made accuracy prediction worse: {} -> {}",
            err(&before),
            err(&after)
        );
        // Threshold leaves slack for the random under-profiled set the
        // hyperparameters were fit on (observed ~0.01-0.025 across RNG
        // streams).
        assert!(err(&after) < 0.03, "after err = {}", err(&after));
    }

    #[test]
    fn tiny_profiling_budget_is_an_error_not_a_panic() {
        // Regression: this used to assert! despite returning Result,
        // punching through the panic-free scheduler contract.
        let sc = Scenario::uniform(2, 2, 20e6, 31);
        let mut rng = seeded(9);
        let err =
            OutcomeModelBank::fit_initial(&sc, 3, 0.02, None, &mut rng, &NoopRecorder).unwrap_err();
        match err {
            CoreError::InsufficientProfiling { needed, got } => {
                assert_eq!((needed, got), (4, 3));
            }
            other => panic!("wrong error variant: {other:?}"),
        }
    }

    #[test]
    fn warm_fit_matches_cold_rng_stream_and_quality() {
        let sc = Scenario::uniform(3, 2, 20e6, 31);
        // warm: None is the cold path; telemetry must not perturb its
        // RNG stream, so a recorded fit equals an unrecorded one.
        let mut rng_a = seeded(5);
        let mut rng_b = seeded(5);
        let cold =
            OutcomeModelBank::fit_initial(&sc, 20, 0.02, None, &mut rng_a, &NoopRecorder).unwrap();
        let flight = eva_obs::FlightRecorder::new();
        let cold2 =
            OutcomeModelBank::fit_initial(&sc, 20, 0.02, None, &mut rng_b, &flight).unwrap();
        assert_eq!(
            flight.snapshot().metrics.counter("gp.fits"),
            N_OBJECTIVES as u64
        );
        let c = VideoConfig::new(1440.0, 20.0);
        for cam in 0..3 {
            let a = cold.predict(cam, &c, 20e6).to_vec();
            let b = cold2.predict(cam, &c, 20e6).to_vec();
            assert_eq!(a, b, "camera {cam}");
        }
        // Warm-started refit from the cold thetas stays predictive.
        let thetas = cold.shared_thetas();
        assert_eq!(thetas.len(), N_OBJECTIVES);
        let mut rng_c = seeded(6);
        let warm = OutcomeModelBank::fit_initial(
            &sc,
            20,
            0.02,
            Some(&thetas),
            &mut rng_c,
            &eva_obs::NoopRecorder,
        )
        .unwrap();
        let truth = sc.evaluate_stream(0, &c, 20e6).accuracy;
        let pred = warm.predict(0, &c, 20e6).accuracy;
        assert!((pred - truth).abs() < 0.1, "warm pred {pred} vs {truth}");
    }

    #[test]
    fn designed_fit_matches_warm_path_and_shares_inputs() {
        let sc = Scenario::uniform(3, 2, 20e6, 31);
        // Drawing the design up front then fitting must equal the
        // public warm path exactly (it is the same RNG stream).
        let mut rng_a = seeded(5);
        let mut rng_b = seeded(5);
        let via_warm =
            OutcomeModelBank::fit_initial(&sc, 20, 0.02, None, &mut rng_a, &NoopRecorder).unwrap();
        let design = ProfilingDesign::draw(&sc, 20, &mut rng_b);
        let via_design =
            OutcomeModelBank::fit_designed(&sc, &design, 0.02, None, &mut rng_b, &NoopRecorder)
                .unwrap();
        let c = VideoConfig::new(1440.0, 20.0);
        for cam in 0..3 {
            assert_eq!(
                via_warm.predict(cam, &c, 20e6).to_vec(),
                via_design.predict(cam, &c, 20e6).to_vec(),
                "camera {cam}"
            );
        }
        // The shared design makes every camera's training inputs equal
        // to camera 0's (the with_targets fast path requires it).
        for cam in 1..3 {
            for obj in 0..N_OBJECTIVES {
                assert_eq!(
                    via_design.model(cam, obj).train_x(),
                    via_design.model(0, obj).train_x(),
                );
            }
        }
        // A too-small design is rejected like a too-small budget.
        let tiny = ProfilingDesign::draw(&sc, 3, &mut seeded(1));
        assert!(OutcomeModelBank::fit_designed(
            &sc,
            &tiny,
            0.02,
            None,
            &mut seeded(1),
            &NoopRecorder
        )
        .is_err());
    }

    #[test]
    fn latency_model_sees_uplink() {
        let (_, bank) = bank(80);
        let c = VideoConfig::new(1080.0, 10.0);
        let (lat_slow, _) = bank.predict_objective(0, idx::LATENCY, &c, 5e6);
        let (lat_fast, _) = bank.predict_objective(0, idx::LATENCY, &c, 30e6);
        // 5 Mbps uplink must predict noticeably higher latency...
        // unless the training scenario only had one uplink value — the
        // bank(·) scenario is uniform, so both servers share 20 Mbps and
        // the GP cannot learn the dependence. Use the spread instead:
        // prediction should at least not be wildly different.
        assert!((lat_slow - lat_fast).abs() < 0.5);
    }

    #[test]
    fn heterogeneous_uplinks_teach_latency_dependence() {
        let sc = Scenario::new(
            eva_workload::clip::clip_set(2, 3),
            vec![5e6, 30e6],
            eva_workload::ConfigSpace::default(),
        );
        let mut rng = seeded(3);
        let bank =
            OutcomeModelBank::fit_initial(&sc, 80, 0.01, None, &mut rng, &NoopRecorder).unwrap();
        let c = VideoConfig::new(1440.0, 10.0);
        let (lat_slow, _) = bank.predict_objective(0, idx::LATENCY, &c, 5e6);
        let (lat_fast, _) = bank.predict_objective(0, idx::LATENCY, &c, 30e6);
        let truth_gap =
            sc.surfaces(0).e2e_latency_secs(&c, 5e6) - sc.surfaces(0).e2e_latency_secs(&c, 30e6);
        assert!(
            lat_slow - lat_fast > 0.3 * truth_gap,
            "learned gap {} vs true gap {truth_gap}",
            lat_slow - lat_fast
        );
    }

    #[test]
    fn per_camera_models_differ_with_content() {
        let (sc, bank) = bank(60);
        // Cameras 0 and 1 have different clips; their accuracy
        // predictions at the same config should reflect that.
        let c = VideoConfig::new(1080.0, 15.0);
        let a0 = bank.predict(0, &c, 20e6).accuracy;
        let a1 = bank.predict(1, &c, 20e6).accuracy;
        let t0 = sc.evaluate_stream(0, &c, 20e6).accuracy;
        let t1 = sc.evaluate_stream(1, &c, 20e6).accuracy;
        // Predicted ordering matches the true ordering.
        assert_eq!(a0 > a1, t0 > t1, "a0={a0} a1={a1} t0={t0} t1={t1}");
    }

    /// A camera whose models left the shared design prefix (the state a
    /// fallback rebuild leaves behind).
    fn rebuild_row(bank: &mut OutcomeModelBank, cam: usize) {
        let row: Vec<GpModel> = bank.models[cam]
            .iter()
            .map(|m| m.with_added(&[], &[]).unwrap())
            .collect();
        bank.models[cam] = Arc::new(row);
    }

    fn assert_banks_bit_identical(a: &OutcomeModelBank, b: &OutcomeModelBank, sc: &Scenario) {
        let space = sc.config_space();
        for cam in 0..a.n_cameras() {
            for obj in 0..N_OBJECTIVES {
                let (ma, mb) = (a.model(cam, obj), b.model(cam, obj));
                assert_eq!(ma.n(), mb.n(), "camera {cam} objective {obj}");
                assert_eq!(ma.prefix_len(), mb.prefix_len(), "camera {cam}");
                for q in [0, space.len() / 3, space.len() - 1] {
                    for &uplink in sc.uplinks() {
                        let x = features_of(&space.at(q), uplink);
                        let (pa, pb) = (ma.predict(&x), mb.predict(&x));
                        assert_eq!(pa.0.to_bits(), pb.0.to_bits(), "mean, camera {cam}");
                        assert_eq!(pa.1.to_bits(), pb.1.to_bits(), "var, camera {cam}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// `update_all` (design-row solves and grown factors memoized
        /// across cameras) is bit-identical to per-camera `update` calls
        /// (each model growing its own factor, the path the `gp` dense
        /// oracle pins) over up to 15 rounds, on a bank mixing shared
        /// and rebuilt rows. Cameras share a factor exactly when they
        /// were fed the same inputs in every round: camera 1 always
        /// copies camera 0, camera 3 copies camera 2 for the first half
        /// of the rounds. The sampler's memoized batched posteriors on
        /// that bank match the per-point path on the unshared one.
        #[test]
        fn update_all_matches_per_camera_updates(
            seed in 0u64..1_000,
            rounds in 1usize..=15,
            rebuilt in 0usize..5,
        ) {
            let sc = Scenario::standard(5, 3, &mut seeded(seed));
            let mut bank = OutcomeModelBank::fit_initial(&sc, 12, 0.02, None, &mut seeded(seed + 1), &NoopRecorder)
                .unwrap();
            rebuild_row(&mut bank, rebuilt);
            let mut oracle = bank.clone();
            let space = sc.config_space();
            let mut rng = seeded(seed + 2);
            let mut histories: Vec<Vec<(usize, usize)>> = vec![Vec::new(); sc.n_videos()];
            for round in 0..rounds {
                // A few configs only, so cameras share queries.
                let mut inputs: Vec<(usize, usize)> = (0..sc.n_videos())
                    .map(|_| (rng.gen_range(0..3), rng.gen_range(0..sc.n_servers())))
                    .collect();
                inputs[1] = inputs[0];
                if 2 * round < rounds {
                    inputs[3] = inputs[2];
                }
                let samples: Vec<ProfileSample> = inputs
                    .iter()
                    .enumerate()
                    .map(|(cam, &(c, up))| {
                        Profiler::new(sc.surfaces(cam).clone())
                            .with_noise(0.02, 0.02)
                            .measure(&space.at(c * (space.len() / 3)), sc.uplinks()[up], &mut rng)
                    })
                    .collect();
                let report = bank.update_all(&samples).unwrap();
                proptest::prop_assert_eq!(report.skipped, 0);
                proptest::prop_assert!(report.prefix_solves <= report.factor_extensions);
                // Cameras 0 and 1 grow one factor between them.
                let pairs = usize::from(rebuilt > 1);
                proptest::prop_assert!(
                    report.factor_extensions <= (samples.len() - pairs) * N_OBJECTIVES
                );
                for (cam, s) in samples.iter().enumerate() {
                    oracle.update(cam, s).unwrap();
                    histories[cam].push(inputs[cam]);
                }
                if round % 4 == 0 {
                    assert_banks_bit_identical(&bank, &oracle, &sc);
                }
                for a in 0..sc.n_videos() {
                    for b in 0..sc.n_videos() {
                        let same = a == b
                            || (histories[a] == histories[b] && a != rebuilt && b != rebuilt);
                        for obj in 0..N_OBJECTIVES {
                            let (ma, mb) = (bank.model(a, obj), bank.model(b, obj));
                            proptest::prop_assert_eq!(ma.factor_id() == mb.factor_id(), same);
                        }
                    }
                }
            }
            assert_banks_bit_identical(&bank, &oracle, &sc);
            // The rebuilt camera kept its own prefix; the rest still share.
            let shared = (rebuilt + 1) % sc.n_videos();
            proptest::prop_assert!(!bank.model(rebuilt, 0).shares_prefix(bank.model(shared, 0)));

            let pref = TruePreference::uniform(&sc);
            let normalizer = OutcomeNormalizer::for_scenario(&sc);
            let placements = Arc::new(crate::pool::Placements::default());
            let pool = crate::pool::build_pool(&sc, 6, &mut rng, &placements).unwrap();
            let batched = CompositeSampler::new(
                &sc,
                bank,
                PreferenceEval::Oracle(pref.clone()),
                normalizer.clone(),
            )
            .with_placements(placements);
            let scalar = CompositeSampler::new(&sc, oracle, PreferenceEval::Oracle(pref), normalizer);
            let a = batched.joint_samples(&pool, 8, seed);
            for (c, x) in pool.iter().enumerate() {
                let b = scalar.per_point_samples(x, 8, seed);
                proptest::prop_assert!(
                    b.iter().enumerate().all(|(r, v)| a[(r, c)].to_bits() == v.to_bits())
                );
            }
        }
    }

    #[test]
    fn weight_solves_count_first_reads_only() {
        let (sc, mut bank) = bank(12);
        let c = VideoConfig::new(1080.0, 15.0);
        assert_eq!(bank.weight_solves(), 0, "fitting solved weights");
        let clone = bank.clone();
        bank.predict(0, &c, 20e6);
        bank.predict(0, &c, 5e6);
        clone.predict_objective(0, idx::ACCURACY, &c, 20e6);
        assert_eq!(bank.weight_solves(), N_OBJECTIVES, "camera 0 solved once");
        clone.predict_objective(1, idx::ACCURACY, &c, 20e6);
        assert_eq!(bank.weight_solves(), N_OBJECTIVES + 1);
        // Conditioning leaves the new models unsolved until read.
        let samples: Vec<ProfileSample> = (0..sc.n_videos())
            .map(|cam| {
                Profiler::new(sc.surfaces(cam).clone())
                    .with_noise(0.0, 0.0)
                    .measure(&c, 20e6, &mut seeded(4))
            })
            .collect();
        bank.update_all(&samples).unwrap();
        assert_eq!(bank.weight_solves(), N_OBJECTIVES + 1);
        bank.predict(1, &c, 20e6);
        assert_eq!(bank.weight_solves(), 2 * N_OBJECTIVES + 1);
    }

    #[test]
    fn update_all_reports_bad_input_instead_of_truncating() {
        let (sc, mut bank) = bank(12);
        let c = VideoConfig::new(1080.0, 15.0);
        let sample = |cam: usize| {
            Profiler::new(sc.surfaces(cam).clone())
                .with_noise(0.0, 0.0)
                .measure(&c, 20e6, &mut seeded(4))
        };
        let mut samples: Vec<ProfileSample> = (0..sc.n_videos()).map(sample).collect();
        // One sample short: an error, and no camera is touched.
        let before = bank.model(0, 0).n();
        let err = bank.update_all(&samples[1..]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput { .. }), "{err:?}");
        assert_eq!(bank.model(0, 0).n(), before);
        // A non-finite sample is skipped and counted; the rest update.
        samples[1].outcome.latency_s = f64::NAN;
        let report = bank.update_all(&samples).unwrap();
        assert_eq!(report.skipped, 1);
        assert_eq!(report.rebuilds, 0);
        assert_eq!(bank.model(1, 0).n(), before);
        assert_eq!(bank.model(0, 0).n(), before + 1);
        assert_eq!(bank.model(2, 0).n(), before + 1);
        // Cameras 0 and 2 measured the same point: one solve and one
        // grown factor per objective serve both.
        assert_eq!(report.prefix_solves, N_OBJECTIVES);
        assert_eq!(report.factor_extensions, N_OBJECTIVES);
        assert_eq!(report.conditioned, 2 * N_OBJECTIVES);
        assert!(bank.model(0, 0).shares_factor(bank.model(2, 0)));
    }
}
