//! PaMO end to end: Algorithm 2.
//!
//! 1. **Outcome function fitting** — profile every camera, fit the GP
//!    bank (lines 1-4),
//! 2. **System preference modeling** — EUBO-driven pairwise queries to
//!    the decision maker, preference GP by Laplace (lines 5-11),
//! 3. **Best configuration solving** — qNEI Bayesian optimization over
//!    the feasible joint-configuration pool with Algorithm-1 placement
//!    inside the loop (lines 12-26).

use std::sync::Arc;

use eva_bo::{bo_maximize, AcqKind, BoConfig, BoResult};
use eva_obs::{cost, span, DecisionBudget, NoopRecorder, Phase, Recorder};
use eva_sched::Assignment;
use eva_workload::{Outcome, ProfileSample, Profiler, Scenario, ScenarioOutcome, VideoConfig};
use parking_lot::Mutex;
use rand::Rng;

use crate::benefit::{OutcomeNormalizer, TruePreference, TruePreferenceOracle};
use crate::composite::{CompositeSampler, PreferenceEval, INFEASIBLE_BENEFIT};
use crate::error::{require, CoreError};
use crate::models::{OutcomeModelBank, ProfilingDesign};
use crate::pool::{build_pool, decode_joint, Placements};
use crate::prefgp::{elicit_preferences, ElicitConfig, PreferenceModel};

/// Where the preference layer comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreferenceSource {
    /// Learn from pairwise comparisons (PaMO proper).
    Learned,
    /// Use the true preference function (the PaMO+ upper bound).
    Oracle,
}

/// All of PaMO's tuning knobs.
#[derive(Debug, Clone)]
pub struct PamoConfig {
    /// BO loop settings (acquisition, batch `b`, `δ`, `MaxIterNum`).
    pub bo: BoConfig,
    /// Joint-configuration candidate pool size.
    pub pool_size: usize,
    /// Initial profiling samples per camera.
    pub profiling_per_camera: usize,
    /// Relative measurement noise of profiling/observations.
    pub profile_noise: f64,
    /// Pairwise comparisons to collect (`V`).
    pub n_comparisons: usize,
    /// Outcome-space candidates offered to the elicitation loop.
    pub elicit_candidates: usize,
    /// Preference source (PaMO vs PaMO+).
    pub preference: PreferenceSource,
}

impl Default for PamoConfig {
    fn default() -> Self {
        PamoConfig {
            bo: BoConfig {
                n_init: 6,
                batch: 3,
                mc_samples: 32,
                max_iters: 10,
                delta: 0.02,
                kind: AcqKind::QNei,
            },
            pool_size: 60,
            profiling_per_camera: 40,
            profile_noise: 0.02,
            n_comparisons: 18,
            elicit_candidates: 40,
            preference: PreferenceSource::Learned,
        }
    }
}

impl PamoConfig {
    /// The PaMO+ oracle variant of this configuration.
    pub fn plus(mut self) -> Self {
        self.preference = PreferenceSource::Oracle;
        self
    }

    /// Swap the acquisition function (the Sec. 5.1 ablations).
    pub fn with_acquisition(mut self, kind: AcqKind) -> Self {
        self.bo.kind = kind;
        self
    }

    /// Swap the convergence threshold `δ` (the Fig. 10(b) sweep).
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.bo.delta = delta;
        self
    }
}

/// The result of one PaMO scheduling decision.
#[derive(Debug, Clone)]
pub struct PamoDecision {
    /// Final per-camera configurations.
    pub configs: Vec<VideoConfig>,
    /// True (noise-free) aggregate outcome of those configurations.
    pub outcome: Outcome,
    /// The zero-jitter placement (Algorithm 1, on the surviving
    /// servers) that produced `outcome`.
    pub assignment: Assignment,
    /// True benefit `U` under the hidden preference (Eq. 13).
    pub true_benefit: f64,
    /// The BO run (trace, observations, convergence flag).
    pub bo: BoResult,
    /// Comparisons actually asked of the decision maker (0 for PaMO+).
    pub comparisons_used: usize,
    /// The elicited preference GP the BO scored with (`None` for PaMO+).
    pub preference_model: Option<PreferenceModel>,
}

/// The PaMO scheduler.
///
/// Carries cross-decision warm-start state: the hyperparameter vectors
/// fitted by one decision seed the next decision's outcome-model fits
/// (which then drop one random restart). The online/serving loops
/// construct one `Pamo` and reuse it across epochs, so per-epoch refits
/// warm-start automatically; a fresh `Pamo` always fits cold.
#[derive(Debug, Default)]
pub struct Pamo {
    config: PamoConfig,
    /// `[objective] -> theta` of the previous decision's shared fits.
    warm: Mutex<Option<Vec<Vec<f64>>>>,
    /// The profiling design of the previous decision, reused across
    /// epochs: the (config, uplink) grid stays fixed while each epoch
    /// re-measures it, so GP inputs stay identical bank-wide and the
    /// design-drawing RNG cost is paid once.
    design: Mutex<Option<ProfilingDesign>>,
}

impl Clone for Pamo {
    fn clone(&self) -> Self {
        Pamo {
            config: self.config.clone(),
            warm: Mutex::new(self.warm.lock().clone()),
            design: Mutex::new(self.design.lock().clone()),
        }
    }
}

impl Pamo {
    /// With explicit tuning.
    pub fn new(config: PamoConfig) -> Self {
        Pamo {
            config,
            warm: Mutex::new(None),
            design: Mutex::new(None),
        }
    }

    /// Drop the warm-start state (hyperparameters *and* the cached
    /// profiling design) so the next decision fits its outcome models
    /// cold (e.g. after a workload change that invalidates the previous
    /// hyperparameters). A reset decision redraws exactly the cold RNG
    /// stream, so it bit-reproduces a fresh scheduler's decision.
    pub fn reset_warm_start(&self) {
        *self.warm.lock() = None;
        *self.design.lock() = None;
    }

    /// The cross-decision warm-start state: the shared GP
    /// hyperparameters of the last decision and the cached profiling
    /// design (for checkpointing the scheduler).
    #[allow(clippy::type_complexity)]
    pub(crate) fn warm_state(&self) -> (Option<Vec<Vec<f64>>>, Option<ProfilingDesign>) {
        (self.warm.lock().clone(), self.design.lock().clone())
    }

    /// Overwrite the warm-start state (restoring a checkpointed
    /// scheduler). The next decision then warm-starts exactly as the
    /// checkpointed scheduler's next decision would have.
    pub(crate) fn restore_warm_state(
        &self,
        warm: Option<Vec<Vec<f64>>>,
        design: Option<ProfilingDesign>,
    ) {
        *self.warm.lock() = warm;
        *self.design.lock() = design;
    }

    /// Run Algorithm 2 on a scenario. `true_pref` plays the decision
    /// maker (answering comparisons for PaMO; evaluated directly for
    /// PaMO+) and scores the final decision.
    ///
    /// Every failure mode — infeasible placement, GP numerics,
    /// preference-model breakdown — comes back as a [`CoreError`]; this
    /// path never panics.
    pub fn decide<R: Rng + ?Sized>(
        &self,
        scenario: &Scenario,
        true_pref: &TruePreference,
        rng: &mut R,
    ) -> Result<PamoDecision, CoreError> {
        self.decide_surviving_recorded(scenario, true_pref, None, rng, &NoopRecorder)
    }

    /// Failure-aware Algorithm 2 with telemetry: identical to
    /// [`Pamo::decide`] but Algorithm-1 placement (both inside the BO
    /// loop and for the final recommendation) is restricted to the
    /// servers marked `true` in `alive`. With `alive = None` (or
    /// all-true) this is exactly the unrestricted pipeline —
    /// bit-identical decisions — which keeps the zero-fault online path
    /// identical to the fault-oblivious one.
    ///
    /// The decision runs under a `decide` span with per-stage sub-spans
    /// (outcome fit, preference modeling, BO search) emitted through
    /// `rec`. Telemetry never changes the decision: a [`NoopRecorder`]
    /// run draws the same RNG stream and returns the same bits as a
    /// recorded one.
    pub fn decide_surviving_recorded<R: Rng + ?Sized>(
        &self,
        scenario: &Scenario,
        true_pref: &TruePreference,
        alive: Option<&[bool]>,
        rng: &mut R,
        rec: &dyn Recorder,
    ) -> Result<PamoDecision, CoreError> {
        self.decide_surviving_budgeted_recorded(
            scenario,
            true_pref,
            alive,
            &DecisionBudget::unlimited(),
            rng,
            rec,
        )
    }

    /// [`Pamo::decide_surviving_recorded`] under a decision deadline
    /// budget: deterministic work units are charged *before* each
    /// charged stage runs (the outcome-model refit as one lump, then
    /// every BO init point, GP refit, acquisition scan and batch
    /// observation individually via
    /// [`eva_bo::bo_maximize`]), and the BO loop early-exits
    /// keeping the best decision found so far once the budget refuses a
    /// charge. Budget exhaustion therefore degrades decision *quality*,
    /// never feasibility: the recommendation is always a placed,
    /// scored configuration. With [`DecisionBudget::unlimited`] no
    /// charge is ever refused and this is bit-identical to the
    /// unbudgeted path (which delegates here).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn decide_surviving_budgeted_recorded<R: Rng + ?Sized>(
        &self,
        scenario: &Scenario,
        true_pref: &TruePreference,
        alive: Option<&[bool]>,
        budget: &DecisionBudget,
        rng: &mut R,
        rec: &dyn Recorder,
    ) -> Result<PamoDecision, CoreError> {
        let cfg = &self.config;
        // The BO driver refuses these too, but only after the outcome
        // fit and the pool have drawn from `rng`; refuse them first.
        require(cfg.bo.n_init > 0, "bo.n_init must be positive")?;
        require(cfg.bo.batch > 0, "bo.batch must be positive")?;
        require(cfg.bo.mc_samples > 0, "bo.mc_samples must be positive")?;
        let _decide_span = span(rec, Phase::Decide);
        let normalizer = OutcomeNormalizer::for_scenario(scenario);

        // (1) Outcome function fitting, warm-started from the previous
        // decision's hyperparameters when this scheduler has made one.
        // The profiling design (the shared (config, uplink) grid) is
        // cached alongside: later epochs re-measure the same points
        // instead of redrawing them.
        let warm_thetas = self.warm.lock().clone();
        let design = {
            let mut guard = self.design.lock();
            match guard.as_ref() {
                Some(d) if d.len() == cfg.profiling_per_camera => d.clone(),
                _ => {
                    let d = ProfilingDesign::draw(scenario, cfg.profiling_per_camera, rng);
                    *guard = Some(d.clone());
                    d
                }
            }
        };
        // The refit is mandatory (a decision without outcome models is
        // no decision), so a refused lump is force-charged: the overrun
        // counter then records that the budget floor was set below the
        // decision's fixed cost — the condition `ext_overload` gates on
        // staying zero.
        let fit_lump = scenario.n_videos() as u64 * cost::GP_FIT;
        if !budget.try_charge(fit_lump) {
            budget.force_charge(fit_lump);
        }
        let bank = OutcomeModelBank::fit_designed(
            scenario,
            &design,
            cfg.profile_noise,
            warm_thetas.as_deref(),
            rng,
            rec,
        )?;
        *self.warm.lock() = Some(bank.shared_thetas());

        // (2) System preference modeling. The pool's placements serve
        // every surrogate of this decide.
        let placements = Arc::new(Placements::default());
        let (pool, pref_eval, comparisons_used) = {
            let _pref_span = span(rec, Phase::PrefModel);
            let pool = build_pool(scenario, cfg.pool_size, rng, &placements)?;
            let (pref_eval, comparisons_used) = match cfg.preference {
                PreferenceSource::Oracle => (PreferenceEval::Oracle(true_pref.clone()), 0),
                PreferenceSource::Learned => {
                    let predictor = CompositeSampler::new(
                        scenario,
                        bank.clone(),
                        PreferenceEval::Oracle(true_pref.clone()), // unused: predict only
                        normalizer.clone(),
                    )
                    .with_placements(Arc::clone(&placements));
                    let model = self.elicit(&predictor, &normalizer, true_pref, &pool, rng)?;
                    (PreferenceEval::Learned(model), cfg.n_comparisons)
                }
            };
            (pool, pref_eval, comparisons_used)
        };
        if rec.enabled() {
            rec.observe("core.pool_size", pool.len() as f64);
            rec.observe("core.comparisons_used", comparisons_used as f64);
        }

        // (3) Best configuration solving.
        let bank = Mutex::new(bank);
        let objective = |x: &[f64]| -> f64 {
            if rec.enabled() {
                rec.add("core.objective_evals", 1);
            }
            let Ok(configs) = decode_joint(scenario, x) else {
                return INFEASIBLE_BENEFIT;
            };
            let assignment = match scenario.schedule_surviving(&configs, alive, rec) {
                Ok(a) => a,
                Err(_) => return INFEASIBLE_BENEFIT,
            };
            // "Run" the configuration: measure per-camera outcomes with
            // profiling noise, feed them back into the outcome models
            // (Algorithm 2 lines 16-18), and score the aggregate with
            // the preference layer (line 17).
            let Some((outcome, samples)) =
                measure_aggregate(scenario, &configs, &assignment, cfg.profile_noise)
            else {
                return INFEASIBLE_BENEFIT;
            };
            {
                // Conditioning failures keep a camera's previous models
                // (stale beats poisoned); the measurements still count.
                let _update_span = span(rec, Phase::BankUpdate);
                match bank.lock().update_all(&samples) {
                    Ok(report) => report.record(rec),
                    Err(_) => {
                        if rec.enabled() {
                            rec.add("core.bank_update_skipped", samples.len() as u64);
                        }
                    }
                }
            }
            let y = normalizer.normalize(&outcome);
            pref_eval.mean_and_std(&y).0
        };
        let fit = |_observations: &[(Vec<f64>, f64)]| -> CompositeSampler<'_> {
            CompositeSampler::new(
                scenario,
                bank.lock().clone(),
                pref_eval.clone(),
                normalizer.clone(),
            )
            .with_placements(Arc::clone(&placements))
            .recorded(rec)
        };
        let bo = {
            let _bo_span = span(rec, Phase::BoSearch);
            bo_maximize(objective, fit, &pool, &cfg.bo, rng, budget, rec)?
        };
        if rec.enabled() {
            rec.add("core.decisions", 1);
            rec.observe("core.bo_observations", bo.observations.len() as f64);
            rec.add("gp.weight_solves", bank.lock().weight_solves() as u64);
        }

        // Final recommendation: best observed joint config, scored by
        // the *true* preference on the *noise-free* outcome.
        let configs = decode_joint(scenario, &bo.best_x)?;
        let ScenarioOutcome {
            outcome,
            assignment,
        } = scenario.evaluate_surviving(&configs, alive, rec)?;
        let true_benefit = true_pref.benefit(&outcome);
        if !true_benefit.is_finite() {
            return Err(CoreError::NonFinite {
                context: "PamoDecision::true_benefit",
            });
        }
        let preference_model = match pref_eval {
            PreferenceEval::Learned(model) => Some(model),
            PreferenceEval::Oracle(_) => None,
        };
        Ok(PamoDecision {
            configs,
            outcome,
            assignment,
            true_benefit,
            bo,
            comparisons_used,
            preference_model,
        })
    }

    /// Preference elicitation over outcome vectors `predictor` predicts
    /// for pool configurations (Algorithm 2 lines 5-11).
    fn elicit<R: Rng + ?Sized>(
        &self,
        predictor: &CompositeSampler<'_>,
        normalizer: &OutcomeNormalizer,
        true_pref: &TruePreference,
        pool: &[Vec<f64>],
        rng: &mut R,
    ) -> Result<PreferenceModel, CoreError> {
        let mut candidates: Vec<Vec<f64>> = Vec::new();
        for x in pool.iter() {
            if candidates.len() >= self.config.elicit_candidates {
                break;
            }
            if let Some(outcome) = predictor.predict_outcome(x) {
                candidates.push(normalizer.normalize(&outcome));
            }
        }
        // Fewer than two predictable outcomes pose no comparison:
        // `elicit_preferences` returns `PrefError::Empty`.
        let mut oracle = TruePreferenceOracle::new(true_pref);
        let mut elicit_cfg = ElicitConfig::for_dim(eva_workload::N_OBJECTIVES);
        elicit_cfg.n_comparisons = self.config.n_comparisons;
        let (model, _) = elicit_preferences(&mut oracle, &candidates, &elicit_cfg, rng)?;
        Ok(model)
    }
}

/// Measure the aggregate outcome of a scheduled configuration with
/// profiling noise. Returns the aggregate and the per-camera samples it
/// was assembled from (the observations Algorithm 2 line 18 feeds back
/// into the outcome-model bank); `None` when a camera is unplaced.
pub(crate) fn measure_aggregate(
    scenario: &Scenario,
    configs: &[VideoConfig],
    assignment: &Assignment,
    rel_noise: f64,
) -> Option<(Outcome, Vec<ProfileSample>)> {
    let m = scenario.n_videos();
    let mut rng = eva_stats::rng::seeded(hash_configs(configs));
    // First split part of each camera, found in one pass (the
    // per-camera `position()` scan this replaces was O(M²)).
    let mut first_part: Vec<Option<usize>> = vec![None; m];
    for (i, st) in assignment.streams.iter().enumerate() {
        let slot = &mut first_part[st.id.source];
        if slot.is_none() {
            *slot = Some(i);
        }
    }
    let mut acc = 0.0;
    let mut net = 0.0;
    let mut com = 0.0;
    let mut eng = 0.0;
    let mut lat = 0.0;
    // Measurements draw from one shared RNG stream, so this loop is
    // sequential.
    let mut samples = Vec::with_capacity(m);
    #[allow(clippy::needless_range_loop)]
    for cam in 0..m {
        let uplink = first_part[cam].map(|i| scenario.uplinks()[assignment.server_of[i]])?;
        let profiler = Profiler::new(scenario.surfaces(cam).clone())
            .with_noise(rel_noise, rel_noise.min(0.02));
        let sample = profiler.measure(&configs[cam], uplink, &mut rng);
        acc += sample.outcome.accuracy;
        net += sample.outcome.network_bps;
        com += sample.outcome.compute_tflops;
        eng += sample.outcome.power_w;
        lat += sample.outcome.latency_s;
        samples.push(sample);
    }
    let outcome = Outcome {
        latency_s: lat / m as f64,
        accuracy: acc / m as f64,
        network_bps: net,
        compute_tflops: com,
        power_w: eng,
    };
    Some((outcome, samples))
}

fn hash_configs(configs: &[VideoConfig]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for c in configs {
        h = (h ^ c.resolution.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
        h = (h ^ c.fps.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_stats::rng::seeded;

    /// A small, fast PaMO configuration for tests.
    fn tiny_config() -> PamoConfig {
        PamoConfig {
            bo: BoConfig {
                n_init: 4,
                batch: 2,
                mc_samples: 16,
                max_iters: 4,
                delta: 0.01,
                kind: AcqKind::QNei,
            },
            pool_size: 25,
            profiling_per_camera: 25,
            profile_noise: 0.02,
            n_comparisons: 8,
            elicit_candidates: 20,
            preference: PreferenceSource::Learned,
        }
    }

    fn scenario() -> Scenario {
        Scenario::uniform(3, 2, 20e6, 47)
    }

    #[test]
    fn pamo_plus_finds_good_configurations() {
        let sc = scenario();
        let pref = TruePreference::uniform(&sc);
        let pamo = Pamo::new(tiny_config().plus());
        let d = pamo.decide(&sc, &pref, &mut seeded(1)).unwrap();
        // Compare against the floor config: PaMO+ must do better.
        let floor = sc
            .evaluate(&[VideoConfig::new(360.0, 1.0); 3])
            .unwrap()
            .outcome;
        assert!(
            d.true_benefit >= pref.benefit(&floor),
            "PaMO+ {} vs floor {}",
            d.true_benefit,
            pref.benefit(&floor)
        );
        assert_eq!(d.comparisons_used, 0);
        assert!(sc.schedule(&d.configs).is_ok());
    }

    #[test]
    fn pamo_learned_close_to_pamo_plus() {
        let sc = scenario();
        let pref = TruePreference::uniform(&sc);
        let plus = Pamo::new(tiny_config().plus())
            .decide(&sc, &pref, &mut seeded(2))
            .unwrap();
        let learned = Pamo::new(tiny_config())
            .decide(&sc, &pref, &mut seeded(2))
            .unwrap();
        assert_eq!(learned.comparisons_used, 8);
        // With tiny budgets we only ask for the right ballpark: the gap
        // to the oracle must be a fraction of the benefit scale (Σw = 5).
        let gap = plus.true_benefit - learned.true_benefit;
        assert!(
            gap < 1.5,
            "gap {gap} (plus {} learned {})",
            plus.true_benefit,
            learned.true_benefit
        );
    }

    #[test]
    fn decisions_are_always_zero_jitter_feasible() {
        let sc = scenario();
        let pref = TruePreference::new(&sc, [3.2, 1.0, 1.0, 1.0, 1.0]);
        let d = Pamo::new(tiny_config().plus())
            .decide(&sc, &pref, &mut seeded(3))
            .unwrap();
        let assignment = sc.schedule(&d.configs).unwrap();
        for server in 0..sc.n_servers() {
            let members: Vec<eva_sched::StreamTiming> = assignment
                .streams_on(server)
                .into_iter()
                .map(|i| assignment.streams[i])
                .collect();
            assert!(eva_sched::const2_zero_jitter_ok(&members));
        }
    }

    #[test]
    fn preference_weights_steer_pamo_decisions() {
        let sc = scenario();
        // Accuracy-heavy vs energy-heavy true preferences.
        let acc_pref = TruePreference::new(&sc, [0.2, 3.2, 0.2, 0.2, 0.2]);
        let eng_pref = TruePreference::new(&sc, [0.2, 0.2, 0.2, 0.2, 3.2]);
        let pamo = Pamo::new(tiny_config().plus());
        let d_acc = pamo.decide(&sc, &acc_pref, &mut seeded(4)).unwrap();
        let d_eng = pamo.decide(&sc, &eng_pref, &mut seeded(4)).unwrap();
        assert!(
            d_acc.outcome.accuracy >= d_eng.outcome.accuracy,
            "acc-pref accuracy {} < eng-pref accuracy {}",
            d_acc.outcome.accuracy,
            d_eng.outcome.accuracy
        );
        assert!(
            d_eng.outcome.power_w <= d_acc.outcome.power_w,
            "eng-pref power {} > acc-pref power {}",
            d_eng.outcome.power_w,
            d_acc.outcome.power_w
        );
    }

    #[test]
    fn warm_started_second_decision_stays_good() {
        let sc = scenario();
        let pref = TruePreference::uniform(&sc);
        let pamo = Pamo::new(tiny_config().plus());
        let first = pamo.decide(&sc, &pref, &mut seeded(7)).unwrap();
        // Second decision on the same scheduler warm-starts its GP fits;
        // quality must not regress below the trivial floor and the
        // decision must stay feasible.
        let second = pamo.decide(&sc, &pref, &mut seeded(8)).unwrap();
        let floor = sc
            .evaluate(&[VideoConfig::new(360.0, 1.0); 3])
            .unwrap()
            .outcome;
        assert!(second.true_benefit >= pref.benefit(&floor));
        assert!(sc.schedule(&second.configs).is_ok());
        // After a reset the scheduler fits cold again and reproduces the
        // first decision bit-for-bit on the same seed.
        pamo.reset_warm_start();
        let cold_again = pamo.decide(&sc, &pref, &mut seeded(7)).unwrap();
        assert_eq!(cold_again.configs, first.configs);
        assert_eq!(cold_again.true_benefit, first.true_benefit);
    }

    #[test]
    fn budgeted_decision_early_exits_but_stays_feasible() {
        let sc = scenario();
        let pref = TruePreference::uniform(&sc);
        let pamo = Pamo::new(tiny_config().plus());
        let full = pamo.decide(&sc, &pref, &mut seeded(11)).unwrap();
        pamo.reset_warm_start();
        // Affords the mandatory fit lump plus the init design only:
        // the BO loop must early-exit without overrunning, and the
        // recommendation must still be a feasible placement.
        let budget =
            DecisionBudget::limited(sc.n_videos() as u64 * cost::GP_FIT + 4 * cost::OBJ_EVAL);
        let d = pamo
            .decide_surviving_budgeted_recorded(
                &sc,
                &pref,
                None,
                &budget,
                &mut seeded(11),
                &NoopRecorder,
            )
            .unwrap();
        assert!(d.bo.budget_stopped, "starved budget must stop the BO loop");
        assert!(
            d.bo.observations.len() < full.bo.observations.len(),
            "budgeted run observed as much as the unlimited run"
        );
        assert_eq!(budget.overruns(), 0);
        assert!(budget.spent() <= budget.limit());
        assert!(sc.schedule(&d.configs).is_ok());
    }

    #[test]
    fn warm_state_round_trip_restores_the_scheduler() {
        let sc = scenario();
        let pref = TruePreference::uniform(&sc);
        let pamo = Pamo::new(tiny_config().plus());
        pamo.decide(&sc, &pref, &mut seeded(12)).unwrap();
        let (warm, design) = pamo.warm_state();
        assert!(warm.is_some() && design.is_some());
        // A fresh scheduler restored from the checkpoint makes the
        // same next decision as the original.
        let restored = Pamo::new(tiny_config().plus());
        restored.restore_warm_state(warm, design);
        let a = pamo.decide(&sc, &pref, &mut seeded(13)).unwrap();
        let b = restored.decide(&sc, &pref, &mut seeded(13)).unwrap();
        assert_eq!(a.configs, b.configs);
        assert_eq!(a.true_benefit.to_bits(), b.true_benefit.to_bits());
    }

    #[test]
    fn measure_aggregate_matches_analytic_at_zero_noise() {
        let sc = scenario();
        let configs = vec![VideoConfig::new(600.0, 5.0); 3];
        let assignment = sc.schedule(&configs).unwrap();
        let (measured, samples) = measure_aggregate(&sc, &configs, &assignment, 0.0).unwrap();
        assert_eq!(samples.len(), sc.n_videos());
        let analytic = sc.evaluate(&configs).unwrap().outcome;
        assert!((measured.accuracy - analytic.accuracy).abs() < 1e-9);
        assert!((measured.network_bps - analytic.network_bps).abs() < 1e-6);
        // Latency: measured averages per *camera*, analytic per split
        // part; identical when nothing splits (these configs do not).
        assert!((measured.latency_s - analytic.latency_s).abs() < 1e-9);
    }
}
