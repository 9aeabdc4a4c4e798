//! Online periodic scheduling under content drift and faults.
//!
//! The deployed scheduler of Sec. 2.1 "periodically collects performance
//! and resource information ... \[and\] adjusts configuration and
//! scheduling decisions". [`run_online`] runs PaMO across scheduling
//! epochs over a drifting deployment: each epoch re-profiles a small
//! number of samples per camera, re-runs the BO loop, and records the
//! realized benefit — against a *static* policy that keeps epoch-0's
//! decision forever (the natural no-adaptation baseline).
//!
//! The preference function does not drift (pricing rules change on
//! slower timescales than video content); the preference is elicited or
//! given once and reused across epochs.
//!
//! **One controller.** The epochs are those of a
//! [`ServingSession`] in its epoch-synchronous mode, with no tenant
//! churn and an unlimited decision budget: the session detects failures,
//! decides, falls back and advances the content drift, exactly as every
//! serving run does. [`run_online`] steps it and, after each boundary
//! decision, scores the deployed plan against the fault traces.
//!
//! **Faults.** The run follows a [`FaultPlan`] in which servers crash,
//! cameras drop out and frames get lost. Every server emits heartbeats
//! while up; at each epoch boundary the controller marks a server
//! *alive* only if it has heard a heartbeat recently (the server was
//! continuously up through the trailing heartbeat window — a freshly
//! recovered server is still invisible for one detection lag). The
//! fault-aware scheduler then re-runs Algorithm 1 + the BO loop
//! restricted to survivors; the fault-oblivious baseline keeps planning
//! on the full server list and pays for it when its placements land on
//! dead machines.
//!
//! **Failure policy.** When the decision fails, or even the survivors
//! cannot host a zero-jitter placement, the session degrades to the best
//! *cheaper uniform* configuration that still fits (the fallback
//! ladder), and restores automatically once servers rejoin — recovery
//! needs no special casing because liveness is re-detected every epoch.
//! An epoch with no server believed alive, or with no feasible fallback,
//! is dark: it records nothing and flags the run degraded.
//!
//! **Realized benefit** (as opposed to planned) charges the faults: a
//! camera's accuracy contribution is scaled by the fraction of the
//! epoch its frames were actually generated, delivered (surviving
//! Bernoulli loss after bounded retries) and processed by an up server;
//! compute/energy are only spent while the processing server is up;
//! network is spent whenever the camera transmits. A run without a plan
//! is scored on [`FaultPlan::none`]: every up-fraction and survival
//! factor is then exactly 1.0, so the realized benefit equals
//! [`Scenario::evaluate`]'s bit for bit — same sums in the same order,
//! and `x · 1.0 = x`.

use eva_fault::process::secs_to_ticks;
use eva_fault::{AvailabilityTrace, ChaosSpec, FaultPlan};
use eva_obs::{emit_warn, DecisionRung, ObsEvent, Recorder};
use eva_sched::Assignment;
use eva_serve::ArrivalModel;
use eva_workload::{AggregateError, Cameras, FrameFractions, Scenario, VideoConfig, N_OBJECTIVES};

use crate::benefit::TruePreference;
use crate::error::{require, CoreError};
use crate::overload::{OverloadConfig, ServingSession};
use crate::pamo::PamoConfig;
use crate::serving::{ServingConfig, SERVING_POLICY};

/// Per-epoch record of the online run.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Content divergence from epoch 0 at decision time.
    pub divergence: f64,
    /// True benefit of the freshly re-optimized decision.
    pub online_benefit: f64,
    /// True benefit of epoch-0's decision evaluated on this epoch's
    /// content (`None` if it became unschedulable under drift).
    pub static_benefit: Option<f64>,
    /// The online decision's configurations.
    pub configs: Vec<VideoConfig>,
    /// Which servers the failure detector saw alive at the epoch
    /// boundary (all `true` in fault-free runs); fault-aware runs plan
    /// on these only.
    pub alive: Vec<bool>,
    /// Whether this epoch served a degraded decision — a fallback
    /// configuration or a placement on a strict subset of the servers.
    pub degraded: bool,
    /// The escalation-ladder rung the epoch's decision ran at. Plain
    /// online runs always run the full pipeline
    /// ([`DecisionRung::Full`]); budgeted serving runs degrade to
    /// [`DecisionRung::Repair`] (re-place existing configurations) or
    /// [`DecisionRung::Stale`] (reuse the deployed plan) when the
    /// decision budget runs short.
    pub rung: DecisionRung,
}

/// Result of an online run.
#[derive(Debug, Clone)]
pub struct OnlineRun {
    /// One record per epoch.
    pub epochs: Vec<EpochRecord>,
    /// Whether the run ever degraded: an epoch fell back, served under
    /// failures, or was skipped (whole-cluster outage, no feasible
    /// fallback, or a non-finite realized benefit). An all-failed run
    /// has `epochs.is_empty()` and `degraded == true`; its
    /// `mean_*_benefit` are 0.0 by construction, and this flag is what
    /// distinguishes them from a genuine zero-benefit run.
    pub degraded: bool,
}

impl OnlineRun {
    /// Mean online benefit across epochs (0 for an empty run — never
    /// NaN).
    pub fn mean_online_benefit(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(|e| e.online_benefit).sum::<f64>() / self.epochs.len() as f64
    }

    /// Mean static-policy benefit over the epochs where it stayed
    /// feasible (infeasible epochs are charged the worst benefit
    /// observed minus one scale unit — going dark is worse than any
    /// feasible outcome). 0 for an empty run — never NaN.
    pub fn mean_static_benefit(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        let worst_online = self
            .epochs
            .iter()
            .map(|e| e.online_benefit)
            .fold(f64::INFINITY, f64::min);
        self.epochs
            .iter()
            .map(|e| e.static_benefit.unwrap_or(worst_online - 1.0))
            .sum::<f64>()
            / self.epochs.len() as f64
    }
}

/// Knobs of [`run_online`]'s epoch clock and failure detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultedRunConfig {
    /// Wall-clock length of one scheduling epoch (seconds).
    pub epoch_s: f64,
    /// Heartbeat timeout: a server is detected alive at an epoch
    /// boundary only if it was continuously up over the trailing window
    /// of this length (detection lag for fresh recoveries).
    pub heartbeat_s: f64,
    /// `true` — re-plan on detected survivors (fault-aware PaMO);
    /// `false` — ignore the detector and plan on all servers (the
    /// fault-oblivious baseline). Realized benefit charges the truth
    /// either way.
    pub fault_aware: bool,
}

impl Default for FaultedRunConfig {
    fn default() -> Self {
        FaultedRunConfig {
            epoch_s: 30.0,
            heartbeat_s: 2.0,
            fault_aware: true,
        }
    }
}

/// Run PaMO online for `n_epochs` over `initial`, whose content drifts
/// by `drift_step` per epoch; the run RNG is seeded from `seed`.
///
/// `weights` defines the hidden preference, re-anchored to each epoch's
/// scenario (the weights, i.e. the pricing, are constant). The
/// per-epoch scheduler uses `config` as-is; pass small budgets for fast
/// epochs.
///
/// `faults` is the fault plan and the epoch clock; `None` runs on
/// [`FaultPlan::none`] with the default [`FaultedRunConfig`]. The
/// epochs are a [`ServingSession`]'s boundary decisions (see the module
/// docs); each deployed plan is scored by its *realized* benefit under
/// the materialized fault traces.
///
/// Epochs run under `epoch` spans, fallback-ladder scans under
/// `fallback` spans, liveness transitions become structured info
/// events, and degradations become warn events (mirrored to stderr).
/// Recorders never touch the RNG stream: a
/// [`eva_obs::NoopRecorder`] run and a recorded run are bit-identical.
/// Errors on a drift step outside `[0, 1)` (NaN included), preference
/// weights that are negative, NaN, infinite or all zero, zero epochs, a
/// non-positive epoch, a negative heartbeat, or a plan sized for
/// another deployment.
#[allow(clippy::too_many_arguments)]
pub fn run_online(
    initial: &Scenario,
    drift_step: f64,
    config: &PamoConfig,
    weights: [f64; N_OBJECTIVES],
    n_epochs: usize,
    faults: Option<(&FaultPlan, &FaultedRunConfig)>,
    seed: u64,
    rec: &dyn Recorder,
) -> Result<OnlineRun, CoreError> {
    let none = (
        FaultPlan::none(initial.n_servers(), initial.n_videos()),
        FaultedRunConfig::default(),
    );
    let (plan, cfg) = faults.unwrap_or((&none.0, &none.1));
    check_drift(drift_step)?;
    check_weights(&weights)?;
    require(n_epochs > 0, "zero epochs")?;
    check_timing(cfg.epoch_s, cfg.heartbeat_s)?;
    check_plan(plan, initial)?;

    let serving = ServingConfig {
        epoch_s: cfg.epoch_s,
        n_epochs,
        heartbeat_s: cfg.heartbeat_s,
        event_driven: false,
        arrivals: ArrivalModel::Poisson { rate_hz: 0.0 },
        ..ServingConfig::default()
    };
    let overload = OverloadConfig::unbudgeted(ChaosSpec::none(0), SERVING_POLICY);
    let mut session = ServingSession::with_plan(
        initial,
        drift_step,
        config,
        weights,
        &serving,
        &overload,
        Some(plan),
        cfg.fault_aware,
        serving.churn_trace(),
        seed,
    );

    let epoch_len = secs_to_ticks(cfg.epoch_s).max(1);
    let horizon = epoch_len * n_epochs as u64 + 1;
    let server_up = plan.server_availability(horizon);
    let camera_up = plan.camera_availability(horizon);
    // Residual per-frame loss after the retry budget: a frame survives
    // unless every one of the 1 + max_retries transmissions is lost.
    let survive: Vec<f64> = plan
        .cameras
        .iter()
        .map(|c| 1.0 - c.loss.p.powi(plan.retry.max_retries as i32 + 1))
        .collect();

    let mut static_configs: Option<Vec<VideoConfig>> = None;
    let mut epochs = Vec::with_capacity(n_epochs);
    let mut any_degraded = false;
    let mut boundaries = 0;
    while session.step(rec) {
        // Window steps replay the fault timeline and advance the drift;
        // only a boundary step records an epoch.
        let Some(planned) = session.epochs().get(boundaries) else {
            continue;
        };
        boundaries += 1;
        let epoch = planned.epoch;
        if rec.enabled() {
            let prev = match boundaries {
                1 => &[][..],
                n => &session.epochs()[n - 2].alive,
            };
            report_liveness(rec, epoch, prev, &planned.alive);
        }
        let Some((configs, assignment)) = session.deployed() else {
            // Dark: a whole-cluster outage or no feasible fallback,
            // already warned about by the session.
            any_degraded = true;
            continue;
        };
        let (scenario, pref) = (session.scenario(), session.preference());
        let window = (epoch as u64 * epoch_len, (epoch as u64 + 1) * epoch_len);
        let score = |configs: &[VideoConfig], assignment: &Assignment| {
            realized_epoch_benefit(
                scenario, configs, assignment, pref, &server_up, &camera_up, &survive, window,
            )
        };
        let Some(online_benefit) = score(configs, assignment).ok().filter(|b| b.is_finite()) else {
            emit_warn(
                rec,
                ObsEvent::warn(
                    "non_finite_benefit",
                    format!(
                        "run_online: epoch {epoch}: \
                         non-finite realized benefit — skipping"
                    ),
                )
                .with("epoch", epoch),
            );
            any_degraded = true;
            continue;
        };
        // The frozen epoch-0 policy, charged under the same faults.
        let frozen = static_configs.get_or_insert_with(|| configs.to_vec());
        let static_benefit = scenario
            .schedule(frozen)
            .ok()
            .and_then(|a| score(frozen, &a).ok());

        let degraded = planned.degraded || planned.alive.contains(&false);
        any_degraded |= degraded;
        epochs.push(EpochRecord {
            epoch,
            divergence: planned.divergence,
            online_benefit,
            static_benefit,
            configs: configs.to_vec(),
            alive: planned.alive.clone(),
            degraded,
            rung: planned.rung,
        });
    }
    Ok(OnlineRun {
        epochs,
        degraded: any_degraded,
    })
}

/// Liveness transitions between two boundaries' detector views as
/// structured info events (telemetry only — the detector itself is
/// silent in production logs). `prev` is empty at the first boundary,
/// where every server counts as previously up.
fn report_liveness(rec: &dyn Recorder, epoch: usize, prev: &[bool], alive: &[bool]) {
    for (server, &is_up) in alive.iter().enumerate() {
        let was_up = prev.get(server).copied().unwrap_or(true);
        if was_up && !is_up {
            rec.add("fault.detections", 1);
            rec.event(
                ObsEvent::info(
                    "server_down_detected",
                    format!("epoch {epoch}: server {server} detected down"),
                )
                .with("epoch", epoch)
                .with("server", server),
            );
        } else if !was_up && is_up {
            rec.add("fault.restores", 1);
            rec.event(
                ObsEvent::info(
                    "server_restored",
                    format!("epoch {epoch}: server {server} detected back up"),
                )
                .with("epoch", epoch)
                .with("server", server),
            );
        }
    }
}

/// Precondition on a drift step: inside `[0, 1)`, NaN excluded
/// ([`eva_workload::DriftingScenario::new`] asserts the same, so an
/// entry point checks first).
pub(crate) fn check_drift(drift_step: f64) -> Result<(), CoreError> {
    require(
        (0.0..1.0).contains(&drift_step),
        "drift step outside [0, 1)",
    )
}

/// Preconditions on hidden-preference weights: every weight finite and
/// nonnegative, and not all zero ([`TruePreference::new`] asserts the
/// same, so an entry point checks first).
pub(crate) fn check_weights(weights: &[f64; eva_workload::N_OBJECTIVES]) -> Result<(), CoreError> {
    require(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0) && weights.iter().sum::<f64>() > 0.0,
        "preference weights must be finite, nonnegative and not all zero",
    )
}

/// Preconditions on an epoch clock: `epoch_s > 0`, `heartbeat_s ≥ 0`.
pub(crate) fn check_timing(epoch_s: f64, heartbeat_s: f64) -> Result<(), CoreError> {
    require(epoch_s > 0.0, "epoch length must be positive")?;
    require(heartbeat_s >= 0.0, "heartbeat must be non-negative")
}

/// Preconditions on a fault plan: one server entry per server and one
/// camera entry per camera of `scenario`.
pub(crate) fn check_plan(plan: &FaultPlan, scenario: &Scenario) -> Result<(), CoreError> {
    require(
        plan.servers.len() == scenario.n_servers(),
        "fault plan / server count mismatch",
    )?;
    require(
        plan.cameras.len() == scenario.n_videos(),
        "fault plan / camera count mismatch",
    )
}

/// Score a placed configuration against the *materialized* fault traces
/// over one epoch window: a camera's frames are generated while it is up,
/// delivered at its survival rate and processed at the mean up-fraction
/// of its parts' servers ([`FrameFractions`]). Latency keeps its
/// fault-free value — delivered frames still ride the provisioned
/// uplink, and undelivered ones are charged through accuracy.
#[allow(clippy::too_many_arguments)]
fn realized_epoch_benefit(
    scenario: &Scenario,
    configs: &[VideoConfig],
    assignment: &Assignment,
    pref: &TruePreference,
    server_up: &[AvailabilityTrace],
    camera_up: &[AvailabilityTrace],
    survive: &[f64],
    (a, b): (u64, u64),
) -> Result<f64, AggregateError> {
    let m = scenario.n_videos();
    let mut proc_frac = vec![0.0; m];
    let mut parts = vec![0usize; m];
    for (i, st) in assignment.streams.iter().enumerate() {
        proc_frac[st.id.source] += server_up[assignment.server_of[i]].up_fraction(a, b);
        parts[st.id.source] += 1;
    }
    let fractions: Vec<FrameFractions> = camera_up
        .iter()
        .zip(survive)
        .zip(proc_frac.iter().zip(&parts))
        .map(|((up, &delivered), (&up_sum, &p))| FrameFractions {
            generated: up.up_fraction(a, b),
            delivered,
            processed: up_sum / p.max(1) as f64,
        })
        .collect();
    let outcome = scenario.outcome_over(
        configs,
        assignment.placement(),
        Cameras::Fractions(&fractions),
    )?;
    Ok(pref.benefit(&outcome))
}

/// The epoch loop `run_online` ran before it drove a
/// [`ServingSession`]: its own heartbeat detector, masked decide,
/// fallback ladder and drift walk, kept as the oracle the session-driven
/// run must equal bit for bit. Telemetry is left out; it never touched
/// the outputs.
#[cfg(test)]
mod reference {
    use eva_stats::rng::seeded;
    use eva_workload::DriftingScenario;

    use super::*;
    use crate::overload::fallback_uniform;
    use crate::pamo::Pamo;
    use eva_obs::NoopRecorder;

    #[allow(clippy::too_many_arguments)]
    pub(super) fn run_online(
        initial: &Scenario,
        drift_step: f64,
        config: &PamoConfig,
        weights: [f64; N_OBJECTIVES],
        n_epochs: usize,
        faults: Option<(&FaultPlan, &FaultedRunConfig)>,
        seed: u64,
    ) -> OnlineRun {
        let mut drifting = DriftingScenario::new(initial, drift_step);
        let rng = &mut seeded(seed);
        let none = (
            FaultPlan::none(initial.n_servers(), initial.n_videos()),
            FaultedRunConfig::default(),
        );
        let (plan, cfg) = faults.unwrap_or((&none.0, &none.1));
        let mut pamo = Pamo::new(config.clone());
        let epoch_len = secs_to_ticks(cfg.epoch_s).max(1);
        let heartbeat = secs_to_ticks(cfg.heartbeat_s);
        let horizon = epoch_len * n_epochs as u64 + 1;
        let server_up = plan.server_availability(horizon);
        let camera_up = plan.camera_availability(horizon);
        let survive: Vec<f64> = plan
            .cameras
            .iter()
            .map(|c| 1.0 - c.loss.p.powi(plan.retry.max_retries as i32 + 1))
            .collect();

        let mut static_configs: Option<Vec<VideoConfig>> = None;
        let mut epochs = Vec::with_capacity(n_epochs);
        let mut any_degraded = false;
        for epoch in 0..n_epochs {
            let scenario = drifting.snapshot();
            let pref = TruePreference::new(&scenario, weights);
            let t = epoch as u64 * epoch_len;
            let window = (t, t + epoch_len);
            let alive: Vec<bool> = server_up
                .iter()
                .map(|up| up.is_up_throughout(t.saturating_sub(heartbeat), t))
                .collect();
            let n_alive = alive.iter().filter(|&&a| a).count();
            let mask: Option<&[bool]> = if cfg.fault_aware && n_alive < alive.len() {
                Some(&alive)
            } else {
                None
            };
            if cfg.fault_aware && n_alive == 0 {
                any_degraded = true;
                drifting.advance(rng);
                continue;
            }
            let planned = pamo
                .decide_surviving_recorded(&scenario, &pref, mask, rng, &NoopRecorder)
                .ok()
                .map(|d| (d.configs, d.assignment, false))
                .or_else(|| {
                    fallback_uniform(&scenario, &pref, mask, &NoopRecorder)
                        .map(|(c, a)| (c, a, true))
                });
            let Some((configs, assignment, fell_back)) = planned else {
                any_degraded = true;
                drifting.advance(rng);
                continue;
            };
            let realized = realized_epoch_benefit(
                &scenario,
                &configs,
                &assignment,
                &pref,
                &server_up,
                &camera_up,
                &survive,
                window,
            );
            let Some(online_benefit) = realized.ok().filter(|b| b.is_finite()) else {
                any_degraded = true;
                drifting.advance(rng);
                continue;
            };
            if static_configs.is_none() {
                static_configs = Some(configs.clone());
            }
            let static_benefit = static_configs.as_ref().and_then(|sc| {
                let a = scenario.schedule(sc).ok()?;
                realized_epoch_benefit(
                    &scenario, sc, &a, &pref, &server_up, &camera_up, &survive, window,
                )
                .ok()
            });
            let degraded = fell_back || n_alive < alive.len();
            any_degraded |= degraded;
            epochs.push(EpochRecord {
                epoch,
                divergence: drifting.divergence_from(initial),
                online_benefit,
                static_benefit,
                configs,
                alive,
                degraded,
                rung: DecisionRung::Full,
            });
            drifting.advance(rng);
        }
        OnlineRun {
            epochs,
            degraded: any_degraded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pamo::PreferenceSource;
    use eva_bo::{AcqKind, BoConfig};
    use eva_obs::NoopRecorder;
    use proptest::prelude::*;

    fn tiny_config() -> PamoConfig {
        PamoConfig {
            bo: BoConfig {
                n_init: 4,
                batch: 2,
                mc_samples: 16,
                max_iters: 3,
                delta: 0.02,
                kind: AcqKind::QNei,
            },
            pool_size: 20,
            profiling_per_camera: 20,
            profile_noise: 0.02,
            n_comparisons: 6,
            elicit_candidates: 15,
            preference: PreferenceSource::Oracle,
        }
    }

    fn base() -> Scenario {
        Scenario::uniform(3, 2, 20e6, 61)
    }

    /// A run over `sc` drifting by `drift`, `faults` as given.
    fn run(
        sc: &Scenario,
        drift: f64,
        n_epochs: usize,
        faults: Option<(&FaultPlan, &FaultedRunConfig)>,
        seed: u64,
    ) -> Result<OnlineRun, CoreError> {
        run_online(
            sc,
            drift,
            &tiny_config(),
            [1.0; 5],
            n_epochs,
            faults,
            seed,
            &NoopRecorder,
        )
    }

    #[test]
    fn online_runs_all_epochs_and_tracks_divergence() {
        let run = run(&base(), 0.08, 5, None, 1).expect("valid inputs");
        assert_eq!(run.epochs.len(), 5);
        assert_eq!(run.epochs[0].divergence, 0.0);
        assert!(run.epochs[4].divergence > 0.0);
        assert!(!run.degraded, "fault-free run must not flag degraded");
        for e in &run.epochs {
            assert!(e.online_benefit <= 0.0);
            assert_eq!(e.configs.len(), 3);
            assert!(e.alive.iter().all(|&a| a));
            assert!(!e.degraded);
        }
    }

    #[test]
    fn online_adaptation_not_worse_than_static() {
        // Averaged over epochs, re-optimizing must match or beat the
        // frozen epoch-0 decision (it can always re-pick it).
        let run = run(&Scenario::uniform(3, 2, 20e6, 62), 0.10, 6, None, 2).expect("valid inputs");
        let online = run.mean_online_benefit();
        let fixed = run.mean_static_benefit();
        // Tolerance for observation noise in tiny-budget BO runs.
        assert!(
            online >= fixed - 0.10,
            "online {online} much worse than static {fixed}"
        );
    }

    #[test]
    fn empty_run_benefits_are_zero_not_nan() {
        // An all-failed run: no epochs survived, degraded is raised.
        let run = OnlineRun {
            epochs: vec![],
            degraded: true,
        };
        assert_eq!(run.mean_online_benefit(), 0.0);
        assert_eq!(run.mean_static_benefit(), 0.0);
        assert!(run.mean_online_benefit().is_finite());
        assert!(run.mean_static_benefit().is_finite());
        assert!(run.degraded, "all-failed run must be flagged degraded");
    }

    #[test]
    fn first_epoch_static_equals_online() {
        let run = run(&Scenario::uniform(3, 2, 20e6, 63), 0.05, 3, None, 3).expect("valid inputs");
        let e0 = &run.epochs[0];
        let sb = e0.static_benefit.expect("epoch 0 is feasible");
        assert!((sb - e0.online_benefit).abs() < 1e-9);
    }

    #[test]
    fn a_zero_plan_equals_no_plan() {
        let sc = base();
        let none = run(&sc, 0.08, 4, None, 9).expect("valid inputs");
        let zero = FaultPlan::none(2, 3);
        let planned = run(&sc, 0.08, 4, Some((&zero, &FaultedRunConfig::default())), 9)
            .expect("valid inputs");
        assert_eq!(planned.epochs.len(), none.epochs.len());
        assert!(!planned.degraded);
        for (p, n) in planned.epochs.iter().zip(&none.epochs) {
            assert_eq!(
                p.online_benefit.to_bits(),
                n.online_benefit.to_bits(),
                "epoch {} diverged",
                p.epoch
            );
            assert_eq!(p.configs, n.configs);
            assert_eq!(
                p.static_benefit.map(f64::to_bits),
                n.static_benefit.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn realized_benefit_without_faults_is_the_evaluated_benefit() {
        // All-up traces and lossless links scale nothing: the realized
        // benefit is `Scenario::evaluate`'s, bit for bit.
        let sc = Scenario::uniform(4, 2, 20e6, 5);
        let pref = TruePreference::new(&sc, [1.0, 3.0, 1.0, 1.0, 1.0]);
        let plan = FaultPlan::none(2, 4);
        let horizon = 100;
        let (server_up, camera_up) = (
            plan.server_availability(horizon),
            plan.camera_availability(horizon),
        );
        for c in sc.config_space().iter() {
            let configs = vec![c; 4];
            let Ok(out) = sc.evaluate(&configs) else {
                continue;
            };
            let realized = realized_epoch_benefit(
                &sc,
                &configs,
                &out.assignment,
                &pref,
                &server_up,
                &camera_up,
                &[1.0; 4],
                (0, 50),
            );
            let realized = realized.expect("one trace per camera");
            assert_eq!(realized.to_bits(), pref.benefit(&out.outcome).to_bits());
        }
    }

    #[test]
    fn crashes_mark_epochs_degraded_and_mask_dead_servers() {
        // MTTF 20 s, MTTR 40 s on a 30 s epoch: servers are down most
        // of the time, so some epoch must detect a dead server.
        let plan = FaultPlan::none(2, 3).with_server_crashes(20.0, 40.0, 11);
        let run = run(
            &base(),
            0.05,
            5,
            Some((&plan, &FaultedRunConfig::default())),
            3,
        )
        .expect("valid inputs");
        assert!(run.degraded, "heavy crashes must degrade the run");
        let saw_dead = run
            .epochs
            .iter()
            .any(|e| e.alive.iter().any(|&a| !a) && e.degraded);
        assert!(
            saw_dead || run.epochs.len() < 5,
            "no epoch ever detected a dead server"
        );
        for e in &run.epochs {
            assert!(e.online_benefit.is_finite());
            assert_eq!(e.alive.len(), 2);
        }
    }

    #[test]
    fn fault_aware_beats_fault_oblivious_under_crashes() {
        let plan = FaultPlan::none(2, 3).with_server_crashes(25.0, 60.0, 5);
        let mean = |aware: bool| {
            let cfg = FaultedRunConfig {
                fault_aware: aware,
                ..FaultedRunConfig::default()
            };
            run(&base(), 0.05, 4, Some((&plan, &cfg)), 7)
                .expect("valid inputs")
                .mean_online_benefit()
        };
        let aware = mean(true);
        let oblivious = mean(false);
        assert!(
            aware >= oblivious - 1e-9,
            "fault-aware {aware} worse than oblivious {oblivious}"
        );
    }

    #[test]
    fn camera_dropout_lowers_realized_benefit() {
        let drop = FaultPlan::none(2, 3).with_camera_dropout(10.0, 50.0, 13);
        let cfg = FaultedRunConfig::default();
        let mean = |faults| {
            run(&base(), 0.0, 3, faults, 21)
                .expect("valid inputs")
                .mean_online_benefit()
        };
        let clean = mean(None);
        let dropped = mean(Some((&drop, &cfg)));
        assert!(
            dropped < clean,
            "camera dropout did not hurt: {dropped} vs {clean}"
        );
    }

    fn assert_invalid(r: Result<OnlineRun, CoreError>) {
        let err = r.map(|_| ()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput { .. }), "{err}");
    }

    #[test]
    fn zero_epochs_is_an_input_error() {
        let plan = FaultPlan::none(2, 3);
        assert_invalid(run(&base(), 0.05, 0, None, 1));
        assert_invalid(run(
            &base(),
            0.05,
            0,
            Some((&plan, &FaultedRunConfig::default())),
            1,
        ));
    }

    /// `run_online` refuses `weights` as an input error, not a panic.
    fn weights_error(weights: [f64; 5]) {
        let err = run_online(
            &base(),
            0.05,
            &tiny_config(),
            weights,
            2,
            None,
            1,
            &NoopRecorder,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidInput { context } if context.contains("weights")),
            "{weights:?}: {err}"
        );
    }

    #[test]
    fn negative_weights_are_errors() {
        weights_error([1.0, -0.5, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn nan_weights_are_errors() {
        weights_error([1.0, 1.0, f64::NAN, 1.0, 1.0]);
    }

    #[test]
    fn infinite_weights_are_errors() {
        weights_error([f64::INFINITY, 1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn all_zero_weights_are_errors() {
        weights_error([0.0; 5]);
    }

    #[test]
    fn epoch_must_be_positive_and_heartbeat_non_negative() {
        let plan = FaultPlan::none(2, 3);
        for (epoch_s, heartbeat_s) in [(0.0, 2.0), (-1.0, 2.0), (30.0, -0.5)] {
            let cfg = FaultedRunConfig {
                epoch_s,
                heartbeat_s,
                ..FaultedRunConfig::default()
            };
            assert_invalid(run(&base(), 0.05, 2, Some((&plan, &cfg)), 1));
        }
    }

    #[test]
    fn plan_must_match_the_server_and_camera_counts() {
        let cfg = FaultedRunConfig::default();
        // `base()` has 2 servers and 3 cameras.
        for plan in [FaultPlan::none(3, 3), FaultPlan::none(2, 4)] {
            let plan = plan.with_server_crashes(20.0, 40.0, 11);
            assert_invalid(run(&base(), 0.05, 2, Some((&plan, &cfg)), 1));
        }
    }

    #[test]
    fn drift_steps_outside_the_unit_interval_are_errors() {
        for step in [1.0, 1.5, -0.01, f64::NAN, f64::INFINITY] {
            let err = run(&base(), step, 2, None, 1).map(|_| ()).unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidInput { context } if context.contains("drift")),
                "{step}: {err}"
            );
        }
    }

    /// Every field of two runs, floats compared by their bits.
    fn assert_bit_identical(a: &OnlineRun, b: &OnlineRun, case: &str) {
        assert_eq!(a.degraded, b.degraded, "{case}");
        assert_eq!(a.epochs.len(), b.epochs.len(), "{case}");
        for (x, y) in a.epochs.iter().zip(&b.epochs) {
            let at = format!("{case}, epoch {}", x.epoch);
            assert_eq!(x.epoch, y.epoch, "{at}");
            assert_eq!(x.divergence.to_bits(), y.divergence.to_bits(), "{at}");
            assert_eq!(
                x.online_benefit.to_bits(),
                y.online_benefit.to_bits(),
                "{at}"
            );
            assert_eq!(
                x.static_benefit.map(f64::to_bits),
                y.static_benefit.map(f64::to_bits),
                "{at}"
            );
            assert_eq!(x.configs, y.configs, "{at}");
            assert_eq!(x.alive, y.alive, "{at}");
            assert_eq!(x.degraded, y.degraded, "{at}");
            assert_eq!(x.rung, y.rung, "{at}");
        }
    }

    proptest! {
        // Each case runs both loops over up to 8 epochs: 48 cases take
        // about 20 s in a debug build on a 2-core host.
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The session-driven run equals the epoch loop it replaced, on
        /// every field, fault-aware or oblivious. `outage` draws the
        /// MTTF 30 s / MTTR 25 s crash family, which on most plan seeds
        /// leaves both servers dark at some boundaries and serves again
        /// at later ones (tier-1 `outage_run_is_bit_pinned` pins one).
        #[test]
        fn session_driven_run_equals_the_reference_epoch_loop(
            outage in 0u8..2,
            mttf in 15.0f64..150.0,
            mttr in 10.0f64..90.0,
            loss in 0.0f64..0.3,
            dropout in 0u8..2,
            plan_seed in 1u64..40,
            aware in 0u8..2,
            drift in 0.0f64..0.15,
            n_epochs in 3usize..=8,
            seed in 0u64..100,
        ) {
            let (mttf, mttr) = if outage == 1 { (30.0, 25.0) } else { (mttf, mttr) };
            let mut plan = FaultPlan::none(2, 3)
                .with_server_crashes(mttf, mttr, plan_seed)
                .with_frame_loss(loss, plan_seed + 1);
            if dropout == 1 {
                plan = plan.with_camera_dropout(60.0, 20.0, plan_seed + 2);
            }
            let cfg = FaultedRunConfig {
                fault_aware: aware == 1,
                ..FaultedRunConfig::default()
            };
            let faults = Some((&plan, &cfg));
            let case = format!(
                "{plan:?}, {cfg:?}, drift {drift}, {n_epochs} epochs, seed {seed}"
            );
            let driven = run(&base(), drift, n_epochs, faults, seed).expect("valid inputs");
            let oracle =
                reference::run_online(&base(), drift, &tiny_config(), [1.0; 5], n_epochs, faults, seed);
            assert_bit_identical(&driven, &oracle, &case);
        }
    }
}
