//! Online periodic scheduling under content drift and faults.
//!
//! The deployed scheduler of Sec. 2.1 "periodically collects performance
//! and resource information ... \[and\] adjusts configuration and
//! scheduling decisions". [`run_online`] runs PaMO across scheduling
//! epochs over a [`DriftingScenario`]: each epoch re-profiles a small
//! number of samples per camera, re-runs the BO loop, and records the
//! realized benefit — against a *static* policy that keeps epoch-0's
//! decision forever (the natural no-adaptation baseline).
//!
//! The preference function does not drift (pricing rules change on
//! slower timescales than video content); the preference is elicited or
//! given once and reused across epochs.
//!
//! **Faults.** The loop runs under a [`FaultPlan`] in which servers
//! crash, cameras drop out and frames get lost. Every server emits
//! heartbeats while up; at each epoch boundary the controller marks a
//! server *alive* only if it has heard a heartbeat recently (the server
//! was continuously up through the trailing heartbeat window — a freshly
//! recovered server is still invisible for one detection lag). The
//! fault-aware scheduler then re-runs Algorithm 1 + the BO loop
//! restricted to survivors
//! ([`crate::pamo::Pamo::decide_surviving_recorded`]); the
//! fault-oblivious baseline keeps planning on the full server list and
//! pays for it when its placements land on dead machines.
//!
//! **Failure policy.** When the decision fails, or even the survivors
//! cannot host a zero-jitter placement, the loop degrades to the best
//! *cheaper uniform* configuration that still fits (the fallback
//! ladder, shared with [`crate::overload::ServingSession`]), and
//! restores automatically once servers rejoin — recovery needs no
//! special casing because liveness is re-detected every epoch.
//!
//! **Realized benefit** (as opposed to planned) charges the faults: a
//! camera's accuracy contribution is scaled by the fraction of the
//! epoch its frames were actually generated, delivered (surviving
//! Bernoulli loss after bounded retries) and processed by an up server;
//! compute/energy are only spent while the processing server is up;
//! network is spent whenever the camera transmits. A run without a plan
//! runs the same loop on [`FaultPlan::none`]: every up-fraction and
//! survival factor is then exactly 1.0, so the realized benefit equals
//! [`Scenario::evaluate`]'s bit for bit — same sums in the same order,
//! and `x · 1.0 = x`.

use eva_fault::process::secs_to_ticks;
use eva_fault::{AvailabilityTrace, FaultPlan};
use eva_obs::{emit_warn, span, DecisionRung, NoopRecorder, ObsEvent, Phase, Recorder};
use eva_sched::Assignment;
use eva_workload::{
    AggregateError, Cameras, DriftingScenario, FrameFractions, Scenario, VideoConfig,
};
use rand::Rng;

use crate::benefit::TruePreference;
use crate::error::{require, CoreError};
use crate::pamo::{Pamo, PamoConfig};

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

/// Run PaMO online for `n_epochs` over a drifting deployment.
///
/// `weights` defines the hidden preference, re-anchored to each epoch's
/// scenario (the weights, i.e. the pricing, are constant). The
/// per-epoch scheduler uses `config` as-is; pass small budgets for fast
/// epochs.
///
/// `faults` is the fault plan and the loop's clock; `None` runs on
/// [`FaultPlan::none`] with the default [`FaultedRunConfig`]. Each
/// epoch detects the surviving servers, plans (restricted to survivors
/// when `fault_aware`), degrades to a feasible uniform fallback when
/// the decision pipeline fails, and records the *realized* benefit
/// under the materialized fault traces.
///
/// Epochs run under `epoch` spans, fallback-ladder scans under
/// `fallback` spans, liveness transitions become structured info
/// events, and degradations become warn events (mirrored to stderr).
/// Recorders never touch the RNG stream: a
/// [`eva_obs::NoopRecorder`] run and a recorded run are bit-identical.
/// Errors on preference weights that are negative, NaN, infinite or
/// all zero, zero epochs, a non-positive epoch, a negative heartbeat,
/// or a plan sized for another deployment.
pub fn run_online<R: Rng + ?Sized>(
    drifting: &mut DriftingScenario,
    config: &PamoConfig,
    weights: [f64; eva_workload::N_OBJECTIVES],
    n_epochs: usize,
    faults: Option<(&FaultPlan, &FaultedRunConfig)>,
    rng: &mut R,
    rec: &dyn Recorder,
) -> Result<OnlineRun, CoreError> {
    let initial = drifting.snapshot();
    let none = (
        FaultPlan::none(initial.n_servers(), initial.n_videos()),
        FaultedRunConfig::default(),
    );
    let (plan, cfg) = faults.unwrap_or((&none.0, &none.1));
    check_weights(&weights)?;
    require(n_epochs > 0, "zero epochs")?;
    check_timing(cfg.epoch_s, cfg.heartbeat_s)?;
    check_plan(plan, &initial)?;
    let pamo = Pamo::new(config.clone());

    let epoch_len = secs_to_ticks(cfg.epoch_s).max(1);
    let heartbeat = secs_to_ticks(cfg.heartbeat_s);
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
    let mut prev_alive: Option<Vec<bool>> = None;

    for epoch in 0..n_epochs {
        let _epoch_span = span(rec, Phase::Epoch);
        if rec.enabled() {
            rec.add("online.epochs", 1);
        }
        let scenario = drifting.snapshot();
        let pref = TruePreference::new(&scenario, weights);
        let t = epoch as u64 * epoch_len;
        let window = (t, t + epoch_len);

        // Heartbeat-timeout failure detection at the epoch boundary.
        let alive: Vec<bool> = server_up
            .iter()
            .map(|up| up.is_up_throughout(t.saturating_sub(heartbeat), t))
            .collect();
        let n_alive = alive.iter().filter(|&&a| a).count();

        // Liveness transitions as structured info events (telemetry
        // only — the detector itself is silent in production logs).
        if rec.enabled() {
            let prev = prev_alive.as_deref().unwrap_or(&[]);
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
        prev_alive = Some(alive.clone());

        let mask: Option<&[bool]> = if cfg.fault_aware && n_alive < alive.len() {
            Some(&alive)
        } else {
            None
        };
        if cfg.fault_aware && n_alive == 0 {
            // Whole-cluster outage: nothing to schedule on. Serve
            // nothing this epoch and retry at the next boundary.
            emit_warn(
                rec,
                ObsEvent::warn(
                    "cluster_outage",
                    format!("run_online: epoch {epoch}: no servers alive — skipping"),
                )
                .with("epoch", epoch),
            );
            any_degraded = true;
            drifting.advance(rng);
            continue;
        }

        // Plan the epoch; a failed decision or placement degrades to
        // the uniform fallback rather than ending the run.
        let planned = match pamo.decide_surviving_recorded(&scenario, &pref, mask, rng, rec) {
            Ok(d) => Some((d.configs, d.assignment)),
            Err(e) => {
                emit_warn(
                    rec,
                    ObsEvent::warn(
                        "decision_failed",
                        format!("run_online: epoch {epoch}: decision failed ({e})"),
                    )
                    .with("epoch", epoch),
                );
                None
            }
        };
        let (configs, assignment, fell_back) = match planned {
            Some((c, a)) => (c, a, false),
            None => match fallback_uniform(&scenario, &pref, mask, rec) {
                Some((c, a)) => (c, a, true),
                None => {
                    emit_warn(
                        rec,
                        ObsEvent::warn(
                            "no_fallback",
                            format!(
                                "run_online: epoch {epoch}: \
                                 no feasible fallback — skipping"
                            ),
                        )
                        .with("epoch", epoch),
                    );
                    any_degraded = true;
                    drifting.advance(rng);
                    continue;
                }
            },
        };
        if fell_back && rec.enabled() {
            rec.add("fault.fallbacks", 1);
        }

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
            drifting.advance(rng);
            continue;
        };

        if static_configs.is_none() {
            static_configs = Some(configs.clone());
        }
        // The frozen epoch-0 policy, charged under the same faults.
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
            divergence: drifting.divergence_from(&initial),
            online_benefit,
            static_benefit,
            configs,
            alive,
            degraded,
            rung: DecisionRung::Full,
        });
        drifting.advance(rng);
    }
    Ok(OnlineRun {
        epochs,
        degraded: any_degraded,
    })
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

/// The fallback ladder: scan the (resolution-, fps-ordered) config grid
/// for uniform joint configurations that still admit a zero-jitter
/// placement on the surviving servers, and keep the best one by planned
/// benefit. Cheap by construction — the grid is small and scheduling a
/// uniform config is a single Algorithm-1 run.
pub(crate) fn fallback_uniform(
    scenario: &Scenario,
    pref: &TruePreference,
    alive: Option<&[bool]>,
    rec: &dyn Recorder,
) -> Option<(Vec<VideoConfig>, Assignment)> {
    let _fallback_span = span(rec, Phase::Fallback);
    let m = scenario.n_videos();
    let mut best: Option<(f64, Vec<VideoConfig>, Assignment)> = None;
    for c in scenario.config_space().iter() {
        let configs = vec![c; m];
        let Ok(out) = scenario.evaluate_surviving(&configs, alive, &NoopRecorder) else {
            continue;
        };
        let b = pref.benefit(&out.outcome);
        if !b.is_finite() {
            continue;
        }
        if best.as_ref().is_none_or(|(bb, _, _)| b > *bb) {
            best = Some((b, configs, out.assignment));
        }
    }
    best.map(|(_, c, a)| (c, a))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pamo::PreferenceSource;
    use eva_bo::{AcqKind, BoConfig};
    use eva_obs::FlightRecorder;
    use eva_stats::rng::seeded;

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
        let mut d = DriftingScenario::new(sc, drift);
        run_online(
            &mut d,
            &tiny_config(),
            [1.0; 5],
            n_epochs,
            faults,
            &mut seeded(seed),
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
        let mut d = DriftingScenario::new(&base(), 0.05);
        let err = run_online(
            &mut d,
            &tiny_config(),
            weights,
            2,
            None,
            &mut seeded(1),
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
    fn fallback_picks_the_best_uniform_config_on_the_survivors() {
        let sc = base();
        let pref = TruePreference::new(&sc, [1.0, 3.0, 1.0, 1.0, 1.0]);
        let alive = [false, true];
        let flight = FlightRecorder::new();
        let (configs, assignment) =
            fallback_uniform(&sc, &pref, Some(&alive), &flight).expect("server 1 hosts a config");
        assert!(configs.iter().all(|c| *c == configs[0]), "not uniform");
        assert!(assignment.server_of.iter().all(|&s| s == 1));
        // Brute force over the grid: no feasible uniform config plans a
        // higher benefit.
        let feasible: Vec<f64> = sc
            .config_space()
            .iter()
            .filter_map(|c| {
                sc.evaluate_surviving(&[c; 3], Some(&alive), &NoopRecorder)
                    .ok()
            })
            .map(|out| pref.benefit(&out.outcome))
            .collect();
        let best = feasible.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let chosen = sc
            .evaluate_surviving(&configs, Some(&alive), &NoopRecorder)
            .expect("the fallback is feasible");
        assert_eq!(pref.benefit(&chosen.outcome), best);
        let spans = flight.snapshot().phase_stats();
        assert_eq!(
            spans
                .iter()
                .find(|(p, _)| *p == Phase::Fallback)
                .map(|(_, s)| s.count),
            Some(1)
        );
    }

    #[test]
    fn fallback_is_none_when_nothing_fits_the_survivors() {
        let sc = base();
        let pref = TruePreference::uniform(&sc);
        let dead = [false, false];
        assert!(fallback_uniform(&sc, &pref, Some(&dead), &NoopRecorder).is_none());
    }
}
