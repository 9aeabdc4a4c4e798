//! Continuous-arrival serving: its configuration, its result, and the
//! [`run_serving`] entry point.
//!
//! Every other runner in this crate replays a *fixed* tenant set. A
//! serving run instead drives a discrete-event simulation whose stream
//! set mutates mid-run: a pre-generated churn trace
//! ([`eva_serve::ChurnTrace`]) injects tenant arrivals and departures,
//! an optional [`FaultPlan`] injects server crashes and restores, and
//! the loop reacts to all four event kinds uniformly as replan
//! triggers. The loop is the [`ServingSession`] step machine of
//! [`crate::overload`]; [`run_serving`] runs one to completion with an
//! unlimited decision budget and the caller's fault plan as its only
//! chaos.
//!
//! Two reaction disciplines are compared:
//!
//! * **event-driven** (`event_driven = true`): every event is handled
//!   at its event time — arrivals get an admission probe and, when
//!   accepted, an incremental row repair; departures/failures/restores
//!   get a row repair immediately.
//! * **epoch-synchronous** (`event_driven = false`): churn events are
//!   deferred to the next epoch boundary and failures are only noticed
//!   by the boundary heartbeat check.
//!
//! Both disciplines re-optimize with the full PaMO pipeline at every
//! epoch boundary, so the comparison isolates *reaction policy*, not
//! decision quality.
//!
//! **Reaction time** has one definition: the wait until the step that
//! handled the event (0 at event time, the boundary wait when
//! deferred) plus the handler's *modeled* control work — the
//! [`eva_obs::cost`] units it charged, times
//! [`BudgetPolicy::modeled_time_s`], times the active straggler
//! divisor. It never reads the wall clock, so a seeded run reproduces
//! bit for bit, reaction times included. [`run_serving`] models work
//! with [`SERVING_POLICY`].
//!
//! **Server failures.** When the survivor re-solve after a failure is
//! infeasible, the deployed plan stays in place and the event records
//! `"deferred"`: cameras on the dead server already stop counting
//! towards served value (ground-truth liveness), while the survivors
//! keep serving until the next boundary re-plans.
//!
//! **Serving value.** The run integrates `served(t) · quality(t)` over
//! time, where `served(t)` counts cameras whose post-split streams all
//! sit on truly-up servers (departed-but-unnoticed tenants do not
//! count — an epoch-synchronous scheduler keeps burning resources on
//! them, which is exactly the waste this metric exposes) and
//! `quality(t)` is the normalized benefit of the deployed joint
//! configuration. `ServingRun::benefit_per_server` divides the
//! integral by `horizon × n_servers` — the paper's "maximize system
//! benefit" objective, per provisioned server, under churn.
//!
//! **Determinism.** The churn trace and each tenant's clip profile are
//! pure functions of `churn_seed`; the drift walk and the PaMO
//! decisions draw from one RNG seeded with the run seed, and
//! mid-window event handling consumes none of it. A silent arrival
//! model with no fault plan therefore decides exactly what
//! [`crate::online::run_online`] decides: the session's epochs are
//! bit-identical to a fault-free online run's, which the differential
//! tests check.

use eva_fault::{ChaosSpec, FaultPlan};
use eva_obs::{BudgetPolicy, Recorder};
use eva_serve::{AdmissionConfig, ArrivalModel, ChurnConfig, ChurnTrace};
use eva_workload::{Scenario, N_OBJECTIVES};

use crate::error::{require, CoreError};
use crate::online::{check_plan, check_timing, EpochRecord};
use crate::overload::{OverloadConfig, ServingSession};
use crate::pamo::PamoConfig;

/// The reaction-time model of [`run_serving`]: an unlimited window
/// (the budget is metered, never enforced), no deadline, and
/// `unit_time_s = 0.01` modeled seconds per work unit — the unit time
/// the unbudgeted serve workloads of `perf_baseline` and `perfbench`
/// already use. Uncalibrated: the [`eva_obs::cost`] units are constants
/// not yet fitted to measured CPU time (ROADMAP, "A calibrated cost
/// model, then the cameras-per-core question"), so reaction times
/// compare policies, not hardware.
pub const SERVING_POLICY: BudgetPolicy = BudgetPolicy {
    window_units: u64::MAX,
    full_floor: 0,
    repair_floor: 0,
    unit_time_s: 0.01,
    deadline_s: f64::INFINITY,
};

/// Knobs of a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Epoch (full re-optimization) period in seconds.
    pub epoch_s: f64,
    /// Number of epochs; the horizon is `epoch_s * n_epochs`.
    pub n_epochs: usize,
    /// Heartbeat interval — the epoch-synchronous failure detector
    /// marks a server down at a boundary iff it was not up throughout
    /// the trailing heartbeat window.
    pub heartbeat_s: f64,
    /// `true`: react at event time; `false`: defer to epoch boundaries.
    pub event_driven: bool,
    /// Arrival process for churn tenants.
    pub arrivals: ArrivalModel,
    /// Mean tenant hold (service) time in seconds.
    pub mean_hold_s: f64,
    /// Seed of the churn trace and of per-tenant clip profiles.
    pub churn_seed: u64,
    /// Admission policy.
    pub admission: AdmissionConfig,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            epoch_s: 30.0,
            n_epochs: 4,
            heartbeat_s: 2.0,
            event_driven: true,
            arrivals: ArrivalModel::Poisson { rate_hz: 0.05 },
            mean_hold_s: 45.0,
            churn_seed: 0,
            admission: AdmissionConfig::default(),
        }
    }
}

impl ServingConfig {
    /// The run horizon in seconds.
    pub fn horizon_s(&self) -> f64 {
        self.epoch_s * self.n_epochs as f64
    }

    /// The seeded churn trace over the run horizon.
    pub(crate) fn churn_trace(&self) -> ChurnTrace {
        ChurnTrace::generate(&ChurnConfig {
            model: self.arrivals,
            mean_hold_s: self.mean_hold_s,
            horizon_s: self.horizon_s(),
            seed: self.churn_seed,
        })
    }
}

/// One handled serving event (simulation-time stamped).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeEvent {
    /// Event time in seconds from run start.
    pub time_s: f64,
    /// `"arrival"`, `"departure"`, `"failure"` or `"restore"`.
    pub kind: &'static str,
    /// Churn tenant id (`None` for server events).
    pub tenant: Option<u64>,
    /// What the scheduler did: `"accepted"`, `"queued"`, `"rejected"`,
    /// `"replanned"`, `"ignored"`, `"degraded"`, `"shed"` (dropped by
    /// overload load shedding) or `"deferred"` (pushed past the budget
    /// window by a stale-rung controller).
    pub outcome: &'static str,
    /// Replan scope when a replan ran: `"incremental"`, `"full"` or
    /// `"coalesced"` (one batched full solve absorbing a burst).
    pub scope: Option<&'static str>,
    /// The escalation-ladder rung the controller was on when it
    /// handled this event (`"full"`, `"repair"` or `"stale"`); always
    /// `"full"` outside budgeted overload runs.
    pub rung: &'static str,
    /// Scheduling reaction latency in modeled seconds: the wait until
    /// the step that handled the event (0 at event time) plus the
    /// handler's modeled control work (see the module docs).
    pub reaction_s: f64,
    /// Live churn tenants after handling.
    pub live_tenants: usize,
}

/// Result of a serving run.
#[derive(Debug, Clone)]
pub struct ServingRun {
    /// One record per epoch boundary (same shape as an online run).
    pub epochs: Vec<EpochRecord>,
    /// Every handled event, time-ordered.
    pub events: Vec<ServeEvent>,
    /// Tenants admitted.
    pub accepted: u64,
    /// Tenants turned away.
    pub rejected: u64,
    /// Peak retry-queue depth.
    pub queued_peak: usize,
    /// Replans resolved by incremental row repair.
    pub replan_incremental: u64,
    /// Replans that fell back to a full re-solve.
    pub replan_full: u64,
    /// Integral of served-cameras × normalized-benefit over the run
    /// (camera-seconds of quality-weighted service).
    pub value_integral: f64,
    /// Run horizon in seconds.
    pub horizon_s: f64,
    /// Provisioned servers.
    pub n_servers: usize,
    /// Minimum over accepted admissions of
    /// `incumbent_after - (incumbent_before - max_benefit_drop)`;
    /// `+inf` when nothing was admitted. Non-negative iff admission
    /// kept every incumbent above the configured floor.
    pub min_floor_margin: f64,
    /// Whether the run ever served a degraded or dark interval.
    pub degraded: bool,
    /// Waiting tenants dropped by overload load shedding (age expiry
    /// plus high-water eviction); 0 outside overload runs.
    pub shed: u64,
    /// Replans coalesced into batched full solves under pressure.
    pub replan_coalesced: u64,
    /// Total decision-budget work units spent across all windows.
    pub budget_spent: u64,
    /// Budget overruns — forced charges past an exhausted budget.
    /// Always 0 when the escalation ladder is tuned correctly; the
    /// `ext_overload` experiment gates on it.
    pub budget_overruns: u64,
    /// Decision windows whose modeled control latency met the
    /// [`eva_obs::BudgetPolicy`] deadline.
    pub deadline_hits: u64,
    /// Decision windows that missed the modeled deadline.
    pub deadline_misses: u64,
    /// Epoch decisions taken per escalation-ladder rung, indexed by
    /// [`eva_obs::DecisionRung::index`] (`[full, repair, stale]`).
    pub rung_counts: [u64; 3],
}

impl ServingRun {
    /// Quality-weighted camera-seconds served per provisioned
    /// server-second — the headline metric of the churn experiment.
    pub fn benefit_per_server(&self) -> f64 {
        if self.horizon_s <= 0.0 || self.n_servers == 0 {
            return 0.0;
        }
        self.value_integral / (self.horizon_s * self.n_servers as f64)
    }

    /// Rejected fraction of decided (accepted + rejected) arrivals.
    pub fn rejection_rate(&self) -> f64 {
        let decided = self.accepted + self.rejected;
        if decided == 0 {
            return 0.0;
        }
        self.rejected as f64 / decided as f64
    }

    /// p99 scheduling reaction latency over all handled events
    /// (`"ignored"` events excluded); 0 when nothing was handled.
    pub fn reaction_p99_s(&self) -> f64 {
        percentile_99(
            self.events
                .iter()
                .filter(|e| e.outcome != "ignored")
                .map(|e| e.reaction_s),
        )
    }

    /// Fraction of decision windows whose modeled control latency met
    /// the budget policy's deadline; 1.0 when nothing was measured.
    pub fn deadline_hit_rate(&self) -> f64 {
        let total = self.deadline_hits + self.deadline_misses;
        if total == 0 {
            return 1.0;
        }
        self.deadline_hits as f64 / total as f64
    }

    /// p99 reaction latency restricted to one event kind.
    pub fn reaction_p99_for(&self, kind: &str) -> f64 {
        percentile_99(
            self.events
                .iter()
                .filter(|e| e.kind == kind && e.outcome != "ignored")
                .map(|e| e.reaction_s),
        )
    }
}

pub(crate) fn percentile_99(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 * 0.99).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// Drive a continuous-serving run of `serving.n_epochs` epochs over
/// `initial`, whose content drifts by `drift_step` per epoch; the run
/// RNG is seeded from `seed`.
///
/// `plan` injects server crashes/restores (camera faults and retry
/// budgets are ignored here — serving models churn and crashes, not
/// frame loss). The run is a [`ServingSession`] over the caller's plan
/// with an inert [`ChaosSpec`], an unlimited budget and
/// [`SERVING_POLICY`], stepped to completion — silent, fault-free runs
/// included.
///
/// Errors on zero epochs, a non-positive epoch, a negative heartbeat,
/// or a plan sized for another deployment.
#[allow(clippy::too_many_arguments)]
pub fn run_serving(
    initial: &Scenario,
    drift_step: f64,
    config: &PamoConfig,
    weights: [f64; N_OBJECTIVES],
    plan: Option<&FaultPlan>,
    serving: &ServingConfig,
    seed: u64,
    rec: &dyn Recorder,
) -> Result<ServingRun, CoreError> {
    require(serving.n_epochs > 0, "zero epochs")?;
    check_timing(serving.epoch_s, serving.heartbeat_s)?;
    if let Some(p) = plan {
        check_plan(p, initial)?;
    }
    let plan = plan.filter(|p| !p.is_zero());
    let trace = serving.churn_trace();
    let overload = OverloadConfig::unbudgeted(ChaosSpec::none(0), SERVING_POLICY);
    let mut session = ServingSession::with_plan(
        initial, drift_step, config, weights, serving, &overload, plan, trace, seed,
    );
    Ok(session.run(rec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::run_online;
    use crate::pamo::PreferenceSource;
    use eva_bo::{AcqKind, BoConfig};
    use eva_obs::NoopRecorder;
    use eva_stats::rng::seeded;
    use eva_workload::DriftingScenario;
    use std::collections::HashSet;

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
        Scenario::uniform(3, 3, 20e6, 61)
    }

    fn storm(event_driven: bool) -> ServingConfig {
        ServingConfig {
            epoch_s: 20.0,
            n_epochs: 3,
            event_driven,
            arrivals: ArrivalModel::Poisson { rate_hz: 0.15 },
            mean_hold_s: 25.0,
            churn_seed: 5,
            ..ServingConfig::default()
        }
    }

    fn serve(
        drift_step: f64,
        plan: Option<&FaultPlan>,
        serving: &ServingConfig,
        seed: u64,
    ) -> Result<ServingRun, CoreError> {
        run_serving(
            &base(),
            drift_step,
            &tiny_config(),
            [1.0; 5],
            plan,
            serving,
            seed,
            &NoopRecorder,
        )
    }

    /// Differential: a silent, fault-free `ServingSession` and the
    /// epoch loop of `run_online` are separate implementations of the
    /// same controller, and must decide the same epochs bit for bit.
    #[test]
    fn zero_churn_session_is_bit_identical_to_the_epoch_loop() {
        let plain = {
            let mut d = DriftingScenario::new(&base(), 0.08);
            run_online(
                &mut d,
                &tiny_config(),
                [1.0; 5],
                4,
                None,
                &mut seeded(9),
                &NoopRecorder,
            )
            .expect("valid inputs")
        };
        let silent = ServingConfig {
            epoch_s: 30.0,
            n_epochs: 4,
            arrivals: ArrivalModel::Poisson { rate_hz: 0.0 },
            ..ServingConfig::default()
        };
        for plan in [None, Some(FaultPlan::none(3, 3))] {
            let served = serve(0.08, plan.as_ref(), &silent, 9).expect("valid inputs");
            assert!(served.events.is_empty());
            assert_eq!(served.epochs.len(), plain.epochs.len());
            for (s, p) in served.epochs.iter().zip(&plain.epochs) {
                assert_eq!(
                    s.online_benefit.to_bits(),
                    p.online_benefit.to_bits(),
                    "epoch {} diverged",
                    s.epoch
                );
                assert_eq!(s.configs, p.configs);
            }
            assert!(served.value_integral > 0.0);
        }
    }

    #[test]
    fn storm_run_admits_tenants_and_respects_the_floor() {
        let run = serve(0.05, None, &storm(true), 2).expect("valid inputs");
        let arrivals = run.events.iter().filter(|e| e.kind == "arrival").count();
        assert!(arrivals > 0, "storm produced no arrival events");
        assert!(run.accepted > 0, "nothing admitted under a light storm");
        assert!(
            run.min_floor_margin >= -1e-9,
            "admission violated the incumbent floor: margin {}",
            run.min_floor_margin
        );
        assert!(run.value_integral > 0.0);
        // Live tenant counts reported on events never exceed the cap.
        for e in &run.events {
            assert!(e.live_tenants <= run.n_servers * 64);
        }
    }

    #[test]
    fn event_driven_reacts_faster_than_epoch_synchronous() {
        let ed = serve(0.05, None, &storm(true), 2).expect("valid inputs");
        let es = serve(0.05, None, &storm(false), 2).expect("valid inputs");
        assert!(ed.events.iter().any(|e| e.outcome == "accepted"));
        // Epoch-sync charges boundary waits (seconds); event-driven
        // charges modeled handler work only.
        assert!(
            ed.reaction_p99_s() < es.reaction_p99_s(),
            "event-driven p99 {} !< epoch-sync p99 {}",
            ed.reaction_p99_s(),
            es.reaction_p99_s()
        );
        assert!(es.reaction_p99_s() > 1.0, "boundary waits should dominate");
    }

    #[test]
    fn event_driven_reactions_are_whole_modeled_work_units() {
        let run = serve(0.05, None, &storm(true), 2).expect("valid inputs");
        for e in run.events.iter().filter(|e| e.outcome != "ignored") {
            let units = e.reaction_s / SERVING_POLICY.unit_time_s;
            assert!(units >= 1.0, "{e:?}");
            assert!((units - units.round()).abs() < 1e-9, "{e:?}");
        }
    }

    #[test]
    fn server_crashes_surface_as_failure_and_restore_events() {
        let plan = FaultPlan::none(3, 3).with_server_crashes(25.0, 15.0, 11);
        let run = serve(
            0.05,
            Some(&plan),
            &ServingConfig {
                epoch_s: 20.0,
                n_epochs: 3,
                arrivals: ArrivalModel::Poisson { rate_hz: 0.0 },
                ..ServingConfig::default()
            },
            4,
        )
        .expect("valid inputs");
        let kinds: HashSet<&str> = run.events.iter().map(|e| e.kind).collect();
        assert!(
            kinds.contains("failure"),
            "no failure events in {kinds:?} ({} events)",
            run.events.len()
        );
        assert!(run.degraded, "crash-heavy run must be flagged degraded");
    }

    #[test]
    fn serving_inputs_are_checked() {
        let bad = [
            ServingConfig {
                n_epochs: 0,
                ..storm(true)
            },
            ServingConfig {
                epoch_s: 0.0,
                ..storm(true)
            },
            ServingConfig {
                heartbeat_s: -1.0,
                ..storm(true)
            },
        ];
        for serving in &bad {
            let err = serve(0.05, None, serving, 2).map(|_| ()).unwrap_err();
            assert!(matches!(err, CoreError::InvalidInput { .. }), "{err}");
        }
        // `base()` has 3 servers and 3 cameras.
        for plan in [FaultPlan::none(2, 3), FaultPlan::none(3, 4)] {
            let err = serve(0.05, Some(&plan), &storm(true), 2)
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, CoreError::InvalidInput { .. }), "{err}");
        }
    }

    #[test]
    fn infeasible_survivor_resolve_keeps_serving_the_stale_plan() {
        // The quick `ext_churn` storm: a crash lands while the admitted
        // tenants fill every server, so the survivors cannot host the
        // whole placement.
        let mut cfg = PamoConfig {
            preference: PreferenceSource::Oracle,
            ..Default::default()
        };
        cfg.bo.max_iters = 3;
        cfg.pool_size = 20;
        cfg.profiling_per_camera = 20;
        let serving = ServingConfig {
            epoch_s: 20.0,
            n_epochs: 4,
            event_driven: true,
            arrivals: ArrivalModel::Poisson { rate_hz: 0.3 },
            mean_hold_s: 30.0,
            churn_seed: 7,
            ..ServingConfig::default()
        };
        let plan = FaultPlan::none(3, 4).with_server_crashes(90.0, 25.0, 42);
        let run = run_serving(
            &Scenario::uniform(4, 3, 20e6, 99),
            0.05,
            &cfg,
            [1.0, 3.0, 1.0, 1.0, 1.0],
            Some(&plan),
            &serving,
            17,
            &NoopRecorder,
        )
        .expect("valid inputs");
        let failures: Vec<&ServeEvent> =
            run.events.iter().filter(|e| e.kind == "failure").collect();
        let deferred = failures
            .iter()
            .find(|e| e.outcome == "deferred")
            .expect("a failure whose survivor re-solve is infeasible");
        assert_eq!(deferred.scope, None);
        // No failure takes the plan dark: the survivors keep serving.
        assert!(
            failures.iter().all(|e| e.outcome != "degraded"),
            "{failures:?}"
        );
    }
}
