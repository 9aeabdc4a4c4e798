//! The continuous-serving workload: one `ServingSession` stepped to the
//! end of its horizon, one `ServingSession::step` call per op.

use std::collections::BTreeMap;

use eva_bo::{AcqKind, BoConfig};
use eva_fault::{ChaosSpec, CrashBursts};
use eva_obs::BudgetPolicy;
use eva_serve::{ArrivalModel, ChurnAction, ChurnConfig, ChurnTrace};
use eva_stats::rng::seeded;
use eva_workload::Scenario;
use pamo_core::{
    OverloadConfig, PamoConfig, PreferenceSource, ServingConfig, ServingRun, ServingSession,
};

use crate::harness::{recorder, sub_seed, Op, Plan, Run, FLEET_SEED};
use crate::stats::percentile;

const CAMERAS: usize = 100;
const SERVERS: usize = 10;
const WEIGHTS: [f64; 5] = [1.0; 5];
/// The labels of event steps: the kind of the event they handled.
const EVENT_KINDS: [&str; 4] = ["arrival", "departure", "failure", "restore"];

/// What a session step did, read from outside the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// An epoch-boundary decision.
    Boundary,
    /// The handling of one timeline event (arrival, departure, server
    /// failure or restore): the session's reaction.
    Event,
    /// The close of an epoch's event window (drift advance).
    Close,
    /// The end-of-horizon flush.
    Flush,
}

impl StepKind {
    fn label(self) -> &'static str {
        match self {
            StepKind::Boundary => "boundary",
            StepKind::Event => "event",
            StepKind::Close => "close",
            StepKind::Flush => "flush",
        }
    }
}

/// Classify a run of session steps from the epoch count the session
/// reported before the first step and after each one. A step that adds
/// an epoch record is a boundary; the last step is the flush; a step
/// right before a boundary or the flush closes a window; every other
/// step handles one timeline event.
pub fn classify(epochs_before: usize, epochs_after: &[usize]) -> Vec<StepKind> {
    let n = epochs_after.len();
    let boundary: Vec<bool> = (0..n)
        .map(|i| {
            let before = if i == 0 {
                epochs_before
            } else {
                epochs_after[i - 1]
            };
            epochs_after[i] > before
        })
        .collect();
    (0..n)
        .map(|i| {
            if boundary[i] {
                StepKind::Boundary
            } else if i + 1 == n {
                StepKind::Flush
            } else if i + 2 == n || boundary[i + 1] {
                StepKind::Close
            } else {
                StepKind::Event
            }
        })
        .collect()
}

struct Inputs {
    scenario: Scenario,
    serving: ServingConfig,
    overload: OverloadConfig,
    config: PamoConfig,
    session_seed: u64,
}

fn inputs(seed: u64) -> Inputs {
    Inputs {
        scenario: Scenario::standard(CAMERAS, SERVERS, &mut seeded(FLEET_SEED)),
        serving: ServingConfig {
            epoch_s: 30.0,
            n_epochs: 20,
            event_driven: true,
            arrivals: ArrivalModel::Poisson { rate_hz: 1.0 },
            mean_hold_s: 60.0,
            churn_seed: sub_seed(seed, 1),
            ..ServingConfig::default()
        },
        // Unbudgeted: every decision runs in full, so step costs are
        // the pipeline's own. The policy only meters modeled time.
        overload: OverloadConfig::unbudgeted(
            ChaosSpec {
                crash_bursts: Some(CrashBursts {
                    mttf_s: 200.0,
                    mttr_s: 30.0,
                }),
                ..ChaosSpec::none(sub_seed(seed, 2))
            },
            BudgetPolicy {
                window_units: 300,
                full_floor: 120,
                repair_floor: 40,
                unit_time_s: 0.01,
                deadline_s: 3.0,
            },
        ),
        config: PamoConfig {
            bo: BoConfig {
                n_init: 4,
                batch: 2,
                mc_samples: 16,
                max_iters: 5,
                delta: 0.0,
                kind: AcqKind::QNei,
            },
            pool_size: 20,
            profiling_per_camera: 25,
            profile_noise: 0.02,
            n_comparisons: 6,
            elicit_candidates: 15,
            preference: PreferenceSource::Oracle,
        },
        session_seed: sub_seed(seed, 3),
    }
}

/// Build the session and run its bootstrap epoch (the cold decide).
fn set_up(inp: &Inputs) -> ServingSession {
    let mut session = ServingSession::new(
        &inp.scenario,
        0.05,
        &inp.config,
        WEIGHTS,
        &inp.serving,
        &inp.overload,
        inp.session_seed,
    );
    session.step(&eva_obs::NoopRecorder);
    session
}

/// Drive one session to completion.
pub fn run(plan: &Plan) -> Run {
    let tracer = plan.tracer;
    let inp = inputs(plan.seed);
    let mut run = Run {
        sizes: format!(
            "{CAMERAS} cameras x {SERVERS} servers, Poisson 1 Hz arrivals, 60 s hold, \
             {} x {} s epochs, crash bursts (MTTF 200 s, MTTR 30 s)",
            inp.serving.n_epochs, inp.serving.epoch_s
        ),
        // A joining camera waits for its admission step; departures,
        // failures, restores and epoch decides are timed as ops too.
        primary: "arrival",
        ..Run::default()
    };
    let mut session = run.set_up(plan.setup_reps, |_| set_up(&inp));

    let rec = recorder(tracer);
    let before = session.finish();
    let mut epochs_after = Vec::new();
    let mut events_before = vec![before.events.len()];
    let cpu = run.start_loop();
    while !session.is_done() {
        run.op(tracer, "step", || session.step(rec));
        // Read back outside the timed call.
        let after = session.finish();
        epochs_after.push(after.epochs.len());
        events_before.push(after.events.len());
    }
    run.end_loop(cpu);
    let result = session.finish();
    let kinds = classify(before.epochs.len(), &epochs_after);
    for (i, (op, kind)) in run.ops.iter_mut().zip(kinds).enumerate() {
        // An event step is labelled with the kind of the first event it
        // logged: arrival, departure, failure or restore.
        op.kind = match kind {
            StepKind::Event => result
                .events
                .get(events_before[i])
                .map_or(kind.label(), |e| e.kind),
            _ => kind.label(),
        };
    }

    digest(&result, &mut run);
    let arrivals = ChurnTrace::generate(&ChurnConfig {
        model: inp.serving.arrivals,
        mean_hold_s: inp.serving.mean_hold_s,
        horizon_s: inp.serving.horizon_s(),
        seed: inp.serving.churn_seed,
    })
    .events()
    .iter()
    .filter(|e| e.action == ChurnAction::Arrive)
    .count() as u64;
    let checked = accounting(&result, inp.serving.n_epochs, arrivals);
    run.check("session", checked);
    figures(&result, &run.ops.clone(), &mut run);
    run
}

fn digest(r: &ServingRun, run: &mut Run) {
    let d = &mut run.digest;
    for v in [r.accepted, r.rejected, r.replan_incremental, r.replan_full] {
        d.u64(v);
    }
    d.f64(r.value_integral);
    for e in &r.events {
        d.f64(e.time_s);
        d.str(e.kind);
        d.str(e.outcome);
        d.str(e.scope.unwrap_or("-"));
        d.f64(e.reaction_s);
    }
    for e in &r.epochs {
        d.f64(e.online_benefit);
    }
}

/// The session's accounting balances: every epoch decided with a finite
/// benefit, every arrival of the churn trace ends accepted, rejected,
/// shed or still waiting exactly once, the run's counters match its
/// event log, and admission kept every incumbent above its floor.
pub fn accounting(r: &ServingRun, n_epochs: usize, arrivals: u64) -> Result<(), String> {
    if r.epochs.len() != n_epochs {
        return Err(format!(
            "{} epochs recorded, {n_epochs} run",
            r.epochs.len()
        ));
    }
    if let Some(e) = r.epochs.iter().find(|e| !e.online_benefit.is_finite()) {
        return Err(format!("epoch {} benefit {}", e.epoch, e.online_benefit));
    }
    if r.events.windows(2).any(|w| w[1].time_s < w[0].time_s) {
        return Err("event log is not time-ordered".into());
    }
    let bps = r.benefit_per_server();
    if !(bps.is_finite() && bps > 0.0) {
        return Err(format!("benefit per server {bps}"));
    }
    if r.min_floor_margin < 0.0 {
        return Err(format!("min floor margin {} < 0", r.min_floor_margin));
    }
    // The last arrival-side outcome of each tenant decides its fate.
    let mut fate: BTreeMap<u64, &str> = BTreeMap::new();
    let mut accepted_events = 0u64;
    let mut rejected_events = 0u64;
    for e in r.events.iter().filter(|e| e.kind == "arrival") {
        let Some(t) = e.tenant else {
            return Err("arrival without a tenant".into());
        };
        match e.outcome {
            "accepted" => accepted_events += 1,
            "rejected" => rejected_events += 1,
            "queued" | "shed" => {}
            other => return Err(format!("arrival outcome {other:?}")),
        }
        if fate
            .get(&t)
            .is_some_and(|&f| f == "accepted" || f == "rejected")
        {
            return Err(format!("tenant {t} handled after its final outcome"));
        }
        fate.insert(t, e.outcome);
    }
    if accepted_events != r.accepted || rejected_events != r.rejected {
        return Err(format!(
            "counters say {} accepted / {} rejected, the log {accepted_events} / {rejected_events}",
            r.accepted, r.rejected
        ));
    }
    if fate.len() as u64 != arrivals {
        return Err(format!(
            "{arrivals} arrivals in the trace, {} handled",
            fate.len()
        ));
    }
    let shed = fate.values().filter(|&&f| f == "shed").count() as u64;
    if shed != r.shed {
        return Err(format!(
            "{shed} tenants shed in the log, {} counted",
            r.shed
        ));
    }
    Ok(())
}

/// The serving figures the per-layer table reports.
fn figures(r: &ServingRun, ops: &[Op], run: &mut Run) {
    let secs = |kind: &str| -> Vec<f64> {
        ops.iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.secs)
            .collect()
    };
    let react: Vec<f64> = ops
        .iter()
        .filter(|o| EVENT_KINDS.contains(&o.kind))
        .map(|o| o.secs)
        .collect();
    let boundary = secs("boundary");
    let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(0.0);
    let count = |pred: &dyn Fn(&pamo_core::ServeEvent) -> bool| -> f64 {
        r.events.iter().filter(|e| pred(e)).count() as f64
    };
    let replanned = count(&|e| e.outcome == "replanned");
    let degraded = count(&|e| e.outcome == "degraded");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    run.figures.extend([
        ("serve.react_s_p50", pct(&react, 50.0)),
        ("serve.react_s_p90", pct(&react, 90.0)),
        ("serve.react_s_p99", pct(&react, 99.0)),
        ("serve.react_n", react.len() as f64),
        ("serve.decide_s_p50", pct(&boundary, 50.0)),
        ("serve.benefit_per_server", r.benefit_per_server()),
        (
            "serve.accept_frac",
            ratio(r.accepted as f64, (r.accepted + r.rejected) as f64),
        ),
        (
            "serve.incremental_frac",
            ratio(
                r.replan_incremental as f64,
                (r.replan_incremental + r.replan_full) as f64,
            ),
        ),
        (
            "serve.replan_failure_frac",
            ratio(degraded, replanned + degraded),
        ),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use StepKind::*;

    #[test]
    fn classifies_boundaries_events_closes_and_the_flush() {
        // Set-up ran boundary 0. Then: two events, close, boundary 1,
        // one event, close, flush.
        let kinds = classify(1, &[1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(
            kinds,
            vec![Event, Event, Close, Boundary, Event, Close, Flush]
        );
    }

    #[test]
    fn an_empty_window_is_a_close_right_before_the_boundary() {
        let kinds = classify(1, &[1, 2, 2, 2]);
        assert_eq!(kinds, vec![Close, Boundary, Close, Flush]);
    }

    #[test]
    fn a_run_from_the_start_begins_with_a_boundary() {
        let kinds = classify(0, &[1, 1, 1, 1]);
        assert_eq!(kinds, vec![Boundary, Event, Close, Flush]);
    }
}
