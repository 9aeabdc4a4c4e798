//! The epoch-decide workloads: a closed loop of PaMO decisions on a
//! drifting scenario, one `Pamo::decide_surviving_recorded` call per op.

use eva_bo::{AcqKind, BoConfig};
use eva_stats::rng::seeded;
use eva_workload::{DriftingScenario, Scenario};
use pamo_core::{Pamo, PamoConfig, PamoDecision, PreferenceSource, TruePreference};

use crate::check;
use crate::harness::{recorder, sub_seed, Plan, Run, FLEET_SEED};

/// Content drift per epoch (the online loop's usual step).
const DRIFT_STEP: f64 = 0.05;

/// One decide workload.
struct Spec {
    cameras: usize,
    servers: usize,
    config: PamoConfig,
    /// Timed decides after the cold set-up decide.
    ops: usize,
    /// Drop the warm-start state before every `k`-th epoch.
    reset_every: Option<usize>,
    /// Uniform 20 Mb/s uplinks instead of the standard mixed pool.
    uniform: bool,
}

/// Fleet scale: 2000 cameras on 200 servers with the oracle preference
/// and a reduced BO whose `δ = 0` makes every decide run its full
/// iteration budget, so op cost does not depend on where BO converges.
pub fn fleet(plan: &Plan) -> Run {
    run(
        plan,
        &Spec {
            cameras: 2000,
            servers: 200,
            config: PamoConfig {
                bo: BoConfig {
                    n_init: 4,
                    batch: 2,
                    mc_samples: 16,
                    max_iters: 5,
                    delta: 0.0,
                    kind: AcqKind::QNei,
                },
                pool_size: 12,
                profiling_per_camera: 25,
                profile_noise: 0.02,
                n_comparisons: 6,
                elicit_candidates: 15,
                preference: PreferenceSource::Oracle,
            },
            ops: plan.ops,
            reset_every: None,
            uniform: false,
        },
    )
}

/// Paper scale: 8 cameras on 5 servers with the default configuration
/// and the learned preference; every 10th epoch models a re-deployment
/// by dropping the warm-start state.
pub fn paper_learned(plan: &Plan) -> Run {
    run(
        plan,
        &Spec {
            cameras: 8,
            servers: 5,
            config: PamoConfig::default().with_delta(0.0),
            ops: plan.ops,
            reset_every: Some(10),
            uniform: true,
        },
    )
}

/// The state a set-up builds and the timed loop continues from.
struct State {
    drifting: DriftingScenario,
    pamo: Pamo,
    decide_rng: rand::rngs::StdRng,
    drift_rng: rand::rngs::StdRng,
}

fn set_up(seed: u64, spec: &Spec, run: &mut Run) -> State {
    let base = if spec.uniform {
        Scenario::uniform(spec.cameras, spec.servers, 20e6, FLEET_SEED)
    } else {
        Scenario::standard(spec.cameras, spec.servers, &mut seeded(FLEET_SEED))
    };
    let mut state = State {
        drifting: DriftingScenario::new(&base, DRIFT_STEP),
        pamo: Pamo::new(spec.config.clone()),
        decide_rng: seeded(sub_seed(seed, 1)),
        drift_rng: seeded(sub_seed(seed, 2)),
    };
    // Epoch 0: the cold decide every deployment pays before serving.
    let scenario = state.drifting.snapshot();
    let pref = TruePreference::uniform(&scenario);
    let d = state.pamo.decide_surviving_recorded(
        &scenario,
        &pref,
        None,
        &mut state.decide_rng,
        &eva_obs::NoopRecorder,
    );
    verify("set-up decide", &scenario, &pref, &d, run);
    state.drifting.advance(&mut state.drift_rng);
    state
}

fn run(plan: &Plan, spec: &Spec) -> Run {
    let (seed, tracer) = (plan.seed, plan.tracer);
    let mut run = Run {
        sizes: format!(
            "{} cameras x {} servers, {} timed decides, BO {} init + {}x{} (delta {})",
            spec.cameras,
            spec.servers,
            spec.ops,
            spec.config.bo.n_init,
            spec.config.bo.max_iters,
            spec.config.bo.batch,
            spec.config.bo.delta
        ),
        primary: "decide",
        ..Run::default()
    };
    let mut state = run.set_up(plan.setup_reps, |run| set_up(seed, spec, run));

    let rec = recorder(tracer);
    let mut above_floor = Vec::with_capacity(spec.ops);
    let cpu = run.start_loop();
    for epoch in 1..=spec.ops {
        if spec.reset_every.is_some_and(|k| epoch % k == 0) {
            state.pamo.reset_warm_start();
        }
        let scenario = state.drifting.snapshot();
        let pref = TruePreference::uniform(&scenario);
        let d = run.op(tracer, "decide", || {
            state
                .pamo
                .decide_surviving_recorded(&scenario, &pref, None, &mut state.decide_rng, rec)
        });
        if let Ok(d) = &d {
            above_floor.push(d.true_benefit - pref.min_reference());
        }
        verify(&format!("epoch {epoch}"), &scenario, &pref, &d, &mut run);
        state.drifting.advance(&mut state.drift_rng);
    }
    run.end_loop(cpu);
    run.figures
        .push(("core.benefit_above_floor", crate::stats::mean(&above_floor)));
    run
}

/// Check one decision and fold it into the digest.
fn verify(
    op: &str,
    scenario: &Scenario,
    pref: &TruePreference,
    d: &Result<PamoDecision, pamo_core::CoreError>,
    run: &mut Run,
) {
    let d = match d {
        Ok(d) => d,
        Err(e) => return run.fail(format!("{op}: decide failed: {e}")),
    };
    run.digest.f64(d.true_benefit);
    run.digest.u64(d.bo.observations.len() as u64);
    for c in &d.configs {
        run.digest.f64(c.resolution);
        run.digest.f64(c.fps);
    }
    let placed = scenario
        .schedule(&d.configs)
        .map_err(|e| format!("no placement: {e:?}"))
        .and_then(|a| check::placement(&a, scenario.n_videos(), scenario.n_servers()));
    let result = check::benefit(d.true_benefit, pref.min_reference()).and(placed);
    run.check(op, result);
}
