//! The uplink DES workload: one zero-jitter placement simulated over
//! each of the three uplink paths the simulator selects between. One op
//! is one pass over all three paths with that pass's seeded uplinks.

use eva_bond::{BondPolicy, BondedLink, LinkBundle};
use eva_fault::{FaultPlan, RetryPolicy};
use eva_net::LinkModel;
use eva_sched::{Assignment, TICKS_PER_SEC};
use eva_sim::{
    simulate_scenario_faulted_recorded, simulate_scenario_with_deadline_recorded, PhasePolicy,
    ScenarioSimReport,
};
use eva_stats::rng::seeded;
use eva_workload::{Scenario, VideoConfig};

use crate::check;
use crate::harness::{recorder, sub_seed, timed, Plan, Run, FLEET_SEED};
use crate::trace::Tracer;

const CAMERAS: usize = 200;
const SERVERS: usize = 50;
/// Simulated horizon of every DES run.
const HORIZON_S: f64 = 1800.0;
/// Per-frame end-to-end deadline (bounds retries on the faulted path).
const DEADLINE_S: f64 = 0.5;

/// The fixed placement every pass simulates.
struct Placement {
    base: Scenario,
    configs: Vec<VideoConfig>,
    assignment: Assignment,
}

/// The three scenarios of one pass: Markov links, 3-link bonded
/// bundles, and crash/loss/retry faults.
struct Pass {
    markov: Scenario,
    bonded: Scenario,
    faulted: Scenario,
}

fn placement() -> Result<Placement, String> {
    let base = Scenario::standard(CAMERAS, SERVERS, &mut seeded(FLEET_SEED));
    let space = base.config_space();
    let mid = space.resolutions()[space.resolutions().len() / 2];
    let fps = space.frame_rates()[0];
    let configs = vec![VideoConfig::new(mid, fps); CAMERAS];
    let assignment = base
        .schedule(&configs)
        .map_err(|e| format!("no placement: {e:?}"))?;
    check::placement(&assignment, CAMERAS, SERVERS)?;
    Ok(Placement {
        base,
        configs,
        assignment,
    })
}

fn pass_inputs(p: &Placement, seed: u64, pass: u64) -> Pass {
    let s = sub_seed(seed, 10 + pass);
    let markov = (0..CAMERAS as u64)
        .map(|c| LinkModel::gilbert_elliott(20e6, 6e6, 3.0, 1.0, s.wrapping_add(c)))
        .collect();
    let bundles = (0..CAMERAS as u64)
        .map(|c| {
            LinkBundle::new(vec![
                BondedLink::new(
                    LinkModel::gilbert_elliott(12e6, 4e6, 3.0, 1.0, s.wrapping_add(c)),
                    0.030,
                ),
                BondedLink::new(
                    LinkModel::gilbert_elliott(8e6, 3e6, 3.0, 1.0, s.wrapping_add(c + 100_000)),
                    0.080,
                ),
                BondedLink::new(LinkModel::constant(5e6), 0.200),
            ])
        })
        .collect();
    let faults = FaultPlan::none(SERVERS, CAMERAS)
        .with_server_crashes(300.0, 20.0, s)
        .with_frame_loss(0.02, s.wrapping_add(1))
        .with_retry(RetryPolicy::standard());
    Pass {
        markov: p.base.clone().with_link_models(markov),
        bonded: p
            .base
            .clone()
            .with_link_bundles(bundles, BondPolicy::EarliestDelivery),
        faulted: p.base.clone().with_fault_plan(faults),
    }
}

/// The reports of one pass and the wall seconds of each path.
struct PassOut {
    reports: [ScenarioSimReport; 3],
    secs: [f64; 3],
}

/// Simulate one pass over the Markov, bonded and faulted paths.
fn simulate(p: &Placement, pass: &Pass, tracer: Option<&Tracer>) -> PassOut {
    let rec = recorder(tracer);
    let sim = |sc: &Scenario| {
        simulate_scenario_with_deadline_recorded(
            sc,
            &p.configs,
            &p.assignment,
            PhasePolicy::ZeroJitter,
            HORIZON_S,
            DEADLINE_S,
            rec,
        )
    };
    let (markov, t_markov) = timed(tracer, "des.markov", || sim(&pass.markov));
    let (bonded, t_bonded) = timed(tracer, "des.bonded", || sim(&pass.bonded));
    let (faulted, t_faulted) = timed(tracer, "des.faulted", || {
        simulate_scenario_faulted_recorded(
            &pass.faulted,
            &p.configs,
            &p.assignment,
            PhasePolicy::ZeroJitter,
            HORIZON_S,
            DEADLINE_S,
            rec,
        )
    });
    PassOut {
        reports: [markov, bonded, faulted],
        secs: [t_markov, t_bonded, t_faulted],
    }
}

/// Check one pass, fold it into the digest, and return the frames it
/// generated.
fn verify(label: &str, out: &PassOut, run: &mut Run) -> u64 {
    let [markov, bonded, faulted] = &out.reports;
    for r in &out.reports {
        for s in &r.report.streams {
            run.digest.u64(s.frames);
            run.digest.u64(s.dropped);
            run.digest.u64(s.deadline_misses);
            run.digest.f64(s.latency.mean());
        }
    }
    let result = check::frames_conserved(&[&markov.report, &bonded.report], &faulted.report);
    run.check(label, result);
    out.reports
        .iter()
        .flat_map(|r| &r.report.streams)
        .map(|s| s.frames + s.dropped)
        .sum()
}

/// Simulate `passes` passes after a warm-up pass.
pub fn run(plan: &Plan) -> Run {
    let (seed, passes, tracer) = (plan.seed, plan.ops, plan.tracer);
    let mut run = Run {
        sizes: format!(
            "{CAMERAS} cameras x {SERVERS} servers, {HORIZON_S} s horizon, \
             {passes} passes over markov / 3-link bonded / faulted uplinks"
        ),
        primary: "pass",
        ..Run::default()
    };
    let placement = run.set_up(plan.setup_reps, |run| {
        let p = placement()?;
        let warm_up = simulate(&p, &pass_inputs(&p, seed, 0), None);
        verify("warm-up pass", &warm_up, run);
        Ok::<_, String>(p)
    });
    let placement = match placement {
        Ok(p) => p,
        Err(e) => {
            run.fail(format!("set-up: {e}"));
            return run;
        }
    };

    let mut des_s = [0.0f64; 3];
    let mut frames = 0u64;
    let mut trace_s = 0.0;
    let cpu = run.start_loop();
    for pass in 1..=passes as u64 {
        let inputs = pass_inputs(&placement, seed, pass);
        let out = run.op(tracer, "pass", || simulate(&placement, &inputs, tracer));
        frames += verify(&format!("pass {pass}"), &out, &mut run);
        for (total, secs) in des_s.iter_mut().zip(out.secs) {
            *total += secs;
        }
        if tracer.is_some() {
            // Materialize the Markov uplinks the pass just simulated,
            // timed on its own, outside the op.
            let horizon = (HORIZON_S * TICKS_PER_SEC as f64) as u64;
            let models = inputs.markov.link_models().unwrap_or(&[]);
            let (_, secs) = timed(tracer, "net.trace", || {
                models.iter().map(|m| m.trace(horizon)).collect::<Vec<_>>()
            });
            trace_s += secs;
        }
    }
    run.end_loop(cpu);
    let n = passes.max(1) as f64;
    run.figures.extend([
        ("sim.des_markov_s", des_s[0] / n),
        ("sim.des_bonded_s", des_s[1] / n),
        ("sim.des_faulted_s", des_s[2] / n),
        ("net.trace_s", trace_s / n),
        (
            "sim.frames_per_s",
            frames as f64 / des_s.iter().sum::<f64>().max(1e-12),
        ),
    ]);
    run
}
