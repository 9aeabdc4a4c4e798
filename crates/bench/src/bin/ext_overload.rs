//! Extension experiment: the control plane under composed overload.
//!
//! `fig7_scale` shows a fleet-scale decision epoch costs ~1.4 s of CPU
//! at M = 2000 — the scheduler's own thinking time is no longer free.
//! This experiment composes every fault axis `eva-fault` owns into one
//! seeded [`ChaosSpec`] — a churn storm (MMPP arrival bursts), server
//! crash bursts, uplink collapse windows, and control-plane straggler
//! windows that *shrink the decision budget* — and drives the budgeted
//! overload session against the unbudgeted baseline on identical
//! traces:
//!
//! * **budgeted** — every decision window gets a
//!   [`DecisionBudget`](eva_obs::DecisionBudget) of work units (divided
//!   by the active straggler factor) and degrades through the
//!   escalation ladder (full pipeline → repair re-placement → stale
//!   plan) instead of overrunning; arrivals above the high-water mark
//!   skip probes and coalesce into batched repairs, and over-age
//!   waiters are shed,
//! * **unbudgeted** — the blind baseline: the same chaos, the same
//!   deadline accounting, but the controller always runs the full
//!   pipeline no matter how long the modeled decision takes.
//!
//! The policy ties the deadline to the budget (`deadline_s =
//! window_units × unit_time_s`), so the budgeted arm hits its deadline
//! *by construction* in every enforced window while the unbudgeted arm
//! blows through it whenever a straggler stretches the full pipeline.
//! Metrics: benefit retention (budgeted vs unbudgeted value integral),
//! deadline-hit rate, ladder-rung mix, shed/coalesced counts, and
//! control-plane MTTR (mean time from a degradation marker to the next
//! recovery). A crash+restore probe snapshots a session mid-run
//! through JSON and checks the finished run is bit-identical to the
//! uninterrupted one (the exhaustive any-step property lives in
//! `pamo-core`'s test suite).
//!
//! Gates: the budgeted arm must report **0 budget overruns**, retain
//! **≥ 90 %** of the unbudgeted arm's realized benefit, and the
//! restore probe must be bit-identical.
//!
//! ```text
//! cargo run --release -p eva-bench --bin ext_overload [--quick|--smoke]
//! ```
//!
//! `--smoke` runs a seconds-scale scenario and writes
//! `results/ext_overload_smoke.json`; CI runs it twice and diffs the
//! bytes to pin determinism of the composed chaos/budget path.

use eva_bench::Table;
use eva_bo::{AcqKind, BoConfig};
use eva_fault::{ChaosSpec, ChurnStorm, ControlStragglers, CrashBursts, LinkCollapse};
use eva_obs::{BudgetPolicy, NoopRecorder};
use eva_serve::{AdmissionConfig, ArrivalModel};
use eva_stats::rng::seeded;
use eva_workload::Scenario;
use pamo_core::{
    ControlPlaneSnapshot, OverloadConfig, PamoConfig, PreferenceSource, ServingConfig, ServingRun,
    ServingSession,
};

/// Accuracy-weighted operator, as in the churn/fault extensions.
const WEIGHTS: [f64; 5] = [1.0, 3.0, 1.0, 1.0, 1.0];
const DRIFT_STEP: f64 = 0.05;
const EPOCH_S: f64 = 20.0;

/// The lean fleet-scale decision budget of `fig7_scale`.
fn scale_config() -> PamoConfig {
    PamoConfig {
        bo: BoConfig {
            n_init: 4,
            batch: 2,
            mc_samples: 16,
            max_iters: 3,
            delta: 0.02,
            kind: AcqKind::QNei,
        },
        pool_size: 12,
        profiling_per_camera: 20,
        profile_noise: 0.02,
        n_comparisons: 0,
        elicit_candidates: 0,
        preference: PreferenceSource::Oracle,
    }
}

/// Every chaos axis at once: arrival bursts, crash bursts, uplink
/// collapse, and control stragglers that shrink the decision budget 3×.
fn composed_chaos(seed: u64) -> ChaosSpec {
    ChaosSpec {
        seed,
        churn_storm: Some(ChurnStorm {
            calm_rate_hz: 0.02,
            storm_rate_hz: 0.3,
            mean_dwell_s: [30.0, 20.0],
            mean_hold_s: 40.0,
        }),
        crash_bursts: Some(CrashBursts {
            mttf_s: 60.0,
            mttr_s: 15.0,
        }),
        link_collapse: Some(LinkCollapse {
            factor: 0.6,
            mean_normal_s: 50.0,
            mean_collapsed_s: 15.0,
        }),
        stragglers: Some(ControlStragglers {
            factor: 3.0,
            mean_normal_s: 30.0,
            mean_slow_s: 25.0,
        }),
    }
}

/// Budget policy scaled to the fleet: the mandatory outcome-model refit
/// costs `2·M` units, the full-pipeline floor sits above refit + BO,
/// and the window affords a comfortable full decision at normal speed —
/// but not through a 3× straggler, where the ladder drops to repair.
/// The deadline equals the whole window's modeled time, so an enforced
/// budget hits it by construction; only the unbudgeted arm can miss.
fn budget_policy(m: usize) -> BudgetPolicy {
    let fit_lump = 2 * m as u64;
    let full_floor = fit_lump + 200;
    let window_units = full_floor + full_floor / 2;
    let unit_time_s = 2.0 / fit_lump as f64;
    BudgetPolicy {
        window_units,
        full_floor,
        repair_floor: 100,
        unit_time_s,
        deadline_s: window_units as f64 * unit_time_s,
    }
}

/// Compose the chaos spec's churn storm into the serving config: the
/// serving layer keeps owning arrival generation, seeded from the
/// chaos sub-seed so both arms replay the identical trace.
fn serving_config(chaos: &ChaosSpec, n_epochs: usize) -> ServingConfig {
    let storm = chaos.churn_storm.expect("composed chaos has a storm");
    ServingConfig {
        epoch_s: EPOCH_S,
        n_epochs,
        event_driven: true,
        arrivals: ArrivalModel::Mmpp {
            rate_hz: [storm.calm_rate_hz, storm.storm_rate_hz],
            mean_dwell_s: storm.mean_dwell_s,
        },
        mean_hold_s: storm.mean_hold_s,
        churn_seed: chaos.churn_seed(),
        admission: AdmissionConfig {
            max_queue_age_s: 30.0,
            high_water: 4,
            ..AdmissionConfig::default()
        },
        ..ServingConfig::default()
    }
}

/// Control-plane MTTR: mean time from a degradation marker (a
/// `degraded`/`deferred` event or a degraded epoch decision) to the
/// next recovery marker (a `replanned` event or a clean epoch).
fn control_mttr(run: &ServingRun, epoch_s: f64) -> Option<f64> {
    let mut marks: Vec<(f64, bool)> = Vec::new();
    for e in &run.events {
        match e.outcome {
            "degraded" | "deferred" => marks.push((e.time_s, false)),
            "replanned" => marks.push((e.time_s, true)),
            _ => {}
        }
    }
    for ep in &run.epochs {
        marks.push((ep.epoch as f64 * epoch_s, !ep.degraded));
    }
    marks.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut outages: Vec<f64> = Vec::new();
    let mut start: Option<f64> = None;
    for (t, recovered) in marks {
        match (recovered, start) {
            (false, None) => start = Some(t),
            (true, Some(s)) => {
                outages.push(t - s);
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        outages.push(run.horizon_s - s);
    }
    if outages.is_empty() {
        None
    } else {
        Some(outages.iter().sum::<f64>() / outages.len() as f64)
    }
}

/// Crash a small budgeted session halfway, round-trip the snapshot
/// through JSON, and check the restored run finishes bit-identical.
fn restore_probe() -> bool {
    let sc = Scenario::standard(8, 3, &mut seeded(990));
    let chaos = composed_chaos(23);
    let serving = serving_config(&chaos, 2);
    let overload = OverloadConfig::budgeted(chaos, budget_policy(8));
    let cfg = scale_config();
    let reference = {
        let mut s = ServingSession::new(&sc, DRIFT_STEP, &cfg, WEIGHTS, &serving, &overload, 6);
        s.run(&NoopRecorder)
    };
    let mut crashed = ServingSession::new(&sc, DRIFT_STEP, &cfg, WEIGHTS, &serving, &overload, 6);
    let mut steps = 0;
    while steps < 3 && crashed.step(&NoopRecorder) {
        steps += 1;
    }
    let text = crashed.snapshot().to_json();
    drop(crashed);
    let Ok(snap) = ControlPlaneSnapshot::from_json(&text) else {
        return false;
    };
    let Ok(mut restored) =
        ServingSession::restore(&sc, DRIFT_STEP, &cfg, WEIGHTS, &serving, &overload, snap)
    else {
        return false;
    };
    let run = restored.run(&NoopRecorder);
    run.value_integral.to_bits() == reference.value_integral.to_bits()
        && run.events.len() == reference.events.len()
        && run
            .events
            .iter()
            .zip(&reference.events)
            .all(|(a, b)| a == b)
        && run.epochs.len() == reference.epochs.len()
        && run.accepted == reference.accepted
        && run.rejected == reference.rejected
        && run.budget_spent == reference.budget_spent
        && run.rung_counts == reference.rung_counts
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (m, n, n_epochs, label) = if smoke {
        (8usize, 3usize, 2usize, "smoke")
    } else if quick {
        (100, 10, 3, "quick")
    } else {
        (500, 50, 4, "full")
    };

    let sc = Scenario::standard(m, n, &mut seeded(4200 + m as u64));
    let chaos = composed_chaos(11);
    let serving = serving_config(&chaos, n_epochs);
    let policy = budget_policy(m);
    let cfg = scale_config();

    let mut table = Table::new(vec![
        "arm",
        "U/server",
        "retention",
        "overruns",
        "deadline_hit",
        "rungs(F/R/S)",
        "shed",
        "coalesced",
        "mttr",
        "accepted",
    ]);
    let mut runs: Vec<(&str, ServingRun)> = Vec::new();
    for enforce in [true, false] {
        let overload = if enforce {
            OverloadConfig::budgeted(chaos, policy)
        } else {
            OverloadConfig::unbudgeted(chaos, policy)
        };
        let run = ServingSession::new(&sc, DRIFT_STEP, &cfg, WEIGHTS, &serving, &overload, 17)
            .run(&NoopRecorder);
        runs.push((if enforce { "budgeted" } else { "unbudgeted" }, run));
    }
    let unbudgeted_value = runs[1].1.value_integral;
    let retention = if unbudgeted_value.abs() > 1e-12 {
        runs[0].1.value_integral / unbudgeted_value
    } else {
        1.0
    };

    let mut results = Vec::new();
    for (arm, run) in &runs {
        let mttr = control_mttr(run, serving.epoch_s);
        table.row(vec![
            arm.to_string(),
            format!("{:.3}", run.benefit_per_server()),
            if *arm == "budgeted" {
                format!("{:.1}%", retention * 100.0)
            } else {
                "—".to_string()
            },
            format!("{}", run.budget_overruns),
            format!("{:.0}%", run.deadline_hit_rate() * 100.0),
            format!(
                "{}/{}/{}",
                run.rung_counts[0], run.rung_counts[1], run.rung_counts[2]
            ),
            format!("{}", run.shed),
            format!("{}", run.replan_coalesced),
            mttr.map_or("—".to_string(), |s| format!("{s:.1}s")),
            format!("{}", run.accepted),
        ]);
        results.push(serde_json::json!({
            "arm": arm,
            "benefit_per_server": run.benefit_per_server(),
            "value_integral": run.value_integral,
            "budget_spent": run.budget_spent,
            "budget_overruns": run.budget_overruns,
            "deadline_hits": run.deadline_hits,
            "deadline_misses": run.deadline_misses,
            "deadline_hit_rate": run.deadline_hit_rate(),
            "rung_counts": run.rung_counts.to_vec(),
            "shed": run.shed,
            "replan_coalesced": run.replan_coalesced,
            "replan_incremental": run.replan_incremental,
            "replan_full": run.replan_full,
            "accepted": run.accepted,
            "rejected": run.rejected,
            "queued_peak": run.queued_peak,
            "mttr_s": mttr,
            "degraded": run.degraded,
        }));
    }

    let restore_ok = restore_probe();

    let mut gate_failures: Vec<String> = Vec::new();
    let budgeted = &runs[0].1;
    let unbudgeted = &runs[1].1;
    if budgeted.budget_overruns != 0 {
        gate_failures.push(format!(
            "budgeted control plane overran its decision budget {} times",
            budgeted.budget_overruns
        ));
    }
    if !smoke && retention < 0.90 {
        gate_failures.push(format!(
            "budgeted arm retained only {:.1}% of the unbudgeted benefit (floor 90%)",
            retention * 100.0
        ));
    }
    if !restore_ok {
        gate_failures.push("crash+restore probe was not bit-identical".to_string());
    }
    // The budgeted arm's enforced windows meet the deadline by
    // construction; only the unlimited bootstrap window may miss.
    if budgeted.deadline_misses > 1 {
        gate_failures.push(format!(
            "budgeted arm missed {} deadlines (at most the bootstrap window may)",
            budgeted.deadline_misses
        ));
    }

    println!("== Extension: overload-resilient control plane ({label}) ==");
    println!(
        "fleet: {m} cameras / {n} servers; {n_epochs} epochs of {EPOCH_S:.0} s; \
         chaos: MMPP storm × crashes (MTTF 60 s) × link collapse (0.6×) × \
         3× control stragglers; budget {} units/window, deadline {:.1} s",
        policy.window_units, policy.deadline_s
    );
    println!("{table}");
    println!(
        "restore probe: {}",
        if restore_ok {
            "bit-identical"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "acceptance: {}",
        if gate_failures.is_empty() {
            "PASS"
        } else {
            "FAIL"
        }
    );
    println!(
        "Reading: under composed chaos the unbudgeted controller keeps\n\
         running the full pipeline through straggler windows — its\n\
         modeled decision time blows the deadline whenever control is\n\
         slowed. The budgeted arm charges every piece of control work\n\
         against the window's budget and degrades through the ladder\n\
         (full → repair → stale) instead of overrunning: deadlines hold\n\
         by construction, and re-placing the previous configurations\n\
         keeps nearly all of the realized benefit."
    );

    std::fs::create_dir_all("results").ok();
    let path = if smoke {
        "results/ext_overload_smoke.json"
    } else {
        "results/ext_overload.json"
    };
    std::fs::write(
        path,
        serde_json::to_string_pretty(&serde_json::json!({
            "mode": label,
            "m": m,
            "n": n,
            "retention": retention,
            "restore_bit_identical": restore_ok,
            "pass": gate_failures.is_empty(),
            "unbudgeted_deadline_hit_rate": unbudgeted.deadline_hit_rate(),
            "runs": results,
        }))
        .unwrap(),
    )
    .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("(wrote {path})");

    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("gate FAILED: {f}");
        }
        std::process::exit(1);
    }
}
