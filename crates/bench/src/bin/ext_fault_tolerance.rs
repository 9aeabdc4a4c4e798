//! Extension experiment: what does failure awareness buy?
//!
//! PaMO's evaluation assumes an always-up cluster. Here servers crash
//! and recover as a two-state Markov process (exponential dwells with
//! mean MTTF / MTTR), cameras lose 2% of frames on the uplink (bounded
//! retry with exponential backoff recovers most of them), and we sweep
//! the crash regime from gentle to hostile. Three policies share the
//! same scheduler and the same realized-benefit accounting:
//!
//! * **oracle** — no faults at all: the ceiling any policy can reach,
//! * **oblivious** — faults happen, but the controller keeps planning
//!   on the full server list; placements that land on dead machines
//!   deliver nothing,
//! * **aware** — heartbeat-timeout failure detection at each epoch
//!   boundary, Algorithm-1 re-run on the survivors, uniform
//!   config fallback when the survivors cannot host a zero-jitter
//!   placement, automatic restore on recovery.
//!
//! The acceptance bar: gap-weighted over the sweep, the aware policy
//! must recover at least **half** the benefit gap the oblivious policy
//! loses to the oracle. A DES cross-check transmits and processes every
//! frame under the same fault traces and reports the per-frame deadline
//! miss rate (crashes pause in-flight frames rather than drop them).
//!
//! ```text
//! cargo run --release -p eva-bench --bin ext_fault_tolerance [--quick]
//! ```

use eva_bench::Table;
use eva_fault::{FaultPlan, RetryPolicy};
use eva_obs::NoopRecorder;
use eva_sim::{simulate_scenario_faulted_recorded, PhasePolicy};
use eva_stats::rng::seeded;
use eva_workload::{DriftingScenario, Scenario, VideoConfig};
use pamo_core::{run_online_faulted, FaultedRunConfig, PamoConfig, PreferenceSource};

const N_CAMS: usize = 6;
const N_SERVERS: usize = 3;
/// Residual uplink frame-loss probability per transmission.
const LOSS_P: f64 = 0.02;
/// Scheduling epoch (s). Shorter than every MTTR in the sweep, so a
/// crash that persists is caught at the next boundary — detection can
/// only help with outages it gets a chance to observe.
const EPOCH_S: f64 = 5.0;
/// Heartbeat timeout (s) — the detection lag.
const HEARTBEAT_S: f64 = 1.0;
/// DES cross-check horizon (simulated seconds).
const DES_HORIZON_S: f64 = 60.0;
/// DES cross-check per-frame e2e deadline (s): crashes pause in-flight
/// frames, so the damage shows up as deadline misses, not drops.
const DES_DEADLINE_S: f64 = 0.5;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n_epochs = if quick { 16 } else { 32 };
    let mut cfg = PamoConfig {
        preference: PreferenceSource::Oracle, // isolate fault handling
        ..Default::default()
    };
    cfg.bo.max_iters = if quick { 3 } else { 5 };
    cfg.pool_size = if quick { 20 } else { 30 };
    cfg.profiling_per_camera = if quick { 20 } else { 25 };

    let run_cfg = FaultedRunConfig {
        epoch_s: EPOCH_S,
        heartbeat_s: HEARTBEAT_S,
        fault_aware: true,
    };
    // Accuracy-weighted operator (order: latency, accuracy, network,
    // computation, energy). Under uniform weights a crashed server is
    // almost free — the accuracy it stops delivering is offset by the
    // compute/energy it stops burning. An analytics operator values the
    // inference output above the electricity it saves.
    let weights = [1.0, 3.0, 1.0, 1.0, 1.0];
    let base = Scenario::uniform(N_CAMS, N_SERVERS, 20e6, 99);

    // The no-fault ceiling (plan-independent: compute once).
    let oracle = {
        let mut d = DriftingScenario::new(&base, 0.05);
        run_online_faulted(
            &mut d,
            &cfg,
            weights,
            n_epochs,
            None,
            &run_cfg,
            &mut seeded(17),
            &NoopRecorder,
        )
        .expect("valid inputs")
        .mean_online_benefit()
    };

    // (label, MTTF s, MTTR s): availability sweeps 0.80 -> 0.33. Repairs
    // are long relative to the epoch (MTTR >= 6 epochs) — the regime
    // where a failure detector can act on what it sees; sub-epoch
    // outages are invisible to *any* epoch-boundary controller.
    let sweep: [(&str, f64, f64); 3] = [
        ("gentle", 120.0, 45.0),
        ("moderate", 60.0, 45.0),
        ("hostile", 30.0, 90.0),
    ];

    let mut table = Table::new(vec![
        "regime",
        "server_avail",
        "oracle_U",
        "oblivious_U",
        "aware_U",
        "dead_epochs",
        "gap_recovered",
        "des_miss_rate",
    ]);
    let mut results = Vec::new();
    let mut total_gap = 0.0;
    let mut total_recovered = 0.0;

    for (label, mttf, mttr) in sweep {
        let plan = FaultPlan::none(N_SERVERS, N_CAMS)
            .with_server_crashes(mttf, mttr, 42)
            .with_frame_loss(LOSS_P, 7)
            .with_retry(RetryPolicy::standard());
        let availability = mttf / (mttf + mttr);

        let run = |aware: bool| {
            let mut d = DriftingScenario::new(&base, 0.05);
            run_online_faulted(
                &mut d,
                &cfg,
                weights,
                n_epochs,
                Some(&plan),
                &FaultedRunConfig {
                    fault_aware: aware,
                    ..run_cfg
                },
                &mut seeded(17),
                &NoopRecorder,
            )
            .expect("valid inputs")
        };
        let oblivious_run = run(false);
        let aware_run = run(true);
        let dead_epochs = aware_run
            .epochs
            .iter()
            .filter(|e| e.alive.iter().any(|&a| !a))
            .count();
        let oblivious = oblivious_run.mean_online_benefit();
        let aware = aware_run.mean_online_benefit();
        let gap = oracle - oblivious;
        let recovered = if gap > 1e-9 {
            (aware - oblivious) / gap
        } else {
            1.0 // nothing was lost: full recovery by definition
        };
        total_gap += gap.max(0.0);
        total_recovered += (aware - oblivious).max(0.0);

        // DES cross-check: a fixed mid-grid uniform decision transmitted
        // under the same fault traces — crashes pause in-flight frames,
        // so the damage registers as per-frame deadline misses.
        let miss_rate = des_miss_rate(&base, &plan);

        table.row(vec![
            label.to_string(),
            format!("{availability:.2}"),
            format!("{oracle:.4}"),
            format!("{oblivious:.4}"),
            format!("{aware:.4}"),
            format!("{dead_epochs}/{n_epochs}"),
            format!("{:.0}%", recovered * 100.0),
            format!("{:.1}%", miss_rate * 100.0),
        ]);
        results.push(serde_json::json!({
            "regime": label,
            "mttf_s": mttf,
            "mttr_s": mttr,
            "server_availability": availability,
            "oracle_benefit": oracle,
            "oblivious_benefit": oblivious,
            "aware_benefit": aware,
            "dead_epochs": dead_epochs,
            "gap_recovered": recovered,
            "des_deadline_miss_rate": miss_rate,
        }));
    }

    // Gap-weighted aggregate: what fraction of the total benefit the
    // oblivious policy loses does awareness win back? (A per-regime mean
    // would let a negligible gap with 0% recovery mask a large one.)
    let mean_recovery = if total_gap > 1e-9 {
        total_recovered / total_gap
    } else {
        1.0
    };
    println!("== Extension: fault tolerance — failure-aware vs fault-oblivious PaMO ==");
    println!(
        "cluster: {N_CAMS} cameras / {N_SERVERS} servers; frame loss {:.0}% with bounded \
         retry; heartbeat {:.1} s; epoch {:.0} s",
        LOSS_P * 100.0,
        run_cfg.heartbeat_s,
        run_cfg.epoch_s
    );
    println!("{table}");
    println!(
        "mean gap recovered: {:.0}% (acceptance bar: >= 50%) — {}",
        mean_recovery * 100.0,
        if mean_recovery >= 0.5 { "PASS" } else { "FAIL" }
    );
    println!(
        "Reading: the oblivious controller keeps assigning streams to dead\n\
         servers, so its realized benefit collapses with availability. The\n\
         aware controller detects the outage at the next heartbeat, re-runs\n\
         Algorithm 1 on the survivors (falling back to cheaper uniform\n\
         configs when the survivors cannot host the full placement)\n\
         and restores as soon as servers rejoin — recovering most of the\n\
         gap without touching the no-fault code path."
    );

    std::fs::create_dir_all("results").ok();
    std::fs::write(
        "results/ext_fault_tolerance.json",
        serde_json::to_string_pretty(&serde_json::json!({
            "mean_gap_recovered": mean_recovery,
            "sweep": results,
        }))
        .unwrap(),
    )
    .expect("write results/ext_fault_tolerance.json");
    println!("(wrote results/ext_fault_tolerance.json)");
}

/// Per-frame deadline-miss rate of a fixed mid-grid uniform decision
/// when the DES transmits and processes under `plan`'s materialized
/// traces (the same decision misses ~nothing fault-free).
fn des_miss_rate(base: &Scenario, plan: &FaultPlan) -> f64 {
    let space = base.config_space();
    let mid = space.resolutions()[space.resolutions().len() / 2];
    let fps = space.frame_rates()[0];
    let configs = vec![VideoConfig::new(mid, fps); base.n_videos()];
    let Ok(assignment) = base.schedule(&configs) else {
        return f64::NAN; // mid-grid uniform config should always fit
    };
    let faulted_sc = base.clone().with_fault_plan(plan.clone());
    let r = simulate_scenario_faulted_recorded(
        &faulted_sc,
        &configs,
        &assignment,
        PhasePolicy::ZeroJitter,
        DES_HORIZON_S,
        DES_DEADLINE_S,
        &NoopRecorder,
    );
    let (misses, frames) = r.report.streams.iter().fold((0u64, 0u64), |(m, f), s| {
        (m + s.deadline_misses, f + s.frames)
    });
    misses as f64 / frames.max(1) as f64
}
