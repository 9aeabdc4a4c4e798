//! Perf-baseline work counts: runs a pinned suite of scheduler
//! workloads with telemetry on and writes the exact work each one did
//! to `BENCH_perf.json`.
//!
//! The suite pins the eight code paths the scheduler spends its time in:
//!
//! * `online_3x2_learned` — the full PaMO pipeline (profiling + GP fit,
//!   preference elicitation, qNEI search, Algorithm-1 placement) on a
//!   small cluster,
//! * `online_6x3_oracle` — the PaMO+ oracle variant at double scale,
//!   isolating outcome-fit + BO cost from elicitation,
//! * `faulted_3x2` — the failure-aware loop under heavy crashes
//!   (detection, survivor re-planning),
//! * `des_deadline` — the discrete-event simulator on a zero-jitter
//!   schedule over dedicated per-stream uplinks, with deadline
//!   accounting,
//! * `serve_churn` — the continuous-serving loop under a Poisson
//!   arrival storm with server crashes (admission probes, incremental
//!   replans), tracking replan reaction latency,
//! * `serve_chaos` — the budgeted overload session under a composed
//!   `ChaosSpec` (churn storm × crashes × link collapse × control
//!   stragglers) with an enforced decision budget, a tight retry
//!   queue and age shedding — pins the budgeted-decide, coalesced
//!   replan and shed phases,
//! * `scale_m2000` — one oracle decision epoch at fleet scale (2000
//!   cameras × 200 servers), pinning the one-pass grouping,
//!   rank-pairing assignment and batched posterior paths,
//! * `bonded` — the DES with every camera on a heterogeneous three-link
//!   bonded uplink under HoL-aware striping, pinning the packet-level
//!   `bond_stripe` seeding path.
//!
//! ```text
//! cargo run --release -p eva-bench --bin perf_baseline
//! ```
//!
//! Each workload runs under its own [`eva_obs::FlightRecorder`]. Its
//! entry in the file (schema `eva-obs/perf-baseline/v2`) keeps only
//! what neither a clock nor the recording order can move: the
//! description, the span count of each phase, every counter, each named
//! histogram's `count` / `min` / `max`, and `events_recorded`. A seeded
//! rerun therefore writes the same bytes, and CI diffs the file against
//! the committed one: a change in algorithmic work shows up as a diff.
//! Timing lives in perfbench alone. The binary exits non-zero, writing
//! nothing, when the suite misses one of the pipeline phases in
//! `REQUIRED_PHASES`.

use eva_bo::{AcqKind, BoConfig};
use eva_fault::{
    ChaosSpec, ChurnStorm, ControlStragglers, CrashBursts, FaultPlan, LinkCollapse, RetryPolicy,
};
use eva_obs::{BudgetPolicy, FlightRecorder, ObsSnapshot};
use eva_serve::{AdmissionConfig, ArrivalModel};
use eva_sim::{simulate_scenario_with_deadline_recorded, PhasePolicy};
use eva_stats::rng::seeded;
use eva_workload::{Scenario, VideoConfig};
use pamo_core::{
    run_online, run_serving, FaultedRunConfig, OverloadConfig, PamoConfig, PreferenceSource,
    ServingConfig, ServingSession,
};
use serde_json::Value;

/// Where the suite writes its work counts.
const OUT_PATH: &str = "BENCH_perf.json";
/// Schema tag of the emitted file; bump on breaking layout changes.
const SCHEMA: &str = "eva-obs/perf-baseline/v2";
/// The suite, in file order.
const SUITE: [&str; 8] = [
    "online_3x2_learned",
    "online_6x3_oracle",
    "faulted_3x2",
    "des_deadline",
    "serve_churn",
    "serve_chaos",
    "scale_m2000",
    "bonded",
];
/// Phases the suite must exercise for the baseline to be trustworthy.
const REQUIRED_PHASES: [&str; 15] = [
    "outcome_fit",
    "pref_model",
    "bo_search",
    "bo_prepare",
    "bo_posterior",
    "bo_assemble",
    "bo_acquisition",
    "bank_update",
    "grouping",
    "assignment",
    "des",
    "admission",
    "replan",
    "shed",
    "bond_stripe",
];

fn pamo_config(preference: PreferenceSource) -> PamoConfig {
    PamoConfig {
        bo: BoConfig {
            n_init: 4,
            batch: 2,
            mc_samples: 16,
            max_iters: 5,
            delta: 0.02,
            kind: AcqKind::QNei,
        },
        pool_size: 30,
        profiling_per_camera: 25,
        profile_noise: 0.02,
        n_comparisons: 6,
        elicit_candidates: 15,
        preference,
    }
}

/// One suite entry: run the workload under `rec`, return a one-line
/// description of what ran.
fn run_workload(name: &str, rec: &FlightRecorder) -> String {
    match name {
        "online_3x2_learned" => {
            let n_epochs = 4;
            let base = Scenario::uniform(3, 2, 20e6, 101);
            let cfg = pamo_config(PreferenceSource::Learned);
            let run = run_online(&base, 0.05, &cfg, [1.0; 5], n_epochs, None, 11, rec)
                .expect("valid inputs");
            format!(
                "3 cams x 2 servers, learned preference, {n_epochs} epochs, \
                 mean benefit {:.4}",
                run.mean_online_benefit()
            )
        }
        "online_6x3_oracle" => {
            let n_epochs = 3;
            let base = Scenario::uniform(6, 3, 20e6, 102);
            let cfg = pamo_config(PreferenceSource::Oracle);
            let run = run_online(&base, 0.05, &cfg, [1.0; 5], n_epochs, None, 12, rec)
                .expect("valid inputs");
            format!(
                "6 cams x 3 servers, oracle preference, {n_epochs} epochs, \
                 mean benefit {:.4}",
                run.mean_online_benefit()
            )
        }
        "faulted_3x2" => {
            let n_epochs = 6;
            let base = Scenario::uniform(3, 2, 20e6, 103);
            let plan = FaultPlan::none(2, 3)
                .with_server_crashes(20.0, 40.0, 11)
                .with_frame_loss(0.02, 7)
                .with_retry(RetryPolicy::standard());
            let cfg = pamo_config(PreferenceSource::Oracle);
            let clock = FaultedRunConfig {
                epoch_s: 5.0,
                heartbeat_s: 1.0,
                fault_aware: true,
            };
            let run = run_online(
                &base,
                0.05,
                &cfg,
                [1.0, 3.0, 1.0, 1.0, 1.0],
                n_epochs,
                Some((&plan, &clock)),
                13,
                rec,
            )
            .expect("valid inputs");
            format!(
                "3 cams x 2 servers under crashes (MTTF 20 s / MTTR 40 s), \
                 {n_epochs} epochs, mean benefit {:.4}",
                run.mean_online_benefit()
            )
        }
        "des_deadline" => {
            let horizon_s = 60.0;
            let base = Scenario::uniform(4, 2, 20e6, 104);
            let space = base.config_space();
            let mid = space.resolutions()[space.resolutions().len() / 2];
            let fps = space.frame_rates()[0];
            let configs = vec![VideoConfig::new(mid, fps); base.n_videos()];
            let assignment = base.schedule(&configs).expect("mid-grid uniform fits");
            let r = simulate_scenario_with_deadline_recorded(
                &base,
                &configs,
                &assignment,
                PhasePolicy::ZeroJitter,
                horizon_s,
                0.5,
                rec,
            );
            let frames: u64 = r.report.streams.iter().map(|s| s.frames).sum();
            format!(
                "4 cams x 2 servers, zero-jitter phases, {horizon_s:.0} s horizon, \
                 {frames} frames"
            )
        }
        "serve_churn" => {
            let n_epochs = 5;
            let base = Scenario::uniform(4, 3, 20e6, 105);
            let plan = FaultPlan::none(3, 4).with_server_crashes(90.0, 25.0, 42);
            let cfg = pamo_config(PreferenceSource::Oracle);
            let serving = ServingConfig {
                epoch_s: 20.0,
                n_epochs,
                event_driven: true,
                arrivals: ArrivalModel::Poisson { rate_hz: 0.3 },
                mean_hold_s: 30.0,
                churn_seed: 7,
                ..ServingConfig::default()
            };
            let run = run_serving(
                &base,
                0.05,
                &cfg,
                [1.0, 3.0, 1.0, 1.0, 1.0],
                Some(&plan),
                &serving,
                14,
                rec,
            )
            .expect("valid inputs");
            format!(
                "4 cams x 3 servers, Poisson storm 0.3/s under crashes, {n_epochs} epochs, \
                 {} accepted / {} rejected, {} incremental / {} full replans, \
                 {:.3} U/server",
                run.accepted,
                run.rejected,
                run.replan_incremental,
                run.replan_full,
                run.benefit_per_server()
            )
        }
        "serve_chaos" => {
            let n_epochs = 5;
            let base = Scenario::uniform(4, 3, 20e6, 107);
            let chaos = ChaosSpec {
                seed: 31,
                churn_storm: Some(ChurnStorm {
                    calm_rate_hz: 0.05,
                    storm_rate_hz: 0.8,
                    mean_dwell_s: [20.0, 30.0],
                    mean_hold_s: 60.0,
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
            };
            let storm = chaos.churn_storm.expect("chaos has a storm");
            let serving = ServingConfig {
                epoch_s: 20.0,
                n_epochs,
                event_driven: true,
                arrivals: ArrivalModel::Mmpp {
                    rate_hz: [storm.calm_rate_hz, storm.storm_rate_hz],
                    mean_dwell_s: storm.mean_dwell_s,
                },
                mean_hold_s: storm.mean_hold_s,
                churn_seed: chaos.churn_seed(),
                admission: AdmissionConfig {
                    max_live: 2,
                    queue_capacity: 6,
                    max_queue_age_s: 15.0,
                    high_water: 2,
                    ..AdmissionConfig::default()
                },
                ..ServingConfig::default()
            };
            let overload = OverloadConfig::budgeted(
                chaos,
                BudgetPolicy {
                    window_units: 300,
                    full_floor: 120,
                    repair_floor: 40,
                    unit_time_s: 0.01,
                    deadline_s: 3.0,
                },
            );
            let cfg = pamo_config(PreferenceSource::Oracle);
            let run = ServingSession::new(
                &base,
                0.05,
                &cfg,
                [1.0, 3.0, 1.0, 1.0, 1.0],
                &serving,
                &overload,
                16,
            )
            .run(rec);
            format!(
                "4 cams x 3 servers, composed chaos + enforced budget, {n_epochs} epochs, \
                 {} accepted / {} rejected / {} shed, rungs {}/{}/{}, \
                 {} coalesced replans, {} overruns",
                run.accepted,
                run.rejected,
                run.shed,
                run.rung_counts[0],
                run.rung_counts[1],
                run.rung_counts[2],
                run.replan_coalesced,
                run.budget_overruns
            )
        }
        "bonded" => {
            use eva_bond::{BondPolicy, BondedLink, LinkBundle};
            use eva_net::LinkModel;
            let horizon_s = 60.0;
            let trio = |seed: u64| {
                LinkBundle::new(vec![
                    BondedLink::new(LinkModel::gilbert_elliott(12e6, 4e6, 3.0, 1.0, seed), 0.030),
                    BondedLink::new(
                        LinkModel::gilbert_elliott(8e6, 3e6, 3.0, 1.0, seed + 100),
                        0.080,
                    ),
                    BondedLink::new(LinkModel::constant(5e6), 0.200),
                ])
            };
            let base = Scenario::uniform(4, 2, 20e6, 108).with_link_bundles(
                (0..4).map(|i| trio(200 + i as u64)).collect(),
                BondPolicy::EarliestDelivery,
            );
            let space = base.config_space();
            let mid = space.resolutions()[space.resolutions().len() / 2];
            let fps = space.frame_rates()[0];
            let configs = vec![VideoConfig::new(mid, fps); base.n_videos()];
            let assignment = base.schedule(&configs).expect("mid-grid uniform fits");
            let r = simulate_scenario_with_deadline_recorded(
                &base,
                &configs,
                &assignment,
                PhasePolicy::ZeroJitter,
                horizon_s,
                0.5,
                rec,
            );
            let frames: u64 = r.report.streams.iter().map(|s| s.frames).sum();
            format!(
                "4 cams x 2 servers, 3-link bonded uplinks (HoL-aware), \
                 {horizon_s:.0} s horizon, {frames} frames"
            )
        }
        "scale_m2000" => {
            // One decision epoch at fleet scale: 2000 cameras on 200
            // servers, oracle preference. Exercises one-pass grouping,
            // rank-pairing assignment, the shared profiling design, and
            // the batched posterior path.
            let (m, n) = (2000, 200);
            let sc = Scenario::standard(m, n, &mut seeded(106));
            let pref = pamo_core::TruePreference::uniform(&sc);
            let mut cfg = pamo_config(PreferenceSource::Oracle);
            cfg.pool_size = 12;
            let mut pamo = pamo_core::Pamo::new(cfg);
            let d = pamo
                .decide_surviving_recorded(&sc, &pref, None, &mut seeded(15), rec)
                .expect("scale decision epoch succeeds");
            format!(
                "{m} cams x {n} servers, oracle preference, 1 epoch, \
                 benefit {:.4}",
                d.true_benefit
            )
        }
        other => unreachable!("unknown workload {other}"),
    }
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: perf_baseline (takes no arguments, writes {OUT_PATH})");
        std::process::exit(2);
    }
    let mut workloads = serde_json::Map::new();
    for name in SUITE {
        let rec = FlightRecorder::new();
        let what = run_workload(name, &rec);
        println!("{name}: {what}");
        workloads.insert(name.to_string(), work_counts(&rec.snapshot(), what));
    }

    let missing: Vec<&str> = REQUIRED_PHASES
        .into_iter()
        .filter(|p| !workloads.values().any(|w| w["phases"].get(p).is_some()))
        .collect();
    if !missing.is_empty() {
        eprintln!("perf_baseline: the suite never exercised phases {missing:?}");
        std::process::exit(1);
    }

    let doc = serde_json::json!({
        "schema": SCHEMA,
        "workloads": Value::Object(workloads),
    });
    std::fs::write(
        OUT_PATH,
        serde_json::to_string_pretty(&doc).expect("serialize baseline"),
    )
    .unwrap_or_else(|e| panic!("write {OUT_PATH}: {e}"));
    println!("(wrote {OUT_PATH})");
}

/// One workload's entry: the clock- and order-free part of the
/// snapshot's JSON (span counts rather than durations; histogram
/// extremes rather than sums, which depend on summation order, or
/// quantiles).
fn work_counts(snap: &ObsSnapshot, description: String) -> Value {
    let full: Value = serde_json::from_str(&snap.to_json()).expect("snapshot JSON parses");
    serde_json::json!({
        "description": description,
        "phases": map_values(&full["phases"], |v| v["count"].clone()),
        "counters": full["counters"].clone(),
        "histograms": map_values(&full["histograms"], |v| serde_json::json!({
            "count": v["count"].clone(),
            "min": v["min"].clone(),
            "max": v["max"].clone(),
        })),
        "events_recorded": full["events_recorded"].clone(),
    })
}

/// The JSON object `obj` with `keep` applied to each value.
fn map_values(obj: &Value, keep: impl Fn(&Value) -> Value) -> Value {
    let mut out = serde_json::Map::new();
    for (k, v) in obj.as_object().into_iter().flat_map(|m| m.iter()) {
        out.insert(k.clone(), keep(v));
    }
    Value::Object(out)
}
