//! Perf-baseline flight recorder: runs a pinned suite of scheduler
//! workloads with telemetry on and emits per-phase wall-clock
//! breakdowns as `BENCH_perf.json`.
//!
//! The suite pins the six code paths the scheduler spends its time in:
//!
//! * `online_3x2_learned` — the full PaMO pipeline (profiling + GP fit,
//!   preference elicitation, qNEI search, Algorithm-1 placement) on a
//!   small cluster,
//! * `online_6x3_oracle` — the PaMO+ oracle variant at double scale,
//!   isolating outcome-fit + BO cost from elicitation,
//! * `faulted_3x2` — the failure-aware loop under heavy crashes
//!   (detection, survivor re-planning, fallback ladder),
//! * `des_shared_uplink` — the discrete-event simulator on a schedule
//!   whose streams share server uplinks,
//! * `serve_churn` — the continuous-serving loop under a Poisson
//!   arrival storm with server crashes (admission probes, incremental
//!   replans), tracking replan reaction latency,
//! * `serve_chaos` — the budgeted overload session under a composed
//!   `ChaosSpec` (churn storm × crashes × link collapse × control
//!   stragglers) with an enforced decision budget, a tight retry
//!   queue and age shedding — pins the budgeted-decide, coalesced
//!   replan and shed phases,
//! * `scale_m2000` — one oracle decision epoch at fleet scale (2000
//!   cameras × 200 servers; quick: 240 × 24), pinning the sharded
//!   grouping, rank-pairing assignment and batched posterior paths,
//! * `bonded` — the DES with every camera on a heterogeneous three-link
//!   bonded uplink under HoL-aware striping, pinning the packet-level
//!   `bond_stripe` seeding path.
//!
//! Each workload runs under its own [`eva_obs::FlightRecorder`]; the
//! per-phase histograms, counters and wall-clock totals land in one
//! machine-readable JSON file (schema `eva-obs/perf-baseline/v1`).
//!
//! ```text
//! cargo run --release -p eva-bench --bin perf_baseline [--quick] [--out PATH]
//! cargo run --release -p eva-bench --bin perf_baseline -- --validate PATH
//! cargo run --release -p eva-bench --bin perf_baseline -- \
//!     --compare BASELINE FRESH [--max-regression PCT] [--allow PHASES]
//! ```
//!
//! `--validate` re-reads an emitted file and checks the schema: every
//! workload has finite timings, and the union of phases covers the
//! pipeline (`outcome_fit`, `pref_model`, `bo_search`, `grouping`,
//! `assignment`, `des`, `admission`, `replan`).
//!
//! `--compare` checks a fresh run against a committed baseline: for
//! every workload present in both files, the `outcome_fit` and `decide`
//! phase means must not regress by more than `--max-regression` percent
//! (default 25). `--allow` names phases (comma-separated, or `all`)
//! whose regressions are tolerated — the CI workflow wires it to an
//! env-var override so an intentional slowdown can land with an
//! explicit annotation instead of a red build. CI runs the quick suite,
//! the validator, and the comparator on every PR.

use std::time::Instant;

use eva_bo::{AcqKind, BoConfig};
use eva_fault::{
    ChaosSpec, ChurnStorm, ControlStragglers, CrashBursts, FaultPlan, LinkCollapse, RetryPolicy,
};
use eva_obs::{BudgetPolicy, FlightRecorder};
use eva_serve::{AdmissionConfig, ArrivalModel};
use eva_sim::{simulate_scenario_with_deadline_recorded, PhasePolicy};
use eva_stats::rng::seeded;
use eva_workload::{DriftingScenario, Scenario, VideoConfig};
use pamo_core::{
    run_online, run_online_faulted, run_serving, FaultedRunConfig, OverloadConfig, PamoConfig,
    PreferenceSource, ServingConfig, ServingSession,
};

/// Schema tag of the emitted file; bump on breaking layout changes.
const SCHEMA: &str = "eva-obs/perf-baseline/v1";
/// Phases the suite must exercise for the baseline to be trustworthy.
const REQUIRED_PHASES: [&str; 14] = [
    "outcome_fit",
    "pref_model",
    "bo_search",
    "bo_prepare",
    "bo_posterior",
    "bo_assemble",
    "bank_update",
    "grouping",
    "assignment",
    "des",
    "admission",
    "replan",
    "shed",
    "bond_stripe",
];

fn pamo_config(quick: bool, preference: PreferenceSource) -> PamoConfig {
    PamoConfig {
        bo: BoConfig {
            n_init: 4,
            batch: 2,
            mc_samples: 16,
            max_iters: if quick { 3 } else { 5 },
            delta: 0.02,
            kind: AcqKind::QNei,
        },
        pool_size: if quick { 20 } else { 30 },
        profiling_per_camera: if quick { 20 } else { 25 },
        profile_noise: 0.02,
        n_comparisons: 6,
        elicit_candidates: 15,
        preference,
    }
}

/// One suite entry: run the workload under `rec`, return a one-line
/// description of what ran.
fn run_workload(name: &str, quick: bool, rec: &FlightRecorder) -> String {
    match name {
        "online_3x2_learned" => {
            let n_epochs = if quick { 2 } else { 4 };
            let base = Scenario::uniform(3, 2, 20e6, 101);
            let mut d = DriftingScenario::new(&base, 0.05);
            let cfg = pamo_config(quick, PreferenceSource::Learned);
            let run = run_online(&mut d, &cfg, [1.0; 5], n_epochs, &mut seeded(11), rec)
                .expect("valid inputs");
            format!(
                "3 cams x 2 servers, learned preference, {n_epochs} epochs, \
                 mean benefit {:.4}",
                run.mean_online_benefit()
            )
        }
        "online_6x3_oracle" => {
            let n_epochs = if quick { 2 } else { 3 };
            let base = Scenario::uniform(6, 3, 20e6, 102);
            let mut d = DriftingScenario::new(&base, 0.05);
            let cfg = pamo_config(quick, PreferenceSource::Oracle);
            let run = run_online(&mut d, &cfg, [1.0; 5], n_epochs, &mut seeded(12), rec)
                .expect("valid inputs");
            format!(
                "6 cams x 3 servers, oracle preference, {n_epochs} epochs, \
                 mean benefit {:.4}",
                run.mean_online_benefit()
            )
        }
        "faulted_3x2" => {
            let n_epochs = if quick { 3 } else { 6 };
            let base = Scenario::uniform(3, 2, 20e6, 103);
            let plan = FaultPlan::none(2, 3)
                .with_server_crashes(20.0, 40.0, 11)
                .with_frame_loss(0.02, 7)
                .with_retry(RetryPolicy::standard());
            let mut d = DriftingScenario::new(&base, 0.05);
            let cfg = pamo_config(quick, PreferenceSource::Oracle);
            let run = run_online_faulted(
                &mut d,
                &cfg,
                [1.0, 3.0, 1.0, 1.0, 1.0],
                n_epochs,
                Some(&plan),
                &FaultedRunConfig {
                    epoch_s: 5.0,
                    heartbeat_s: 1.0,
                    fault_aware: true,
                },
                &mut seeded(13),
                rec,
            )
            .expect("valid inputs");
            format!(
                "3 cams x 2 servers under crashes (MTTF 20 s / MTTR 40 s), \
                 {n_epochs} epochs, mean benefit {:.4}",
                run.mean_online_benefit()
            )
        }
        "des_shared_uplink" => {
            let horizon_s = if quick { 20.0 } else { 60.0 };
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
            let n_epochs = if quick { 3 } else { 5 };
            let base = Scenario::uniform(4, 3, 20e6, 105);
            let plan = FaultPlan::none(3, 4).with_server_crashes(90.0, 25.0, 42);
            let cfg = pamo_config(quick, PreferenceSource::Oracle);
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
            let n_epochs = if quick { 3 } else { 5 };
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
            let cfg = pamo_config(quick, PreferenceSource::Oracle);
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
            let horizon_s = if quick { 20.0 } else { 60.0 };
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
            // servers (quick: 240 on 24), oracle preference. Exercises
            // sharded grouping, rank-pairing assignment, the shared
            // profiling design, and the batched posterior path.
            let (m, n) = if quick { (240, 24) } else { (2000, 200) };
            let sc = Scenario::standard(m, n, &mut seeded(106));
            let pref = pamo_core::TruePreference::uniform(&sc);
            let mut cfg = pamo_config(quick, PreferenceSource::Oracle);
            cfg.pool_size = 12;
            let pamo = pamo_core::Pamo::new(cfg);
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut out_path = String::from("BENCH_perf.json");
    let mut validate_path: Option<String> = None;
    let mut compare_paths: Option<(String, String)> = None;
    let mut max_regression_pct = 25.0f64;
    let mut allow: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--validate" => {
                validate_path = Some(it.next().expect("--validate needs a path").clone());
            }
            "--compare" => {
                let base = it.next().expect("--compare needs BASELINE FRESH").clone();
                let fresh = it.next().expect("--compare needs BASELINE FRESH").clone();
                compare_paths = Some((base, fresh));
            }
            "--max-regression" => {
                max_regression_pct = it
                    .next()
                    .expect("--max-regression needs a percentage")
                    .parse()
                    .expect("--max-regression: not a number");
            }
            "--allow" => {
                let list = it.next().expect("--allow needs a phase list").clone();
                allow.extend(
                    list.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty()),
                );
            }
            "--quick" => {}
            other => {
                eprintln!("perf_baseline: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = validate_path {
        match validate(&path) {
            Ok(n) => println!("{path}: OK ({n} workloads, schema {SCHEMA})"),
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some((base, fresh)) = compare_paths {
        match compare(&base, &fresh, max_regression_pct, &allow) {
            Ok(()) => println!("compare: OK (no phase regressed > {max_regression_pct:.0}%)"),
            Err(e) => {
                eprintln!("compare: FAILED — {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let suite = [
        "online_3x2_learned",
        "online_6x3_oracle",
        "faulted_3x2",
        "des_shared_uplink",
        "serve_churn",
        "serve_chaos",
        "scale_m2000",
        "bonded",
    ];
    println!(
        "== perf baseline: {} suite ==",
        if quick { "quick" } else { "full" }
    );
    let mut workloads = serde_json::Map::new();
    for name in suite {
        let rec = FlightRecorder::new();
        let wall = Instant::now();
        let what = run_workload(name, quick, &rec);
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let snap = rec.snapshot();

        println!("\n-- {name}: {what} ({wall_ms:.0} ms) --");
        print!("{}", snap.summary_table());

        let mut entry: serde_json::Value =
            serde_json::from_str(&snap.to_json()).expect("snapshot JSON parses");
        if let Some(obj) = entry.as_object_mut() {
            obj.insert("wall_ms".into(), serde_json::json!(wall_ms));
            obj.insert("description".into(), serde_json::json!(what));
        }
        workloads.insert(name.to_string(), entry);
    }

    let doc = serde_json::json!({
        "schema": SCHEMA,
        "quick": quick,
        "workloads": serde_json::Value::Object(workloads),
    });
    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&doc).expect("serialize baseline"),
    )
    .unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("\n(wrote {out_path})");
}

/// Phases gated by `--compare`: the decision-path costs the repo is
/// actively optimizing (ROADMAP item 1).
const COMPARE_PHASES: [&str; 2] = ["outcome_fit", "decide"];

/// Compare a fresh baseline against a committed one: per workload, the
/// [`COMPARE_PHASES`] means must not regress more than `max_pct`
/// percent. Phases named in `allow` (or `allow = ["all"]`) may regress
/// with a printed notice instead of an error.
fn compare(
    base_path: &str,
    fresh_path: &str,
    max_pct: f64,
    allow: &[String],
) -> Result<(), String> {
    let load = |path: &str| -> Result<serde_json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let base = load(base_path)?;
    let fresh = load(fresh_path)?;
    for (doc, path) in [(&base, base_path), (&fresh, fresh_path)] {
        let schema = doc.get("schema").and_then(|s| s.as_str()).unwrap_or("");
        if schema != SCHEMA {
            return Err(format!("{path}: schema {schema:?} != {SCHEMA:?}"));
        }
    }
    if base.get("quick") != fresh.get("quick") {
        println!("note: comparing a quick and a full suite — treating as comparable");
    }
    let base_wl = base
        .get("workloads")
        .and_then(|w| w.as_object())
        .ok_or_else(|| format!("{base_path}: missing workloads"))?;
    let fresh_wl = fresh
        .get("workloads")
        .and_then(|w| w.as_object())
        .ok_or_else(|| format!("{fresh_path}: missing workloads"))?;
    let mean_of = |entry: &serde_json::Value, phase: &str| -> Option<f64> {
        entry
            .get("phases")?
            .get(phase)?
            .get("mean_ms")?
            .as_f64()
            .filter(|v| v.is_finite() && *v > 0.0)
    };
    let allowed = |phase: &str| allow.iter().any(|a| a == phase || a == "all");
    let mut failures: Vec<String> = Vec::new();
    let mut compared = 0usize;
    for (name, fresh_entry) in fresh_wl {
        // Workloads new to the fresh file have no reference; skip them.
        let Some(base_entry) = base_wl.get(name) else {
            continue;
        };
        for phase in COMPARE_PHASES {
            let (Some(b), Some(f)) = (mean_of(base_entry, phase), mean_of(fresh_entry, phase))
            else {
                continue;
            };
            compared += 1;
            let pct = (f / b - 1.0) * 100.0;
            println!("{name}/{phase}: {b:.2} ms -> {f:.2} ms ({pct:+.1}%)");
            if pct > max_pct {
                if allowed(phase) {
                    println!("  regression allow-listed ({phase})");
                } else {
                    failures.push(format!(
                        "{name}/{phase} regressed {pct:+.1}% (mean {b:.2} -> {f:.2} ms)"
                    ));
                }
            }
        }
    }
    if compared == 0 {
        return Err("no comparable (workload, phase) pairs between the two files".into());
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Validate an emitted baseline file: schema tag, per-workload layout,
/// finite timings, and pipeline phase coverage across the suite.
fn validate(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let doc: serde_json::Value = serde_json::from_str(&text).map_err(|e| format!("parse: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(|s| s.as_str())
        .ok_or("missing schema tag")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?} != {SCHEMA:?}"));
    }
    let workloads = doc
        .get("workloads")
        .and_then(|w| w.as_object())
        .ok_or("missing workloads object")?;
    if workloads.is_empty() {
        return Err("empty workloads".into());
    }
    let mut seen_phases: Vec<String> = Vec::new();
    for (name, entry) in workloads {
        let wall = entry
            .get("wall_ms")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{name}: missing wall_ms"))?;
        if !wall.is_finite() || wall < 0.0 {
            return Err(format!("{name}: bad wall_ms {wall}"));
        }
        let phases = entry
            .get("phases")
            .and_then(|p| p.as_object())
            .ok_or_else(|| format!("{name}: missing phases object"))?;
        for (phase, stats) in phases {
            for key in ["count", "total_ms", "mean_ms", "p50_ms", "p95_ms", "max_ms"] {
                let v = stats
                    .get(key)
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("{name}/{phase}: missing {key}"))?;
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("{name}/{phase}: bad {key} = {v}"));
                }
            }
            if !seen_phases.iter().any(|p| p == phase) {
                seen_phases.push(phase.clone());
            }
        }
        entry
            .get("counters")
            .and_then(|c| c.as_object())
            .ok_or_else(|| format!("{name}: missing counters object"))?;
    }
    for required in REQUIRED_PHASES {
        if !seen_phases.iter().any(|p| p == required) {
            return Err(format!("suite never exercised phase {required:?}"));
        }
    }
    Ok(workloads.len())
}
