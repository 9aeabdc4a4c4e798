//! Figure 10: sensitivity analysis.
//!
//! (a) Baseline weight sweep: JCAB's accuracy weight and FACT's latency
//! weight sweep 0.05..5 while PaMO/PaMO+ (weight-free) stay fixed —
//! baselines never reach PaMO. Two configurations: n5v8 and n6v10.
//!
//! (b) Termination-threshold sweep: δ ∈ {0.02..0.2}, applied to every
//! method's own convergence test (PaMO's BO loop, JCAB's virtual-queue
//! settling, FACT's BCD improvement). PaMO stays stable; baselines are
//! sensitive.
//!
//! ```text
//! cargo run --release -p eva-bench --bin fig10_sensitivity [--quick] [weights|thresholds]
//! ```

use eva_baselines::{measure_decision, Fact, FactConfig, Jcab, JcabConfig};
use eva_bench::Table;
use eva_stats::rng::{child_seed, seeded};
use eva_workload::Scenario;
use pamo_core::{normalized_benefit, Pamo, PamoConfig, TruePreference};

struct Setup {
    label: &'static str,
    scenario: Scenario,
    pref: TruePreference,
}

fn setups() -> Vec<Setup> {
    let s1 = Scenario::uniform(8, 5, 20e6, 61);
    let s2 = Scenario::uniform(10, 6, 20e6, 62);
    vec![
        Setup {
            label: "n5v8",
            pref: TruePreference::uniform(&s1),
            scenario: s1,
        },
        Setup {
            label: "n6v10",
            pref: TruePreference::uniform(&s2),
            scenario: s2,
        },
    ]
}

fn pamo_cfg(quick: bool) -> PamoConfig {
    let mut cfg = PamoConfig::default();
    if quick {
        cfg.bo.max_iters = 4;
        cfg.bo.mc_samples = 16;
        cfg.pool_size = 30;
        cfg.profiling_per_camera = 25;
        cfg.n_comparisons = 10;
    }
    cfg
}

fn norm(pref: &TruePreference, u: f64, best: f64) -> f64 {
    normalized_benefit(u, best, pref.min_reference())
}

fn weights_experiment(quick: bool, results: &mut Vec<serde_json::Value>) {
    let weight_values: Vec<f64> = if quick {
        vec![0.05, 0.5, 5.0]
    } else {
        vec![0.05, 0.1, 0.2, 0.5, 0.8, 1.0, 2.0, 5.0]
    };
    let mut table = Table::new(vec!["setup", "weight", "JCAB", "FACT", "PaMO", "PaMO+"]);
    for setup in setups() {
        // PaMO / PaMO+ once per setup (weight-independent).
        let mut rng = seeded(child_seed(4242, 1));
        let plus = Pamo::new(pamo_cfg(quick).plus())
            .decide(&setup.scenario, &setup.pref, &mut rng)
            .expect("feasible");
        let mut rng = seeded(child_seed(4242, 2));
        let pamo = Pamo::new(pamo_cfg(quick))
            .decide(&setup.scenario, &setup.pref, &mut rng)
            .expect("feasible");
        let best = plus.true_benefit;

        for &w in &weight_values {
            // A binding energy budget makes the accuracy/energy trade
            // actually move with the weight.
            let jcab = Jcab::new(JcabConfig {
                w_acc: w,
                energy_budget_w: 40.0,
                ..Default::default()
            });
            let fact = Fact::new(FactConfig {
                w_lct: w,
                ..Default::default()
            });
            let u_jcab = setup.pref.benefit(
                &measure_decision(&setup.scenario, &jcab.decide(&setup.scenario))
                    .expect("JCAB decides one valid config and server per camera"),
            );
            let u_fact = setup.pref.benefit(
                &measure_decision(&setup.scenario, &fact.decide(&setup.scenario))
                    .expect("FACT decides one valid config and server per camera"),
            );
            table.row(vec![
                setup.label.to_string(),
                format!("{w}"),
                format!("{:.4}", norm(&setup.pref, u_jcab, best)),
                format!("{:.4}", norm(&setup.pref, u_fact, best)),
                format!("{:.4}", norm(&setup.pref, pamo.true_benefit, best)),
                format!("{:.4}", norm(&setup.pref, plus.true_benefit, best)),
            ]);
            results.push(serde_json::json!({
                "experiment": "weights", "setup": setup.label, "weight": w,
                "jcab": norm(&setup.pref, u_jcab, best),
                "fact": norm(&setup.pref, u_fact, best),
                "pamo": norm(&setup.pref, pamo.true_benefit, best),
                "pamo_plus": 1.0,
            }));
        }
    }
    println!("== Figure 10(a): baseline weight sweep ==");
    println!("{table}");
    println!("Paper: JCAB/FACT fluctuate with weight but never reach PaMO/PaMO+.");
}

fn thresholds_experiment(quick: bool, results: &mut Vec<serde_json::Value>) {
    let deltas: Vec<f64> = if quick {
        vec![0.02, 0.1, 0.2]
    } else {
        vec![0.02, 0.04, 0.06, 0.08, 0.1, 0.2]
    };
    let mut table = Table::new(vec!["setup", "delta", "JCAB", "FACT", "PaMO", "PaMO+"]);
    for setup in setups() {
        // Reference: PaMO+ at the tightest threshold anchors normalization.
        let mut rng = seeded(child_seed(777, 0));
        let anchor = Pamo::new(pamo_cfg(quick).plus().with_delta(deltas[0]))
            .decide(&setup.scenario, &setup.pref, &mut rng)
            .expect("feasible")
            .true_benefit;

        for (di, &delta) in deltas.iter().enumerate() {
            let mut rng = seeded(child_seed(777, 10 + di as u64));
            let plus = Pamo::new(pamo_cfg(quick).plus().with_delta(delta))
                .decide(&setup.scenario, &setup.pref, &mut rng)
                .expect("feasible");
            let mut rng = seeded(child_seed(777, 100 + di as u64));
            let pamo = Pamo::new(pamo_cfg(quick).with_delta(delta))
                .decide(&setup.scenario, &setup.pref, &mut rng)
                .expect("feasible");

            // Baselines get the same δ as their own convergence
            // threshold (JCAB stops when the virtual queue settles
            // within δ·budget; FACT when the cost improves < δ relative).
            let jcab = Jcab::new(JcabConfig {
                delta,
                energy_budget_w: 40.0,
                ..Default::default()
            });
            let fact = Fact::new(FactConfig {
                delta,
                ..Default::default()
            });
            let u_jcab = setup.pref.benefit(
                &measure_decision(&setup.scenario, &jcab.decide(&setup.scenario))
                    .expect("JCAB decides one valid config and server per camera"),
            );
            let u_fact = setup.pref.benefit(
                &measure_decision(&setup.scenario, &fact.decide(&setup.scenario))
                    .expect("FACT decides one valid config and server per camera"),
            );
            table.row(vec![
                setup.label.to_string(),
                format!("{delta}"),
                format!("{:.4}", norm(&setup.pref, u_jcab, anchor)),
                format!("{:.4}", norm(&setup.pref, u_fact, anchor)),
                format!("{:.4}", norm(&setup.pref, pamo.true_benefit, anchor)),
                format!("{:.4}", norm(&setup.pref, plus.true_benefit, anchor)),
            ]);
            results.push(serde_json::json!({
                "experiment": "thresholds", "setup": setup.label, "delta": delta,
                "jcab": norm(&setup.pref, u_jcab, anchor),
                "fact": norm(&setup.pref, u_fact, anchor),
                "pamo": norm(&setup.pref, pamo.true_benefit, anchor),
                "pamo_plus": norm(&setup.pref, plus.true_benefit, anchor),
            }));
        }
    }
    println!("== Figure 10(b): termination-threshold sweep ==");
    println!("{table}");
    println!("Paper: PaMO's benefit stays high and stable; baselines fluctuate.");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which = args
        .iter()
        .skip(1)
        .find(|a| *a == "weights" || *a == "thresholds")
        .map(String::as_str)
        .unwrap_or("both");

    let mut results = Vec::new();
    if which == "weights" || which == "both" {
        weights_experiment(quick, &mut results);
    }
    if which == "thresholds" || which == "both" {
        thresholds_experiment(quick, &mut results);
    }
    std::fs::create_dir_all("results").ok();
    std::fs::write(
        "results/fig10.json",
        serde_json::to_string_pretty(&results).unwrap(),
    )
    .expect("write results/fig10.json");
    println!("(wrote results/fig10.json)");
}
