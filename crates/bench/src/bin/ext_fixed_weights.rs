//! Extension experiment: the textbook fixed-weight scalarizers
//! (Equal / Rank-Order-Centroid / Rank-Sum — Sec. 1 and Sec. 6 of the
//! paper) against preference learning.
//!
//! The paper argues these classical weight definitions "are not
//! flexible enough to adapt to diverse and dynamic EVA system
//! environments" but never measures them; this binary does. Each
//! scheme optimizes its own scalarized objective with the *same*
//! zero-jitter scheduling substrate PaMO uses, then everything is
//! scored by the hidden true preference.
//!
//! ```text
//! cargo run --release -p eva-bench --bin ext_fixed_weights [--quick]
//! ```

use eva_baselines::{measure_decision, FixedWeight, FixedWeightScheme};
use eva_bench::Table;
use eva_stats::rng::seeded;
use eva_workload::{Scenario, N_OBJECTIVES};
use pamo_core::{normalized_benefit, Pamo, PamoConfig, TruePreference};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Hidden preferences of increasing skew: the further from "equal",
    // the worse fixed schemes should fare.
    let preferences: Vec<(&str, [f64; N_OBJECTIVES])> = vec![
        ("uniform", [1.0; N_OBJECTIVES]),
        ("latency-heavy", [3.2, 1.0, 1.0, 1.0, 1.0]),
        ("accuracy-heavy", [1.0, 3.2, 1.0, 1.0, 1.0]),
        ("energy-heavy", [1.0, 1.0, 1.0, 1.0, 3.2]),
    ];
    let (n_videos, n_servers) = if quick { (5, 4) } else { (8, 5) };

    let mut pamo_cfg = PamoConfig::default();
    if quick {
        pamo_cfg.bo.max_iters = 4;
        pamo_cfg.bo.mc_samples = 16;
        pamo_cfg.pool_size = 30;
        pamo_cfg.profiling_per_camera = 25;
        pamo_cfg.n_comparisons = 10;
    }

    let mut table = Table::new(vec![
        "preference",
        "Equal",
        "ROC",
        "RankSum",
        "PaMO",
        "PaMO+",
    ]);
    let mut results = Vec::new();

    for (name, weights) in &preferences {
        let scenario = Scenario::uniform(n_videos, n_servers, 20e6, 4711);
        let pref = TruePreference::new(&scenario, *weights);
        let min_ref = pref.min_reference();

        let plus = Pamo::new(pamo_cfg.clone().plus())
            .decide(&scenario, &pref, &mut seeded(1))
            .expect("feasible");
        let pamo = Pamo::new(pamo_cfg.clone())
            .decide(&scenario, &pref, &mut seeded(1))
            .expect("feasible");
        let best = plus.true_benefit;
        let norm = |u: f64| normalized_benefit(u, best, min_ref);

        let fixed_score = |scheme: FixedWeightScheme| -> f64 {
            let d = FixedWeight::new(scheme).decide(&scenario);
            let outcome = measure_decision(&scenario, &d)
                .expect("a fixed-weight decision has one valid config and server per camera");
            norm(pref.benefit(&outcome))
        };
        let equal = fixed_score(FixedWeightScheme::Equal);
        let roc = fixed_score(FixedWeightScheme::RankOrderCentroid);
        let rs = fixed_score(FixedWeightScheme::RankSum);

        table.row(vec![
            name.to_string(),
            format!("{equal:.4}"),
            format!("{roc:.4}"),
            format!("{rs:.4}"),
            format!("{:.4}", norm(pamo.true_benefit)),
            format!("{:.4}", norm(plus.true_benefit)),
        ]);
        results.push(serde_json::json!({
            "preference": name, "equal": equal, "roc": roc, "rank_sum": rs,
            "pamo": norm(pamo.true_benefit), "pamo_plus": norm(plus.true_benefit),
        }));
    }

    println!("== Extension: textbook fixed weights vs preference learning ==");
    println!("{table}");
    println!(
        "Reading: fixed schemes can get lucky when the hidden preference\n\
         happens to resemble their weights (Equal vs uniform), but skewed\n\
         pricing leaves them behind — the Sec. 1 claim, quantified."
    );

    std::fs::create_dir_all("results").ok();
    std::fs::write(
        "results/ext_fixed_weights.json",
        serde_json::to_string_pretty(&results).unwrap(),
    )
    .expect("write results/ext_fixed_weights.json");
    println!("(wrote results/ext_fixed_weights.json)");
}
