//! Figure 9: preference-model pairwise accuracy vs number of training
//! comparison pairs.
//!
//! Preference models are trained on {3, 6, 9, 18, 27} EUBO-selected
//! comparisons answered by the true preference (Eq. 13), then evaluated
//! on 500 random test pairs: the prediction is correct when the model
//! orders the pair the same way as the truth. 10 repetitions.
//!
//! ```text
//! cargo run --release -p eva-bench --bin fig9_pref_acc [--quick]
//! ```

use eva_bench::Table;
use eva_obs::NoopRecorder;
use eva_prefgp::{elicit_preferences, ElicitConfig};
use eva_stats::rng::{child_seed, seeded};
use eva_workload::{Scenario, N_OBJECTIVES};
use pamo_core::benefit::{TruePreference, TruePreferenceOracle};
use pamo_core::{
    build_pool, CompositeSampler, OutcomeModelBank, OutcomeNormalizer, PreferenceEval,
};
use rand::Rng;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let pair_counts: Vec<usize> = if quick {
        vec![3, 9, 18]
    } else {
        vec![3, 6, 9, 18, 27]
    };
    let reps = if quick { 3 } else { 10 };
    let n_test = 500;

    // Outcome-space candidates: predicted outcomes of feasible joint
    // configs of the Fig. 6 scenario.
    let scenario = Scenario::uniform(8, 5, 20e6, 99);
    let pref = TruePreference::new(&scenario, [1.0, 2.0, 0.5, 1.5, 1.0]);
    let normalizer = OutcomeNormalizer::for_scenario(&scenario);
    let mut rng = seeded(5150);
    let bank = OutcomeModelBank::fit_initial(&scenario, 30, 0.02, None, &mut rng, &NoopRecorder)
        .expect("profiling GP fit");
    let sampler = CompositeSampler::new(
        &scenario,
        bank,
        PreferenceEval::Oracle(pref.clone()),
        normalizer.clone(),
    );
    let pool = build_pool(&scenario, 60, &mut rng, &Default::default()).expect("candidate pool");
    let candidates: Vec<Vec<f64>> = pool
        .iter()
        .filter_map(|x| sampler.predict_outcome(x))
        .map(|o| normalizer.normalize(&o))
        .collect();
    assert!(candidates.len() >= 10, "not enough outcome candidates");

    // Test items: *achievable* outcome vectors from a disjoint pool of
    // feasible joint configurations (fresh seed) — the paper compares
    // outcome vectors of the analytics system, not arbitrary points of
    // the unit cube.
    let mut test_rng = seeded(777_001);
    let test_pool =
        build_pool(&scenario, 80, &mut test_rng, &Default::default()).expect("test pool");
    let test_items: Vec<Vec<f64>> = test_pool
        .iter()
        .filter_map(|x| {
            let configs = pamo_core::decode_joint(&scenario, x).ok()?;
            scenario
                .evaluate(&configs)
                .ok()
                .map(|so| normalizer.normalize(&so.outcome))
        })
        .collect();
    assert!(test_items.len() >= 20, "not enough test outcomes");

    let mut table = Table::new(vec![
        "comparison_pairs",
        "accuracy_mean",
        "accuracy_min",
        "accuracy_max",
    ]);
    let mut results = Vec::new();

    for &v in &pair_counts {
        let mut accs = Vec::with_capacity(reps);
        for rep in 0..reps {
            let mut rep_rng = seeded(child_seed(31337, (v * 100 + rep) as u64));
            let mut oracle = TruePreferenceOracle::new(&pref);
            let mut cfg = ElicitConfig::for_dim(N_OBJECTIVES);
            cfg.n_comparisons = v;
            cfg.lambda = 0.05; // deterministic oracle: sharpen the probit
            let (model, _) = elicit_preferences(&mut oracle, &candidates, &cfg, &mut rep_rng)
                .expect("elicitation");
            // 500 random test pairs of achievable outcome vectors.
            let mut correct = 0usize;
            for _ in 0..n_test {
                let a = &test_items[rep_rng.gen_range(0..test_items.len())];
                let mut b = &test_items[rep_rng.gen_range(0..test_items.len())];
                if a == b {
                    b = &test_items
                        [(test_items.iter().position(|x| x == a).unwrap() + 1) % test_items.len()];
                }
                let (ua, _) = model.predict_utility(a);
                let (ub, _) = model.predict_utility(b);
                let truth = pref.benefit_of_normalized(a) > pref.benefit_of_normalized(b);
                if (ua > ub) == truth {
                    correct += 1;
                }
            }
            accs.push(correct as f64 / n_test as f64);
        }
        let mean = accs.iter().sum::<f64>() / accs.len() as f64;
        let min = accs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = accs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        table.row(vec![
            format!("{v}"),
            format!("{mean:.4}"),
            format!("{min:.4}"),
            format!("{max:.4}"),
        ]);
        results.push(serde_json::json!({
            "pairs": v, "accuracy_mean": mean, "accuracy_min": min, "accuracy_max": max,
        }));
    }

    println!("== Figure 9: preference-model accuracy vs comparison pairs ==");
    println!("{table}");
    println!("Paper: prediction error < 10% (accuracy > 0.9) at 18 pairs.");

    std::fs::create_dir_all("results").ok();
    std::fs::write(
        "results/fig9.json",
        serde_json::to_string_pretty(&results).unwrap(),
    )
    .expect("write results/fig9.json");
    println!("(wrote results/fig9.json)");
}
