//! Integration: preference learning across crates — the GP stack
//! (eva-gp, eva-prefgp) must recover Eq. 13-style utilities well enough
//! to rank real outcome vectors from the workload layer.

use pamo::core::benefit::{TruePreference, TruePreferenceOracle};
use pamo::core::{build_pool, decode_joint, OutcomeNormalizer};
use pamo::prefgp::{elicit_preferences, ElicitConfig};
use pamo::prelude::*;
use pamo::stats::rng::seeded;
use rand::Rng;

/// Build normalized outcome candidates from feasible pool configs.
fn outcome_candidates(scenario: &Scenario, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let normalizer = OutcomeNormalizer::for_scenario(scenario);
    let mut rng = seeded(seed);
    let pool = build_pool(scenario, n, &mut rng, &Default::default()).unwrap();
    pool.iter()
        .filter_map(|x| {
            let configs = decode_joint(scenario, x).ok()?;
            scenario
                .evaluate(&configs)
                .ok()
                .map(|so| normalizer.normalize(&so.outcome))
        })
        .collect()
}

#[test]
fn elicited_model_ranks_real_outcomes() {
    let scenario = Scenario::uniform(5, 3, 20e6, 303);
    let pref = TruePreference::new(&scenario, [1.0, 2.5, 0.5, 1.0, 1.5]);
    let candidates = outcome_candidates(&scenario, 40, 1);
    assert!(candidates.len() >= 10);

    let mut oracle = TruePreferenceOracle::new(&pref);
    let mut cfg = ElicitConfig::for_dim(5);
    cfg.n_comparisons = 18; // the paper's "accurate enough" budget
    let (model, data) = elicit_preferences(&mut oracle, &candidates, &cfg, &mut seeded(2)).unwrap();
    assert_eq!(data.len(), 18);

    // Pairwise accuracy on held-out *real* outcome pairs.
    let mut rng = seeded(3);
    let mut correct = 0;
    let trials = 200;
    for _ in 0..trials {
        let a = &candidates[rng.gen_range(0..candidates.len())];
        let b = &candidates[rng.gen_range(0..candidates.len())];
        if a == b {
            correct += 1; // trivially consistent
            continue;
        }
        let (ua, _) = model.predict_utility(a);
        let (ub, _) = model.predict_utility(b);
        let truth = pref.benefit_of_normalized(a) > pref.benefit_of_normalized(b);
        if (ua > ub) == truth {
            correct += 1;
        }
    }
    let acc = correct as f64 / trials as f64;
    assert!(acc > 0.8, "pairwise accuracy on real outcomes: {acc}");
}

#[test]
fn more_comparisons_help_on_real_outcomes() {
    let scenario = Scenario::uniform(4, 3, 20e6, 404);
    let pref = TruePreference::new(&scenario, [0.5, 3.0, 0.5, 0.5, 2.0]);
    let candidates = outcome_candidates(&scenario, 30, 4);

    let eval = |v: usize, seed: u64| -> f64 {
        let mut oracle = TruePreferenceOracle::new(&pref);
        let mut cfg = ElicitConfig::for_dim(5);
        cfg.n_comparisons = v;
        let (model, _) =
            elicit_preferences(&mut oracle, &candidates, &cfg, &mut seeded(seed)).unwrap();
        let mut rng = seeded(seed + 1000);
        let trials = 150;
        let mut correct = 0;
        for _ in 0..trials {
            let a: Vec<f64> = (0..5).map(|_| rng.gen()).collect();
            let b: Vec<f64> = (0..5).map(|_| rng.gen()).collect();
            let (ua, _) = model.predict_utility(&a);
            let (ub, _) = model.predict_utility(&b);
            if (ua > ub) == (pref.benefit_of_normalized(&a) > pref.benefit_of_normalized(&b)) {
                correct += 1;
            }
        }
        correct as f64 / trials as f64
    };

    // Average two seeds to damp variance, compare 3 vs 24 comparisons.
    let small = (eval(3, 10) + eval(3, 20)) / 2.0;
    let large = (eval(24, 10) + eval(24, 20)) / 2.0;
    assert!(
        large >= small - 0.02,
        "accuracy regressed with more data: {small} -> {large}"
    );
    assert!(large > 0.75, "24-comparison accuracy too low: {large}");
}

#[test]
fn normalizer_and_benefit_are_consistent_across_crates() {
    let scenario = Scenario::uniform(4, 3, 20e6, 505);
    let pref = TruePreference::uniform(&scenario);
    let normalizer = OutcomeNormalizer::for_scenario(&scenario);
    let configs = vec![VideoConfig::new(600.0, 5.0); 4];
    let outcome = scenario.evaluate(&configs).unwrap().outcome;
    // benefit() and benefit_of_normalized(normalize()) agree.
    let direct = pref.benefit(&outcome);
    let via_norm = pref.benefit_of_normalized(&normalizer.normalize(&outcome));
    assert!((direct - via_norm).abs() < 1e-12);
}
