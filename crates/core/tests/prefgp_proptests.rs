//! Property tests for preference learning.

use eva_stats::rng::seeded;
use pamo_core::gp::{Kernel, KernelType};
use pamo_core::prefgp::{FunctionOracle, PreferenceDataset, PreferenceModel};
use proptest::prelude::*;
use rand::Rng;

/// Random linear utilities over [0,1]²; weights bounded away from zero
/// so comparisons are informative.
fn weights_strategy() -> impl Strategy<Value = (f64, f64)> {
    (0.3f64..3.0, 0.3f64..3.0)
}

fn build_dataset(w: (f64, f64), n: usize, seed: u64) -> PreferenceDataset {
    let mut rng = seeded(seed);
    let mut data = PreferenceDataset::new();
    let mut oracle = FunctionOracle::new(move |y: &[f64]| -(w.0 * y[0] + w.1 * y[1]));
    for _ in 0..n {
        let a: Vec<f64> = vec![rng.gen(), rng.gen()];
        let b: Vec<f64> = vec![rng.gen(), rng.gen()];
        data.query(&mut oracle, &a, &b);
    }
    data
}

fn fit(data: &PreferenceDataset) -> PreferenceModel {
    let kernel = Kernel::isotropic(KernelType::Rbf, 2, 0.5, 1.0);
    PreferenceModel::fit(data, kernel, 0.1).expect("Laplace fit")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The MAP utilities always reproduce every *consistent* training
    /// comparison's order.
    #[test]
    fn map_respects_training_data(w in weights_strategy(), seed in 0u64..500) {
        let data = build_dataset(w, 12, seed);
        let model = fit(&data);
        for cmp in data.comparisons() {
            let gw = model.map_utilities()[cmp.winner];
            let gl = model.map_utilities()[cmp.loser];
            prop_assert!(gw > gl - 1e-6, "winner {gw} vs loser {gl}");
        }
    }

    /// prob_prefers is a proper complement: P(a ≻ b) + P(b ≻ a) = 1.
    #[test]
    fn preference_probability_is_complementary(w in weights_strategy(), seed in 0u64..500) {
        let data = build_dataset(w, 8, seed);
        let model = fit(&data);
        let mut rng = seeded(seed ^ 0xf00d);
        for _ in 0..10 {
            let a: Vec<f64> = vec![rng.gen(), rng.gen()];
            let b: Vec<f64> = vec![rng.gen(), rng.gen()];
            let pab = model.prob_prefers(&a, &b);
            let pba = model.prob_prefers(&b, &a);
            prop_assert!((pab + pba - 1.0).abs() < 1e-9);
            prop_assert!((0.0..=1.0).contains(&pab));
        }
    }

    /// Posterior utility variance is nonnegative and finite everywhere.
    #[test]
    fn utility_variance_is_sane(w in weights_strategy(), seed in 0u64..500,
                                qx in 0.0f64..1.0, qy in 0.0f64..1.0) {
        let data = build_dataset(w, 10, seed);
        let model = fit(&data);
        let (mu, var) = model.predict_utility(&[qx, qy]);
        prop_assert!(mu.is_finite());
        prop_assert!(var.is_finite() && var >= 0.0);
    }

    /// Preference learning is label-scale free: the oracle's utility
    /// can be rescaled arbitrarily without changing the comparisons,
    /// hence the fitted model.
    #[test]
    fn invariant_to_utility_scaling(w in weights_strategy(), seed in 0u64..200,
                                    scale in 0.1f64..10.0) {
        let data1 = build_dataset(w, 10, seed);
        let data2 = build_dataset((w.0 * scale, w.1 * scale), 10, seed);
        // Same seed + same *ordering* utility => identical datasets.
        prop_assert_eq!(data1.comparisons(), data2.comparisons());
        prop_assert_eq!(data1.items(), data2.items());
    }
}
