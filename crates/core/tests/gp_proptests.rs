//! Property tests for GP regression invariants.

use pamo_core::gp::{GpModel, Kernel, KernelType};
use proptest::prelude::*;

/// A 1-D dataset of distinct inputs with bounded targets.
fn dataset_strategy() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    proptest::collection::vec(-1.0f64..1.0, 4..12).prop_map(|targets| {
        let xs: Vec<Vec<f64>> = (0..targets.len())
            .map(|i| vec![i as f64 / targets.len() as f64])
            .collect();
        (xs, targets)
    })
}

fn model(xs: Vec<Vec<f64>>, ys: Vec<f64>, family: KernelType) -> GpModel {
    let kernel = Kernel::isotropic(family, 1, 0.4, 1.0);
    GpModel::new(kernel, 1e-3, xs, ys).expect("valid GP data")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Posterior variance is nonnegative everywhere and bounded by the
    /// prior variance (plus round-off).
    #[test]
    fn variance_bounds((xs, ys) in dataset_strategy(), q in -0.5f64..1.5) {
        let m = model(xs, ys, KernelType::Matern52);
        let (_, var) = m.predict(&[q]);
        prop_assert!(var >= 0.0);
        let prior_var = m.kernel().signal_var();
        // Original-units prior variance: signal_var × y_std².
        let y = m.train_y();
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let y_var = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / y.len() as f64;
        let bound = prior_var * y_var.max(1.0) + 1e-6;
        prop_assert!(var <= bound, "var {var} > bound {bound}");
    }

    /// Adding an observation never increases posterior variance at the
    /// observed location (information monotonicity).
    #[test]
    fn conditioning_shrinks_variance((xs, ys) in dataset_strategy(), q in 0.0f64..1.0) {
        let m = model(xs, ys, KernelType::Rbf);
        let (mu, var_before) = m.predict(&[q]);
        let m2 = m.with_added(&[vec![q]], &[mu]).expect("conditioning");
        let (_, var_after) = m2.predict(&[q]);
        prop_assert!(var_after <= var_before + 1e-9,
            "variance grew: {var_before} -> {var_after}");
    }

    /// Predictions are invariant to permuting the training set.
    #[test]
    fn permutation_invariance((xs, ys) in dataset_strategy(), q in 0.0f64..1.0) {
        let m1 = model(xs.clone(), ys.clone(), KernelType::Matern32);
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.reverse();
        let xs2: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();
        let ys2: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
        let m2 = model(xs2, ys2, KernelType::Matern32);
        let (a, va) = m1.predict(&[q]);
        let (b, vb) = m2.predict(&[q]);
        prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        prop_assert!((va - vb).abs() < 1e-6);
    }

    /// Affine target transforms propagate exactly:
    /// fit(a*y + b) predicts a*fit(y) + b.
    #[test]
    fn affine_equivariance((xs, ys) in dataset_strategy(),
                           a in 0.5f64..3.0, b in -2.0f64..2.0,
                           q in 0.0f64..1.0) {
        let m1 = model(xs.clone(), ys.clone(), KernelType::Rbf);
        let ys2: Vec<f64> = ys.iter().map(|&v| a * v + b).collect();
        let m2 = model(xs, ys2, KernelType::Rbf);
        let (mu1, var1) = m1.predict(&[q]);
        let (mu2, var2) = m2.predict(&[q]);
        prop_assert!((mu2 - (a * mu1 + b)).abs() < 1e-6,
            "{mu2} vs {}", a * mu1 + b);
        prop_assert!((var2 - a * a * var1).abs() < 1e-6 * a * a + 1e-9);
    }

    /// Incremental conditioning (Cholesky extension, frozen
    /// standardization) is equivalent to the from-scratch rebuild:
    /// same predictions, same variances, same marginal likelihood,
    /// to 1e-8, across random datasets, update batches and families.
    #[test]
    fn condition_equals_rebuild((xs, ys) in dataset_strategy(),
                                new_ys in proptest::collection::vec(-1.0f64..1.0, 1..4),
                                q in -0.25f64..1.25) {
        for family in [KernelType::Rbf, KernelType::Matern32, KernelType::Matern52] {
            let m = model(xs.clone(), ys.clone(), family);
            // New inputs interleave with (but do not duplicate) training inputs.
            let new_xs: Vec<Vec<f64>> = (0..new_ys.len())
                .map(|i| vec![(i as f64 + 0.37) / new_ys.len() as f64])
                .collect();
            let fast = m.condition(&new_xs, &new_ys).expect("condition");
            let slow = m.with_added(&new_xs, &new_ys).expect("rebuild");
            let (mf, vf) = fast.predict(&[q]);
            let (ms, vs) = slow.predict(&[q]);
            prop_assert!((mf - ms).abs() < 1e-8, "{family:?}: mean {mf} vs {ms}");
            prop_assert!((vf - vs).abs() < 1e-8, "{family:?}: var {vf} vs {vs}");
            prop_assert!(
                (fast.log_marginal_likelihood() - slow.log_marginal_likelihood()).abs() < 1e-8);
            prop_assert_eq!(fast.observation_noise(), slow.observation_noise());
        }
    }

    /// Conditioning one observation at a time agrees with conditioning
    /// the whole batch at once.
    #[test]
    fn condition_is_batch_associative((xs, ys) in dataset_strategy()) {
        let m = model(xs, ys, KernelType::Matern52);
        let new_xs = vec![vec![0.21], vec![0.77]];
        let new_ys = vec![0.4, -0.6];
        let batch = m.condition(&new_xs, &new_ys).expect("batch");
        let seq = m
            .condition(&new_xs[..1], &new_ys[..1]).expect("step 1")
            .condition(&new_xs[1..], &new_ys[1..]).expect("step 2");
        for q in [0.05f64, 0.5, 0.95] {
            let (mb, vb) = batch.predict(&[q]);
            let (ms, vs) = seq.predict(&[q]);
            prop_assert!((mb - ms).abs() < 1e-8);
            prop_assert!((vb - vs).abs() < 1e-8);
        }
    }

    /// The joint posterior diagonal equals pointwise predictions.
    #[test]
    fn joint_matches_marginals((xs, ys) in dataset_strategy()) {
        let m = model(xs, ys, KernelType::Matern52);
        let queries = vec![vec![0.1], vec![0.5], vec![0.9]];
        let post = m.posterior(&queries).expect("posterior");
        for (j, q) in queries.iter().enumerate() {
            let (mu, var) = m.predict(q);
            prop_assert!((post.mean[j] - mu).abs() < 1e-8);
            prop_assert!((post.cov[(j, j)] - var).abs() < 1e-7);
        }
    }
}
