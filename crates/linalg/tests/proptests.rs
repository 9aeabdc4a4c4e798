//! Property-based tests for the dense linear-algebra kernels.

use eva_linalg::{vecops, Cholesky, Mat};
use proptest::prelude::*;

/// Explicit transposed copy (`Mat::transpose` is test-only inside the
/// crate).
fn transposed(a: &Mat) -> Mat {
    Mat::from_fn(a.cols(), a.rows(), |i, j| a[(j, i)])
}

/// Strategy: a random matrix with entries in [-1, 1].
fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-1.0f64..1.0, rows * cols)
        .prop_map(move |data| Mat::from_vec(rows, cols, data))
}

/// Strategy: an SPD matrix `B B^T + I` of size n.
fn spd_strategy(n: usize) -> impl Strategy<Value = Mat> {
    mat_strategy(n, n).prop_map(move |b| {
        let mut a = b.matmul(&transposed(&b)).unwrap();
        a.add_diag(1.0);
        a.symmetrize();
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cholesky_reconstructs(a in spd_strategy(6)) {
        let ch = Cholesky::decompose_jittered(&a).unwrap();
        let rec = ch.l().matmul(&transposed(ch.l())).unwrap();
        prop_assert!(rec.max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn cholesky_solve_residual_small(a in spd_strategy(5),
                                     b in proptest::collection::vec(-1.0f64..1.0, 5)) {
        let ch = Cholesky::decompose_jittered(&a).unwrap();
        let x = ch.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        prop_assert!(vecops::l1_dist(&ax, &b) < 1e-6);
    }

    #[test]
    fn cholesky_quad_form_nonnegative(a in spd_strategy(4),
                                      b in proptest::collection::vec(-1.0f64..1.0, 4)) {
        let ch = Cholesky::decompose_jittered(&a).unwrap();
        prop_assert!(ch.quad_form(&b).unwrap() >= -1e-12);
    }

    /// Incremental `extend` of a leading-block factor matches a
    /// from-scratch `decompose` of the concatenated matrix: same factor,
    /// same log-determinant, same solves.
    #[test]
    fn cholesky_extend_equals_full_decompose(a in spd_strategy(7),
                                             n_lead in 1usize..7,
                                             b in proptest::collection::vec(-1.0f64..1.0, 7)) {
        let lead = Mat::from_fn(n_lead, n_lead, |i, j| a[(i, j)]);
        let k = a.rows() - n_lead;
        let cross = Mat::from_fn(n_lead, k, |i, j| a[(i, n_lead + j)]);
        let corner = Mat::from_fn(k, k, |i, j| a[(n_lead + i, n_lead + j)]);

        let ext = Cholesky::decompose(&lead).unwrap().extend(&cross, &corner).unwrap();
        let full = Cholesky::decompose(&a).unwrap();

        prop_assert!(ext.l().max_abs_diff(full.l()) < 1e-8,
            "factor mismatch at n_lead={n_lead}");
        prop_assert!((ext.log_det() - full.log_det()).abs() < 1e-8);
        let x_ext = ext.solve(&b).unwrap();
        let x_full = full.solve(&b).unwrap();
        prop_assert!(vecops::l1_dist(&x_ext, &x_full) < 1e-8);
    }

    /// Extending one row at a time agrees with extending all rows at
    /// once (the factor is unique for PD matrices).
    #[test]
    fn cholesky_extend_is_associative(a in spd_strategy(6)) {
        let lead = Mat::from_fn(4, 4, |i, j| a[(i, j)]);
        let cross = Mat::from_fn(4, 2, |i, j| a[(i, 4 + j)]);
        let corner = Mat::from_fn(2, 2, |i, j| a[(4 + i, 4 + j)]);
        let both = Cholesky::decompose(&lead).unwrap().extend(&cross, &corner).unwrap();

        let cross1 = Mat::from_fn(4, 1, |i, _| a[(i, 4)]);
        let corner1 = Mat::from_fn(1, 1, |_, _| a[(4, 4)]);
        let step1 = Cholesky::decompose(&lead).unwrap().extend(&cross1, &corner1).unwrap();
        let cross2 = Mat::from_fn(5, 1, |i, _| a[(i, 5)]);
        let corner2 = Mat::from_fn(1, 1, |_, _| a[(5, 5)]);
        let step2 = step1.extend(&cross2, &corner2).unwrap();

        prop_assert!(step2.l().max_abs_diff(both.l()) < 1e-8);
    }

    #[test]
    fn matmul_associative_with_vector(a in mat_strategy(4, 3),
                                      b in mat_strategy(3, 5),
                                      x in proptest::collection::vec(-1.0f64..1.0, 5)) {
        // (A B) x == A (B x)
        let lhs = a.matmul(&b).unwrap().matvec(&x).unwrap();
        let rhs = a.matvec(&b.matvec(&x).unwrap()).unwrap();
        prop_assert!(vecops::l1_dist(&lhs, &rhs) < 1e-9);
    }

    #[test]
    fn transpose_respects_matvec(a in mat_strategy(4, 6),
                                 x in proptest::collection::vec(-1.0f64..1.0, 4)) {
        let fast = a.matvec_t(&x).unwrap();
        let explicit = transposed(&a).matvec(&x).unwrap();
        prop_assert!(vecops::l1_dist(&fast, &explicit) < 1e-10);
    }

    #[test]
    fn dot_cauchy_schwarz(x in proptest::collection::vec(-10.0f64..10.0, 1..32),
                          y_seed in proptest::collection::vec(-10.0f64..10.0, 32)) {
        let y = &y_seed[..x.len()];
        let d = vecops::dot(&x, y).abs();
        let bound = vecops::norm2(&x) * vecops::norm2(y);
        prop_assert!(d <= bound + 1e-9);
    }
}
