//! Cholesky factorization for symmetric positive-definite matrices.
//!
//! Kernel (Gram) matrices produced by the GP stack are symmetric and in
//! theory positive definite, but near-duplicate inputs push the smallest
//! eigenvalue to round-off scale. [`Cholesky::decompose_jittered`]
//! therefore retries with exponentially increasing diagonal jitter — the
//! standard GP-library trick (GPML §3.4.3, BoTorch does the same).
//!
//! [`Cholesky::extend`] appends rows/columns to an existing factor in
//! O(k·n²) instead of refactoring the whole (n+k)×(n+k) matrix in
//! O(n³): the new off-diagonal block comes from k triangular solves and
//! the new diagonal block from factoring the k×k Schur complement. This
//! is what makes per-observation GP conditioning incremental.

use crate::{solve, LinalgError, Mat, Result};

/// Jitter ladder start (relative to the mean diagonal magnitude).
const JITTER_START: f64 = 1e-10;
/// Maximum number of 10x jitter escalations before giving up.
const JITTER_TRIES: usize = 8;

/// Lower-triangular Cholesky factor `L` with `A = L L^T`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Mat,
    /// Jitter that was actually added to the diagonal (0.0 if none).
    jitter: f64,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix without jitter.
    pub fn decompose(a: &Mat) -> Result<Self> {
        Self::decompose_inner(a, 0.0)
    }

    /// Factor with automatic jitter escalation. `a` must be symmetric;
    /// the decomposition retries with `jitter * 10^k` added to the
    /// diagonal until it succeeds or `JITTER_TRIES` is exhausted.
    pub fn decompose_jittered(a: &Mat) -> Result<Self> {
        match Self::decompose_inner(a, 0.0) {
            Ok(c) => return Ok(c),
            Err(LinalgError::NotPositiveDefinite { .. }) => {}
            Err(e) => return Err(e),
        }
        // Scale the ladder by the mean diagonal so jitter is meaningful
        // for both tiny and huge kernel amplitudes. The floor is machine
        // epsilon, not 1.0: a kernel with mean diagonal 1e-6 must start
        // its ladder at 1e-16, not at 1e-10 (100x the signal).
        let n = a.rows();
        let mean_diag = (0..n).map(|i| a[(i, i)].abs()).sum::<f64>() / n.max(1) as f64;
        let base = JITTER_START * mean_diag.max(f64::EPSILON);
        let mut jitter = base;
        let mut last_err = LinalgError::NotPositiveDefinite {
            pivot: 0,
            value: 0.0,
        };
        for _ in 0..JITTER_TRIES {
            match Self::decompose_inner(a, jitter) {
                Ok(c) => return Ok(c),
                Err(e @ LinalgError::NotPositiveDefinite { .. }) => last_err = e,
                Err(e) => return Err(e),
            }
            jitter *= 10.0;
        }
        Err(last_err)
    }

    fn decompose_inner(a: &Mat, jitter: f64) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                // sum_{k<j} L[i,k] * L[j,k]
                let s = crate::vecops::dot(&l.row(i)[..j], &l.row(j)[..j]);
                if i == j {
                    let d = a[(i, i)] + jitter - s;
                    if d <= 0.0 || !d.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i, value: d });
                    }
                    l[(i, j)] = d.sqrt();
                } else {
                    l[(i, j)] = (a[(i, j)] - s) / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l, jitter })
    }

    /// Extend the factor of an n×n matrix `A` to the factor of the
    /// (n+k)×(n+k) matrix `[[A, B], [Bᵀ, C]]` without refactoring `A`.
    ///
    /// `cross` is the n×k block `B` and `corner` the k×k block `C`. The
    /// new rows cost k triangular solves (O(k·n²)) plus a k×k Schur
    /// factorization, versus O((n+k)³) for a from-scratch decompose.
    ///
    /// Any jitter baked into this factor is added to the new diagonal
    /// block too, so the extended factor represents the same uniformly
    /// jittered matrix. If the Schur complement itself is not positive
    /// definite, the standard jitter ladder runs on the *new* block only
    /// (the already-factored block is untouched); `jitter()` then
    /// reports the largest jitter in effect on any diagonal entry.
    pub fn extend(&self, cross: &Mat, corner: &Mat) -> Result<Self> {
        let n = self.dim();
        let k = corner.rows();
        if !corner.is_square() {
            return Err(LinalgError::NotSquare {
                rows: corner.rows(),
                cols: corner.cols(),
            });
        }
        if cross.rows() != n || cross.cols() != k {
            return Err(LinalgError::DimMismatch {
                op: "cholesky extend",
                left: (n, k),
                right: (cross.rows(), cross.cols()),
            });
        }
        // L21ᵀ solves L·Y = B column by column; row j of L21 is yⱼ.
        let mut l21 = Mat::zeros(k, n);
        for j in 0..k {
            let y = solve::forward_substitution(&self.l, &cross.col(j))?;
            l21.row_mut(j).copy_from_slice(&y);
        }
        // Schur complement S = C + jitter·I − L21·L21ᵀ.
        let mut s = Mat::zeros(k, k);
        for i in 0..k {
            for j in 0..=i {
                let v = corner[(i, j)] - crate::vecops::dot(l21.row(i), l21.row(j));
                s[(i, j)] = v;
                s[(j, i)] = v;
            }
            s[(i, i)] += self.jitter;
        }
        let s_ch = Self::decompose_jittered(&s)?;
        let mut l = Mat::zeros(n + k, n + k);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&self.l.row(i)[..=i]);
        }
        for i in 0..k {
            l.row_mut(n + i)[..n].copy_from_slice(l21.row(i));
            l.row_mut(n + i)[n..n + i + 1].copy_from_slice(&s_ch.l.row(i)[..=i]);
        }
        Ok(Cholesky {
            l,
            jitter: self.jitter.max(s_ch.jitter),
        })
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Mat {
        &self.l
    }

    /// The jitter added to the diagonal during factorization.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Dimension of the factored matrix.
    pub(crate) fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solve `A x = b` via the two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = solve::forward_substitution(&self.l, b)?;
        solve::backward_substitution_transposed(&self.l, &y)
    }

    /// Solve `A X = B` column by column.
    pub fn solve_mat(&self, b: &Mat) -> Result<Mat> {
        if b.rows() != self.dim() {
            return Err(LinalgError::DimMismatch {
                op: "cholesky solve_mat",
                left: (self.dim(), self.dim()),
                right: (b.rows(), b.cols()),
            });
        }
        let mut out = Mat::zeros(b.rows(), b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve(&col)?;
            for (i, v) in x.into_iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        Ok(out)
    }

    /// `log det A = 2 * sum_i log L[i,i]`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// The inverse `A^{-1}` (avoid when a solve suffices; needed by the
    /// Laplace-approximation posterior covariance).
    pub fn inverse(&self) -> Result<Mat> {
        self.solve_mat(&Mat::identity(self.dim()))
    }

    /// Quadratic form `b^T A^{-1} b` — the data-fit term of a GP
    /// log-marginal-likelihood.
    pub fn quad_form(&self, b: &[f64]) -> Result<f64> {
        // b^T A^-1 b = ||L^-1 b||^2
        let y = solve::forward_substitution(&self.l, b)?;
        Ok(crate::vecops::dot(&y, &y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_3x3() -> Mat {
        // A = B B^T + I for B random-ish is SPD; use a fixed known one.
        Mat::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.2], &[0.6, 1.2, 3.0]])
    }

    #[test]
    fn reconstructs_a() {
        let a = spd_3x3();
        let ch = Cholesky::decompose(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(rec.max_abs_diff(&a) < 1e-12);
        assert_eq!(ch.jitter(), 0.0);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd_3x3();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = Cholesky::decompose(&a).unwrap().solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn log_det_matches_known_value() {
        let a = Mat::from_diag(&[2.0, 3.0, 4.0]);
        let ch = Cholesky::decompose(&a).unwrap();
        assert!((ch.log_det() - (24.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn quad_form_matches_solve() {
        let a = spd_3x3();
        let b = [1.0, 2.0, 3.0];
        let ch = Cholesky::decompose(&a).unwrap();
        let x = ch.solve(&b).unwrap();
        let direct = crate::vecops::dot(&b, &x);
        assert!((ch.quad_form(&b).unwrap() - direct).abs() < 1e-10);
    }

    #[test]
    fn rejects_non_spd_without_jitter() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn jitter_rescues_near_singular() {
        // Rank-1 matrix: strictly singular, jitter makes it factorizable.
        let a = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let ch = Cholesky::decompose_jittered(&a).unwrap();
        assert!(ch.jitter() > 0.0);
        let rec = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(rec.max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn jitter_scale_tracks_tiny_amplitudes() {
        // Near-singular with mean diagonal 1e-6: the ladder must start
        // proportional to the amplitude (1e-16), not floored at 1e-10
        // which would be 100x the signal itself.
        let a = Mat::from_rows(&[&[1e-6, 1e-6], &[1e-6, 1e-6]]);
        let ch = Cholesky::decompose_jittered(&a).unwrap();
        assert!(ch.jitter() > 0.0);
        assert!(
            ch.jitter() < 1e-9 * 1e-6,
            "jitter {} is not small relative to the 1e-6 amplitude",
            ch.jitter()
        );
        let rec = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(rec.max_abs_diff(&a) < 1e-12);
    }

    fn spd_5x5() -> Mat {
        let b = Mat::from_fn(5, 5, |i, j| ((i * 7 + j * 3) as f64 * 0.37).sin());
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diag(1.0);
        a.symmetrize();
        a
    }

    /// Split an SPD matrix into leading block + cross + corner.
    fn split(a: &Mat, n: usize) -> (Mat, Mat, Mat) {
        let k = a.rows() - n;
        let lead = Mat::from_fn(n, n, |i, j| a[(i, j)]);
        let cross = Mat::from_fn(n, k, |i, j| a[(i, n + j)]);
        let corner = Mat::from_fn(k, k, |i, j| a[(n + i, n + j)]);
        (lead, cross, corner)
    }

    #[test]
    fn extend_matches_full_decompose() {
        let a = spd_5x5();
        for n in [1usize, 3, 4] {
            let (lead, cross, corner) = split(&a, n);
            let base = Cholesky::decompose(&lead).unwrap();
            let ext = base.extend(&cross, &corner).unwrap();
            let full = Cholesky::decompose(&a).unwrap();
            assert!(
                ext.l().max_abs_diff(full.l()) < 1e-10,
                "n={n}: factor mismatch"
            );
            assert!((ext.log_det() - full.log_det()).abs() < 1e-10);
            assert_eq!(ext.jitter(), 0.0);
        }
    }

    #[test]
    fn extend_solve_matches_full_solve() {
        let a = spd_5x5();
        let (lead, cross, corner) = split(&a, 2);
        let ext = Cholesky::decompose(&lead)
            .unwrap()
            .extend(&cross, &corner)
            .unwrap();
        let b = [0.3, -1.0, 2.0, 0.7, -0.2];
        let x_ext = ext.solve(&b).unwrap();
        let x_full = Cholesky::decompose(&a).unwrap().solve(&b).unwrap();
        for (u, v) in x_ext.iter().zip(&x_full) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn extend_propagates_existing_jitter_to_new_block() {
        // Base factor needed jitter; the extended factor must represent
        // the concatenated matrix with that same jitter on every
        // diagonal entry, old and new alike.
        let lead = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let base = Cholesky::decompose_jittered(&lead).unwrap();
        let j = base.jitter();
        assert!(j > 0.0);
        // Cross block aligned with the range of the singular lead block
        // (equal entries) — the jittered concatenated matrix stays PD.
        let cross = Mat::from_rows(&[&[0.1], &[0.1]]);
        let corner = Mat::from_rows(&[&[2.0]]);
        let ext = base.extend(&cross, &corner).unwrap();
        let mut want = Mat::from_rows(&[&[1.0, 1.0, 0.1], &[1.0, 1.0, 0.1], &[0.1, 0.1, 2.0]]);
        want.add_diag(j);
        let rec = ext.l().matmul(&ext.l().transpose()).unwrap();
        assert!(rec.max_abs_diff(&want) < 1e-10);
        assert_eq!(ext.jitter(), j);
    }

    #[test]
    fn extend_jitters_degenerate_new_rows() {
        // Appending a duplicate of an existing row makes the Schur
        // complement singular; the ladder must rescue the new block.
        let a = spd_3x3();
        let base = Cholesky::decompose(&a).unwrap();
        let cross = Mat::from_fn(3, 1, |i, _| a[(i, 0)]);
        let corner = Mat::from_rows(&[&[a[(0, 0)]]]);
        let ext = base.extend(&cross, &corner).unwrap();
        assert!(ext.jitter() > 0.0);
        assert_eq!(ext.dim(), 4);
        // The factor still solves the (jittered) concatenated system.
        let full = Mat::from_fn(4, 4, |i, j| {
            let ii = if i == 3 { 0 } else { i };
            let jj = if j == 3 { 0 } else { j };
            a[(ii, jj)]
        });
        let rec = ext.l().matmul(&ext.l().transpose()).unwrap();
        assert!(rec.max_abs_diff(&full) < 1e-6);
    }

    #[test]
    fn extend_rejects_bad_shapes() {
        let base = Cholesky::decompose(&spd_3x3()).unwrap();
        let bad_cross = Mat::zeros(2, 1);
        assert!(matches!(
            base.extend(&bad_cross, &Mat::identity(1)),
            Err(LinalgError::DimMismatch { .. })
        ));
        assert!(matches!(
            base.extend(&Mat::zeros(3, 2), &Mat::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn jitter_cannot_rescue_indefinite() {
        let a = Mat::from_rows(&[&[1.0, 0.0], &[0.0, -100.0]]);
        assert!(Cholesky::decompose_jittered(&a).is_err());
    }

    #[test]
    fn inverse_times_a_is_identity() {
        let a = spd_3x3();
        let inv = Cholesky::decompose(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Mat::identity(3)) < 1e-10);
    }

    #[test]
    fn solve_mat_multi_rhs() {
        let a = spd_3x3();
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let x = Cholesky::decompose(&a).unwrap().solve_mat(&b).unwrap();
        let rec = a.matmul(&x).unwrap();
        assert!(rec.max_abs_diff(&b) < 1e-10);
    }

    #[test]
    fn non_square_errors() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }
}
