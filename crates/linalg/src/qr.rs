//! Householder QR factorization and least-squares solving.
//!
//! The paper's related work ("existing EVA schedulers ... begin by
//! modeling the correlation ... using polynomial regression techniques",
//! Sec. 1) needs a numerically sound least-squares solver; QR via
//! Householder reflections is the standard choice — unlike the normal
//! equations it does not square the condition number.

use crate::{LinalgError, Mat, Result};

/// Compact QR factorization of a tall matrix (`rows >= cols`):
/// Householder vectors stored in the lower trapezoid, `R` in the upper
/// triangle.
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factors (Householder vectors below the diagonal, R above).
    qr: Mat,
    /// Householder scalar coefficients `tau_k = 2 / (v_k^T v_k)` folded
    /// into normalized vectors (first element 1).
    betas: Vec<f64>,
}

impl Qr {
    /// Factor `a` (must satisfy `rows >= cols`).
    pub fn decompose(a: &Mat) -> Result<Self> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            return Err(LinalgError::DimMismatch {
                op: "qr (rows < cols)",
                left: (m, n),
                right: (n, n),
            });
        }
        let mut qr = a.clone();
        let mut betas = Vec::with_capacity(n);
        for k in 0..n {
            // Householder vector for column k, rows k..m.
            let mut norm2 = 0.0;
            for i in k..m {
                norm2 += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm2.sqrt();
            if norm == 0.0 {
                betas.push(0.0); // zero column: identity reflector
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // v = [v0, a_{k+1,k}, ..., a_{m-1,k}], normalize by v0 so the
            // stored vector has implicit leading 1.
            let mut vtv = v0 * v0;
            for i in (k + 1)..m {
                vtv += qr[(i, k)] * qr[(i, k)];
            }
            if vtv == 0.0 {
                betas.push(0.0);
                continue;
            }
            let beta = 2.0 * v0 * v0 / vtv;
            // Store normalized tail v_i / v0 below the diagonal.
            for i in (k + 1)..m {
                let scaled = qr[(i, k)] / v0;
                qr[(i, k)] = scaled;
            }
            qr[(k, k)] = alpha;
            betas.push(beta);
            // Apply the reflector to the remaining columns.
            for j in (k + 1)..n {
                // w = v^T a_j (with implicit v_k = 1)
                let mut w = qr[(k, j)];
                for i in (k + 1)..m {
                    w += qr[(i, k)] * qr[(i, j)];
                }
                w *= beta;
                qr[(k, j)] -= w;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= w * vik;
                }
            }
        }
        Ok(Qr { qr, betas })
    }

    /// Solve the least-squares problem `min ||A x − b||₂`.
    // Index loops mirror the textbook reflector/back-substitution forms.
    #[allow(clippy::needless_range_loop)]
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = (self.qr.rows(), self.qr.cols());
        if b.len() != m {
            return Err(LinalgError::DimMismatch {
                op: "qr solve",
                left: (m, n),
                right: (b.len(), 1),
            });
        }
        // y = Q^T b via successive reflector applications.
        let mut y = b.to_vec();
        for k in 0..n {
            let beta = self.betas[k];
            if beta == 0.0 {
                continue;
            }
            let mut w = y[k];
            for i in (k + 1)..m {
                w += self.qr[(i, k)] * y[i];
            }
            w *= beta;
            y[k] -= w;
            for i in (k + 1)..m {
                y[i] -= w * self.qr[(i, k)];
            }
        }
        // Back-substitute R x = y[..n]. Diagonal entries tiny relative
        // to the largest one indicate (numerical) rank deficiency.
        let max_diag = (0..n).map(|i| self.qr[(i, i)].abs()).fold(0.0f64, f64::max);
        let tol = 1e-12 * max_diag.max(1e-300);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.qr[(i, j)] * x[j];
            }
            let d = self.qr[(i, i)];
            if d.abs() < tol {
                return Err(LinalgError::Singular { pivot: i });
            }
            x[i] = s / d;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn solves_square_system_exactly() {
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x_true = vec![1.0, -2.0];
        let b = a.matvec(&x_true).unwrap();
        let x = Qr::decompose(&a).unwrap().solve_least_squares(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let mut rng = eva_stats::rng::seeded(1);
        let (m, n) = (30, 4);
        let a = Mat::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
        let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x = Qr::decompose(&a).unwrap().solve_least_squares(&b).unwrap();
        // Normal equations via Cholesky: (A^T A) x = A^T b.
        let ata = a.gram();
        let atb = a.matvec_t(&b).unwrap();
        let x_ne = crate::Cholesky::decompose_jittered(&ata)
            .unwrap()
            .solve(&atb)
            .unwrap();
        for (qi, ni) in x.iter().zip(&x_ne) {
            assert!((qi - ni).abs() < 1e-8, "{qi} vs {ni}");
        }
    }

    #[test]
    fn residual_is_orthogonal_to_columns() {
        let mut rng = eva_stats::rng::seeded(2);
        let (m, n) = (20, 3);
        let a = Mat::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
        let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x = Qr::decompose(&a).unwrap().solve_least_squares(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let r: Vec<f64> = b.iter().zip(&ax).map(|(&bi, &axi)| bi - axi).collect();
        // A^T r = 0 at the least-squares optimum.
        let atr = a.matvec_t(&r).unwrap();
        for v in atr {
            assert!(v.abs() < 1e-10, "non-orthogonal residual: {v}");
        }
    }

    #[test]
    fn exact_fit_when_b_in_range() {
        let a = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let x_true = vec![2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = Qr::decompose(&a).unwrap().solve_least_squares(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn wide_matrix_rejected() {
        let a = Mat::zeros(2, 3);
        assert!(Qr::decompose(&a).is_err());
    }

    #[test]
    fn rank_deficient_reports_singular() {
        // Two identical columns.
        let a = Mat::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let qr = Qr::decompose(&a).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0, 2.0, 3.0]),
            Err(LinalgError::Singular { .. })
        ));
    }
}
