//! LU factorization with partial pivoting, for general square systems.
//!
//! The GP stack is Cholesky-only, but the Laplace-approximation inner
//! loop and a few test oracles need a general solver that tolerates
//! non-symmetric matrices.

use crate::{LinalgError, Mat, Result};

/// Pivot magnitudes below this are treated as exactly singular.
const PIVOT_EPS: f64 = 1e-300;

/// Combined LU factors (`L` unit-lower + `U` upper, packed in one matrix)
/// with a row-permutation vector.
#[derive(Debug, Clone)]
pub struct Lu {
    lu: Mat,
    perm: Vec<usize>,
    /// +1.0 or -1.0 depending on permutation parity (for determinants).
    sign: f64,
}

impl Lu {
    /// Factor a square matrix. Returns an error for singular input.
    pub fn decompose(a: &Mat) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            // Partial pivot: largest magnitude in column k at/below row k.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    p = i;
                    pmax = v;
                }
            }
            if pmax < PIVOT_EPS || !pmax.is_finite() {
                return Err(LinalgError::Singular { pivot: k });
            }
            if p != k {
                perm.swap(p, k);
                sign = -sign;
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        let ukj = lu[(k, j)];
                        lu[(i, j)] -= factor * ukj;
                    }
                }
            }
        }
        Ok(Lu { lu, perm, sign })
    }

    /// Dimension of the factored matrix.
    pub(crate) fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solve `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimMismatch {
                op: "lu solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Apply permutation, then unit-lower forward solve.
        let mut y: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 0..n {
            let s = crate::vecops::dot(&self.lu.row(i)[..i], &y[..i]);
            y[i] -= s; // unit diagonal: no division
        }
        // Upper backward solve.
        for i in (0..n).rev() {
            let s = crate::vecops::dot(&self.lu.row(i)[i + 1..], &y[i + 1..]);
            let d = self.lu[(i, i)];
            if d == 0.0 {
                return Err(LinalgError::Singular { pivot: i });
            }
            y[i] = (y[i] - s) / d;
        }
        Ok(y)
    }

    /// Solve `A X = B` column by column.
    #[cfg(test)]
    pub(crate) fn solve_mat(&self, b: &Mat) -> Result<Mat> {
        if b.rows() != self.dim() {
            return Err(LinalgError::DimMismatch {
                op: "lu solve_mat",
                left: (self.dim(), self.dim()),
                right: (b.rows(), b.cols()),
            });
        }
        let mut out = Mat::zeros(b.rows(), b.cols());
        for j in 0..b.cols() {
            let x = self.solve(&b.col(j))?;
            for (i, v) in x.into_iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        Ok(out)
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        let prod: f64 = (0..self.dim()).map(|i| self.lu[(i, i)]).product();
        self.sign * prod
    }

    /// Inverse matrix. Prefer [`Lu::solve`] when you only need `A^{-1}b`.
    #[cfg(test)]
    pub(crate) fn inverse(&self) -> Result<Mat> {
        self.solve_mat(&Mat::identity(self.dim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_general_system() {
        let a = Mat::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, -2.0, -3.0], &[-1.0, 1.0, 2.0]]);
        let x_true = vec![1.0, 2.0, -1.0];
        let b = a.matvec(&x_true).unwrap();
        let x = Lu::decompose(&a).unwrap().solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn det_known_values() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!((Lu::decompose(&a).unwrap().det() - (-2.0)).abs() < 1e-12);
        let i = Mat::identity(4);
        assert!((Lu::decompose(&i).unwrap().det() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn det_sign_tracks_permutation() {
        // Row-swapped identity has determinant -1.
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((Lu::decompose(&a).unwrap().det() + 1.0).abs() < 1e-15);
    }

    #[test]
    fn singular_rejected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            Lu::decompose(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Mat::from_rows(&[&[3.0, 1.0, 0.0], &[1.0, 4.0, 1.0], &[0.0, 1.0, 5.0]]);
        let inv = Lu::decompose(&a).unwrap().inverse().unwrap();
        assert!(a.matmul(&inv).unwrap().max_abs_diff(&Mat::identity(3)) < 1e-12);
    }

    #[test]
    fn non_square_rejected() {
        assert!(Lu::decompose(&Mat::zeros(2, 3)).is_err());
    }
}
