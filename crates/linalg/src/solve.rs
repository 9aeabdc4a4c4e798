//! Triangular solves used by the Cholesky factorization.

use crate::{LinalgError, Mat, Result};

/// Solve `L y = b` with `L` lower triangular (entries above the diagonal
/// are ignored).
pub(crate) fn forward_substitution(l: &Mat, b: &[f64]) -> Result<Vec<f64>> {
    check_square_rhs(l, b, "forward_substitution")?;
    let n = l.rows();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let s = crate::vecops::dot(&l.row(i)[..i], &y[..i]);
        let d = l[(i, i)];
        if d == 0.0 {
            return Err(LinalgError::Singular { pivot: i });
        }
        y[i] = (b[i] - s) / d;
    }
    Ok(y)
}

/// Solve `U x = b` with `U` upper triangular (entries below the diagonal
/// are ignored).
#[cfg(test)]
pub(crate) fn backward_substitution(u: &Mat, b: &[f64]) -> Result<Vec<f64>> {
    check_square_rhs(u, b, "backward_substitution")?;
    let n = u.rows();
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let s = crate::vecops::dot(&u.row(i)[i + 1..], &x[i + 1..]);
        let d = u[(i, i)];
        if d == 0.0 {
            return Err(LinalgError::Singular { pivot: i });
        }
        x[i] = (b[i] - s) / d;
    }
    Ok(x)
}

/// Solve `L^T x = b` given the *lower* factor `L`, without materializing
/// the transpose. This is the second half of a Cholesky solve.
pub(crate) fn backward_substitution_transposed(l: &Mat, b: &[f64]) -> Result<Vec<f64>> {
    check_square_rhs(l, b, "backward_substitution_transposed")?;
    let n = l.rows();
    let mut x = b.to_vec();
    for i in (0..n).rev() {
        let d = l[(i, i)];
        if d == 0.0 {
            return Err(LinalgError::Singular { pivot: i });
        }
        x[i] /= d;
        let xi = x[i];
        // Column i of L below the diagonal eliminates into earlier rows of x.
        for j in 0..i {
            x[j] -= l[(i, j)] * xi;
        }
    }
    Ok(x)
}

fn check_square_rhs(m: &Mat, b: &[f64], op: &'static str) -> Result<()> {
    if !m.is_square() {
        return Err(LinalgError::NotSquare {
            rows: m.rows(),
            cols: m.cols(),
        });
    }
    if b.len() != m.rows() {
        return Err(LinalgError::DimMismatch {
            op,
            left: (m.rows(), m.cols()),
            right: (b.len(), 1),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_solves_lower_system() {
        let l = Mat::from_rows(&[&[2.0, 0.0], &[1.0, 3.0]]);
        let y = forward_substitution(&l, &[4.0, 11.0]).unwrap();
        assert_eq!(y, vec![2.0, 3.0]);
    }

    #[test]
    fn backward_solves_upper_system() {
        let u = Mat::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]);
        let x = backward_substitution(&u, &[7.0, 9.0]).unwrap();
        assert_eq!(x, vec![2.0, 3.0]);
    }

    #[test]
    fn transposed_backward_matches_explicit_transpose() {
        let l = Mat::from_rows(&[&[2.0, 0.0, 0.0], &[1.0, 3.0, 0.0], &[0.5, -1.0, 1.5]]);
        let b = [1.0, 2.0, 3.0];
        let via_fast = backward_substitution_transposed(&l, &b).unwrap();
        let via_explicit = backward_substitution(&l.transpose(), &b).unwrap();
        for (a, c) in via_fast.iter().zip(&via_explicit) {
            assert!((a - c).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_pivot_is_singular() {
        let l = Mat::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
        assert!(matches!(
            forward_substitution(&l, &[1.0, 1.0]),
            Err(LinalgError::Singular { pivot: 0 })
        ));
    }

    #[test]
    fn rhs_length_checked() {
        let l = Mat::identity(3);
        assert!(forward_substitution(&l, &[1.0]).is_err());
        assert!(backward_substitution(&l, &[1.0]).is_err());
        assert!(backward_substitution_transposed(&l, &[1.0]).is_err());
    }
}
