//! Polynomial-regression outcome models — the *traditional* approach.
//!
//! Sec. 1: "existing EVA schedulers typically begin by modeling the
//! correlation between various QoS and resource usage metrics, and
//! scheduling variables using polynomial regression techniques". This
//! module implements that approach (multivariate polynomial features +
//! ridge-stabilized least squares via Householder QR) so the GP outcome
//! models can be ablated against it — Eq. 2-5's θ/ε forms are linear or
//! quadratic, so degree-2 polynomials are the paper-faithful contender.

use eva_linalg::{Mat, Qr};

use crate::{GpError, Result};

/// A fitted multivariate polynomial regression model.
#[derive(Debug, Clone)]
pub struct PolyModel {
    degree: usize,
    dim: usize,
    /// Coefficients, one per monomial (see [`monomials`] for ordering).
    coeffs: Vec<f64>,
}

impl PolyModel {
    /// Fit a total-degree-`degree` polynomial to `(x, y)` by least
    /// squares. A tiny ridge term keeps near-collinear feature columns
    /// (e.g. grid-sampled inputs) solvable.
    pub fn fit(x: &[Vec<f64>], y: &[f64], degree: usize) -> Result<Self> {
        if x.is_empty() || x.len() != y.len() {
            return Err(GpError::BadData("polyfit: empty or mismatched data".into()));
        }
        let dim = x[0].len();
        if x.iter().any(|p| p.len() != dim) {
            return Err(GpError::BadData("polyfit: ragged inputs".into()));
        }
        let monos = monomials(dim, degree);
        let n_features = monos.len();
        if x.len() < n_features {
            return Err(GpError::BadData(format!(
                "polyfit: {} samples < {} monomials",
                x.len(),
                n_features
            )));
        }
        // Design matrix with ridge augmentation: stack sqrt(λ) I rows.
        let lambda: f64 = 1e-8;
        let rows = x.len() + n_features;
        let mut design = Mat::zeros(rows, n_features);
        for (i, p) in x.iter().enumerate() {
            for (j, mono) in monos.iter().enumerate() {
                design[(i, j)] = eval_monomial(mono, p);
            }
        }
        for j in 0..n_features {
            design[(x.len() + j, j)] = lambda.sqrt();
        }
        let mut rhs = y.to_vec();
        rhs.extend(std::iter::repeat_n(0.0, n_features));

        let qr = Qr::decompose(&design).map_err(GpError::Linalg)?;
        let coeffs = qr.solve_least_squares(&rhs).map_err(GpError::Linalg)?;
        Ok(PolyModel {
            degree,
            dim,
            coeffs,
        })
    }

    /// Predict at a point.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dim, "PolyModel::predict: dim mismatch");
        monomials(self.dim, self.degree)
            .iter()
            .zip(&self.coeffs)
            .map(|(mono, &c)| c * eval_monomial(mono, x))
            .sum()
    }
}

/// Exponent vectors of all monomials of total degree ≤ `degree` in
/// `dim` variables, in graded lexicographic order starting with the
/// constant term.
pub(crate) fn monomials(dim: usize, degree: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for d in 0..=degree {
        push_degree(dim, d, &mut Vec::new(), &mut out);
    }
    out
}

fn push_degree(dim: usize, remaining: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if prefix.len() == dim {
        if remaining == 0 {
            out.push(prefix.clone());
        }
        return;
    }
    if prefix.len() == dim - 1 {
        prefix.push(remaining);
        out.push(prefix.clone());
        prefix.pop();
        return;
    }
    for e in 0..=remaining {
        prefix.push(e);
        push_degree(dim, remaining - e, prefix, out);
        prefix.pop();
    }
}

fn eval_monomial(exponents: &[usize], x: &[f64]) -> f64 {
    exponents
        .iter()
        .zip(x)
        .map(|(&e, &xi)| xi.powi(e as i32))
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monomial_counts_match_binomial() {
        // #monomials of total degree <= d in k vars = C(k + d, d).
        assert_eq!(monomials(1, 2).len(), 3); // 1, x, x²
        assert_eq!(monomials(2, 2).len(), 6); // 1, x, y, x², xy, y²
        assert_eq!(monomials(3, 2).len(), 10);
        assert_eq!(monomials(2, 3).len(), 10);
        // Constant term first.
        assert_eq!(monomials(2, 2)[0], vec![0, 0]);
    }

    #[test]
    fn recovers_exact_quadratic() {
        // y = 3 + 2x - x² + 4xy on a grid.
        let f = |p: &[f64]| 3.0 + 2.0 * p[0] - p[0] * p[0] + 4.0 * p[0] * p[1];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                let p = vec![i as f64 / 5.0, j as f64 / 5.0];
                y.push(f(&p));
                x.push(p);
            }
        }
        let model = PolyModel::fit(&x, &y, 2).unwrap();
        for p in [[0.15, 0.85], [0.5, 0.5], [0.95, 0.05]] {
            assert!((model.predict(&p) - f(&p)).abs() < 1e-5);
        }
    }

    #[test]
    fn degree_one_is_linear_regression() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|p| 2.0 * p[0] + 1.0).collect();
        let model = PolyModel::fit(&x, &y, 1).unwrap();
        assert!((model.predict(&[20.0]) - 41.0).abs() < 1e-6);
    }

    #[test]
    fn underfits_nonpolynomial_targets() {
        // exp(3x) on [0,1]: a quadratic cannot be exact.
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 29.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (3.0 * p[0]).exp()).collect();
        let model = PolyModel::fit(&x, &y, 2).unwrap();
        let worst = x
            .iter()
            .zip(&y)
            .map(|(p, &t)| (model.predict(p) - t).abs())
            .fold(0.0f64, f64::max);
        assert!(worst > 0.1, "quadratic unexpectedly fit exp: {worst}");
    }

    #[test]
    fn rejects_insufficient_samples() {
        let x = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let y = vec![0.0, 1.0];
        // Degree-2 in 2 vars needs >= 6 samples.
        assert!(PolyModel::fit(&x, &y, 2).is_err());
    }

    #[test]
    fn rejects_ragged_input() {
        let x = vec![vec![0.0], vec![1.0, 2.0]];
        assert!(PolyModel::fit(&x, &[0.0, 1.0], 1).is_err());
    }
}
