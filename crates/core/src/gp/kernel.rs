//! Stationary covariance functions with ARD lengthscales.

use eva_linalg::Mat;

/// Supported stationary kernel families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelType {
    /// Squared-exponential (infinitely smooth).
    Rbf,
    /// Matérn ν = 3/2 (once differentiable).
    Matern32,
    /// Matérn ν = 5/2 (twice differentiable; BoTorch's default, and
    /// therefore the default in this reproduction).
    Matern52,
}

/// A kernel: family + ARD lengthscales + signal variance.
///
/// `k(x, x') = signal_var * base(r)` where
/// `r² = Σ_d ((x_d - x'_d) / lengthscale_d)²`.
#[derive(Debug, Clone)]
pub struct Kernel {
    family: KernelType,
    lengthscales: Vec<f64>,
    signal_var: f64,
}

impl Kernel {
    /// Construct a kernel. Panics on non-positive hyperparameters.
    pub(crate) fn new(family: KernelType, lengthscales: Vec<f64>, signal_var: f64) -> Self {
        assert!(
            lengthscales.iter().all(|&l| l > 0.0),
            "Kernel: lengthscales must be positive, got {lengthscales:?}"
        );
        assert!(signal_var > 0.0, "Kernel: signal_var must be positive");
        Kernel {
            family,
            lengthscales,
            signal_var,
        }
    }

    /// Isotropic convenience constructor.
    pub fn isotropic(family: KernelType, dim: usize, lengthscale: f64, signal_var: f64) -> Self {
        Kernel::new(family, vec![lengthscale; dim], signal_var)
    }

    /// ARD lengthscales.
    pub(crate) fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    /// Signal variance (the `k(x,x)` value).
    pub fn signal_var(&self) -> f64 {
        self.signal_var
    }

    /// Input dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.lengthscales.len()
    }

    /// Scaled squared distance `Σ_d ((x_d - y_d)/l_d)²`.
    #[inline]
    fn scaled_sq_dist(&self, x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.lengthscales.len());
        debug_assert_eq!(y.len(), self.lengthscales.len());
        let mut acc = 0.0;
        for ((xd, yd), l) in x.iter().zip(y).zip(&self.lengthscales) {
            let d = (xd - yd) / l;
            acc += d * d;
        }
        acc
    }

    /// Evaluate `k(x, y)`.
    pub(crate) fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        let r2 = self.scaled_sq_dist(x, y);
        self.signal_var * base_correlation(self.family, r2)
    }

    /// Symmetric kernel matrix `K(X, X)` (without noise on the diagonal).
    ///
    /// Fills one triangle and mirrors it: [`Kernel::eval`] is bitwise
    /// symmetric, since `(x − y)/l` and `(y − x)/l` differ only in sign.
    pub(crate) fn matrix(&self, xs: &[Vec<f64>]) -> Mat {
        let n = xs.len();
        let mut k = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = self.eval(&xs[i], &xs[j]);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        k
    }

    /// Cross-kernel matrix `K(A, B)` of shape `|A| x |B|`.
    pub(crate) fn cross_matrix(&self, a: &[Vec<f64>], b: &[Vec<f64>]) -> Mat {
        let (m, n) = (a.len(), b.len());
        let mut k = Mat::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                k[(i, j)] = self.eval(&a[i], &b[j]);
            }
        }
        k
    }
}

/// The base correlation function `base(r²)` with `base(0) = 1`.
#[inline]
pub(crate) fn base_correlation(family: KernelType, r2: f64) -> f64 {
    match family {
        KernelType::Rbf => (-0.5 * r2).exp(),
        KernelType::Matern32 => {
            let r = r2.sqrt();
            let a = 3.0f64.sqrt() * r;
            (1.0 + a) * (-a).exp()
        }
        KernelType::Matern52 => {
            let r = r2.sqrt();
            let a = 5.0f64.sqrt() * r;
            (1.0 + a + a * a / 3.0) * (-a).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_families() -> [KernelType; 3] {
        [KernelType::Rbf, KernelType::Matern32, KernelType::Matern52]
    }

    #[test]
    fn diagonal_equals_signal_variance() {
        for fam in all_families() {
            let k = Kernel::isotropic(fam, 3, 0.7, 2.5);
            assert!((k.eval(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]) - 2.5).abs() < 1e-14);
        }
    }

    #[test]
    fn symmetry_and_positivity() {
        for fam in all_families() {
            let k = Kernel::new(fam, vec![0.5, 2.0], 1.0);
            let a = [0.1, 0.9];
            let b = [1.3, -0.4];
            assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
            assert!(k.eval(&a, &b) > 0.0);
            assert!(k.eval(&a, &b) <= k.signal_var());
        }
    }

    #[test]
    fn decay_with_distance() {
        for fam in all_families() {
            let k = Kernel::isotropic(fam, 1, 1.0, 1.0);
            let near = k.eval(&[0.0], &[0.1]);
            let far = k.eval(&[0.0], &[2.0]);
            assert!(near > far, "{fam:?}");
        }
    }

    #[test]
    fn ard_lengthscales_weight_dimensions() {
        // Long lengthscale in dim 0 -> dim-0 displacement matters less.
        let k = Kernel::new(KernelType::Rbf, vec![10.0, 0.1], 1.0);
        let along_0 = k.eval(&[0.0, 0.0], &[1.0, 0.0]);
        let along_1 = k.eval(&[0.0, 0.0], &[0.0, 1.0]);
        assert!(along_0 > along_1);
    }

    #[test]
    fn rbf_known_value() {
        let k = Kernel::isotropic(KernelType::Rbf, 1, 1.0, 1.0);
        // exp(-0.5 * 4) at distance 2.
        assert!((k.eval(&[0.0], &[2.0]) - (-2.0f64).exp()).abs() < 1e-14);
    }

    #[test]
    fn matern52_known_value() {
        let k = Kernel::isotropic(KernelType::Matern52, 1, 1.0, 1.0);
        let a = 5.0f64.sqrt();
        let want = (1.0 + a + a * a / 3.0) * (-a).exp();
        assert!((k.eval(&[0.0], &[1.0]) - want).abs() < 1e-14);
    }

    #[test]
    fn matrix_is_symmetric_psd_ish() {
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()])
            .collect();
        for fam in all_families() {
            let k = Kernel::isotropic(fam, 2, 0.8, 1.3).matrix(&xs);
            for i in 0..20 {
                for j in 0..20 {
                    assert!((k[(i, j)] - k[(j, i)]).abs() < 1e-14);
                }
            }
            // Jittered Cholesky must succeed on a valid kernel matrix.
            let mut kj = k.clone();
            kj.add_diag(1e-8);
            assert!(eva_linalg::Cholesky::decompose_jittered(&kj).is_ok());
        }
    }

    #[test]
    fn large_matrix_equals_direct_evaluation() {
        // The fill evaluates one triangle and mirrors it; on 230 points
        // with ARD lengthscales every entry of both triangles has the
        // bits of a direct evaluation in that orientation.
        let xs: Vec<Vec<f64>> = (0..230)
            .map(|i| vec![i as f64 * 0.01, (i % 7) as f64 * 0.3 - 1.0])
            .collect();
        for fam in all_families() {
            let k = Kernel::new(fam, vec![0.5, 1.7], 1.3);
            let m = k.matrix(&xs);
            for (i, x) in xs.iter().enumerate() {
                for (j, y) in xs.iter().enumerate() {
                    assert_eq!(
                        m[(i, j)].to_bits(),
                        k.eval(x, y).to_bits(),
                        "{fam:?} ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn cross_matrix_shape_and_values() {
        let a: Vec<Vec<f64>> = vec![vec![0.0], vec![1.0]];
        let b: Vec<Vec<f64>> = vec![vec![0.0], vec![0.5], vec![1.0]];
        let k = Kernel::isotropic(KernelType::Rbf, 1, 1.0, 1.0);
        let c = k.cross_matrix(&a, &b);
        assert_eq!((c.rows(), c.cols()), (2, 3));
        assert!((c[(0, 0)] - 1.0).abs() < 1e-15);
        assert!((c[(1, 2)] - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_lengthscale() {
        let _ = Kernel::new(KernelType::Rbf, vec![0.0], 1.0);
    }
}
