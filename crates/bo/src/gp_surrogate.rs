//! Direct GP surrogate on the scalar objective, compiled for tests only.
//!
//! The driver's and the acquisitions' tests run on a plain GP; PaMO
//! itself samples through the composite model in `pamo-core`.

use eva_gp::GpModel;
use eva_linalg::Mat;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::surrogate::SurrogateSampler;

/// Direct GP surrogate on the scalar objective.
#[derive(Debug, Clone)]
pub(crate) struct GpSurrogate {
    model: GpModel,
}

impl GpSurrogate {
    /// Wrap a fitted GP.
    pub(crate) fn new(model: GpModel) -> Self {
        GpSurrogate { model }
    }

    /// Access the wrapped model.
    pub(crate) fn model(&self) -> &GpModel {
        &self.model
    }

    /// Condition the surrogate on new observations without re-fitting
    /// hyperparameters: extends the wrapped GP's cached Cholesky factor
    /// ([`GpModel::condition`], O(k·n²)) instead of rebuilding it, the
    /// cheap between-refit update of the BO loop.
    pub(crate) fn conditioned(
        &self,
        x_new: &[Vec<f64>],
        y_new: &[f64],
    ) -> eva_gp::Result<GpSurrogate> {
        Ok(GpSurrogate::new(self.model.condition(x_new, y_new)?))
    }
}

impl SurrogateSampler for GpSurrogate {
    fn joint_samples(&self, xs: &[Vec<f64>], n_mc: usize, seed: u64) -> Mat {
        // A degenerate posterior (empty query, non-PSD covariance) yields
        // flat zero samples — the acquisition then scores the batch as
        // valueless instead of panicking mid-optimization.
        let Ok(posterior) = self.model.posterior(xs) else {
            return Mat::from_fn(n_mc, xs.len(), |_, _| 0.0);
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let eps = Mat::from_fn(n_mc, xs.len(), |_, _| {
            eva_stats::rng::standard_normal(&mut rng)
        });
        posterior
            .sample_with(&eps)
            .unwrap_or_else(|_| Mat::from_fn(n_mc, xs.len(), |_, _| 0.0))
    }

    fn posterior_mean(&self, x: &[f64]) -> f64 {
        self.model.predict_mean(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_gp::{Kernel, KernelType};

    fn surrogate() -> GpSurrogate {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.1]).collect();
        let y: Vec<f64> = x.iter().map(|p| (5.0 * p[0]).sin()).collect();
        let kernel = Kernel::isotropic(KernelType::Matern52, 1, 0.3, 1.0);
        GpSurrogate::new(GpModel::new(kernel, 1e-4, x, y).unwrap())
    }

    #[test]
    fn same_seed_same_samples() {
        let s = surrogate();
        let xs = vec![vec![0.25], vec![0.55]];
        let a = s.joint_samples(&xs, 16, 7);
        let b = s.joint_samples(&xs, 16, 7);
        assert!(a.max_abs_diff(&b) < 1e-15);
        let c = s.joint_samples(&xs, 16, 8);
        assert!(c.max_abs_diff(&a) > 1e-9);
    }

    #[test]
    fn sample_mean_tracks_posterior_mean() {
        let s = surrogate();
        let xs = vec![vec![0.42]];
        let samples = s.joint_samples(&xs, 8000, 3);
        let mc_mean: f64 =
            (0..samples.rows()).map(|r| samples[(r, 0)]).sum::<f64>() / samples.rows() as f64;
        let want = s.posterior_mean(&[0.42]);
        assert!((mc_mean - want).abs() < 0.02, "{mc_mean} vs {want}");
    }

    #[test]
    fn conditioned_matches_rebuilt_surrogate() {
        let s = surrogate();
        let x_new = vec![vec![0.33], vec![0.77]];
        let y_new = vec![0.2, -0.4];
        let fast = s.conditioned(&x_new, &y_new).unwrap();
        let slow = GpSurrogate::new(s.model().with_added(&x_new, &y_new).unwrap());
        for q in [0.1f64, 0.5, 0.95] {
            let a = fast.posterior_mean(&[q]);
            let b = slow.posterior_mean(&[q]);
            assert!((a - b).abs() < 1e-8, "{a} vs {b} at {q}");
        }
        let xs = vec![vec![0.25], vec![0.6]];
        let sa = fast.joint_samples(&xs, 32, 5);
        let sb = slow.joint_samples(&xs, 32, 5);
        assert!(sa.max_abs_diff(&sb) < 1e-6);
    }

    #[test]
    fn shapes_are_n_mc_by_points() {
        let s = surrogate();
        let xs = vec![vec![0.1], vec![0.2], vec![0.9]];
        let m = s.joint_samples(&xs, 5, 1);
        assert_eq!((m.rows(), m.cols()), (5, 3));
    }
}
