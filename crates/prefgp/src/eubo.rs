//! EUBO pair selection and the preference-elicitation loop.
//!
//! Paper Eq. 11: `EUBO(y₁, y₂) = E_V[max(g(y₁), g(y₂))]`, the Expected
//! Utility of the Best Option (Lin et al., AISTATS'22) — an analytically
//! tractable stand-in for the one-step benefit gain of Eq. 10. For a
//! bivariate normal posterior the expectation has the closed form
//! `μ₁Φ(δ/s) + μ₂Φ(−δ/s) + s·φ(δ/s)` with `δ = μ₁−μ₂`,
//! `s² = σ₁² + σ₂² − 2σ₁₂`.

use eva_gp::Kernel;
use eva_stats::{norm_cdf, norm_pdf};
use rand::Rng;

use crate::dataset::{DecisionMaker, PreferenceDataset};
use crate::model::{PrefError, PreferenceModel};

/// Closed-form `E[max(g(y1), g(y2))]` under the model posterior.
///
/// A two-point posterior cannot fail on a fitted model; should the
/// numerics misbehave anyway, the pair scores `-inf` and is never
/// selected.
pub(crate) fn eubo_pair_value(model: &PreferenceModel, y1: &[f64], y2: &[f64]) -> f64 {
    let Some((mean, cov)) = model.posterior_pair(y1, y2) else {
        return f64::NEG_INFINITY;
    };
    e_max_bivariate(mean[0], mean[1], cov[0][0], cov[1][1], cov[0][1])
}

/// `E[max(X, Y)]` for jointly normal `X ~ N(μ1, σ1²)`, `Y ~ N(μ2, σ2²)`
/// with covariance `σ12` (Clark 1961).
pub(crate) fn e_max_bivariate(mu1: f64, mu2: f64, var1: f64, var2: f64, cov12: f64) -> f64 {
    let s2 = (var1 + var2 - 2.0 * cov12).max(0.0);
    if s2 < 1e-18 {
        return mu1.max(mu2);
    }
    let s = s2.sqrt();
    let d = (mu1 - mu2) / s;
    mu1 * norm_cdf(d) + mu2 * norm_cdf(-d) + s * norm_pdf(d)
}

/// Configuration of the elicitation loop.
#[derive(Debug, Clone)]
pub struct ElicitConfig {
    /// Number of comparisons to collect (`V` in Algorithm 2).
    pub n_comparisons: usize,
    /// Candidate pairs scored by EUBO per round (sampled from the
    /// candidate pool).
    pub pairs_per_round: usize,
    /// Kernel for the preference GP over (normalized) outcome space.
    pub kernel: Kernel,
    /// Probit noise scale `λ` of Eq. 9.
    pub lambda: f64,
}

impl ElicitConfig {
    /// Sensible defaults for a `dim`-dimensional normalized outcome space.
    pub fn for_dim(dim: usize) -> Self {
        ElicitConfig {
            n_comparisons: 18,
            pairs_per_round: 64,
            kernel: Kernel::isotropic(eva_gp::KernelType::Rbf, dim, 0.5, 1.0),
            lambda: 0.1,
        }
    }
}

/// Run the preference-elicitation loop of Algorithm 2 (lines 6-11):
/// repeatedly pick the EUBO-maximal pair from `candidates`, ask the
/// decision maker, and refit. Returns the final model and the dataset.
///
/// The first comparison pairs the two most distant candidates (EUBO is
/// undefined before any data exists). Fewer than two candidates pose no
/// comparison: [`PrefError::Empty`].
pub fn elicit_preferences<D: DecisionMaker + ?Sized, R: Rng + ?Sized>(
    oracle: &mut D,
    candidates: &[Vec<f64>],
    config: &ElicitConfig,
    rng: &mut R,
) -> Result<(PreferenceModel, PreferenceDataset), PrefError> {
    if candidates.len() < 2 {
        return Err(PrefError::Empty);
    }
    let mut data = PreferenceDataset::new();

    // Bootstrap: most-distant pair spans the outcome space best.
    let (i0, j0) = most_distant_pair(candidates);
    data.query(oracle, &candidates[i0], &candidates[j0]);
    let mut model = PreferenceModel::fit(&data, config.kernel.clone(), config.lambda)?;

    while data.len() < config.n_comparisons {
        // Score a random subset of pairs by EUBO; take the best.
        let mut best: Option<((usize, usize), f64)> = None;
        for _ in 0..config.pairs_per_round {
            let i = rng.gen_range(0..candidates.len());
            let mut j = rng.gen_range(0..candidates.len());
            if i == j {
                j = (j + 1) % candidates.len();
            }
            let v = eubo_pair_value(&model, &candidates[i], &candidates[j]);
            if best.is_none_or(|(_, bv)| v > bv) {
                best = Some(((i, j), v));
            }
        }
        // No scorable pair (pairs_per_round = 0 or every posterior
        // failed): stop asking rather than loop forever.
        let Some(((i, j), _)) = best else {
            break;
        };
        data.query(oracle, &candidates[i], &candidates[j]);
        model = PreferenceModel::fit(&data, config.kernel.clone(), config.lambda)?;
    }
    Ok((model, data))
}

fn most_distant_pair(candidates: &[Vec<f64>]) -> (usize, usize) {
    let mut best = (0, 1);
    let mut best_d = -1.0;
    for i in 0..candidates.len() {
        for j in (i + 1)..candidates.len() {
            let d = eva_linalg::vecops::sq_dist(&candidates[i], &candidates[j]);
            if d > best_d {
                best_d = d;
                best = (i, j);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::FunctionOracle;
    use eva_gp::KernelType;
    use eva_stats::rng::seeded;

    #[test]
    fn e_max_degenerate_cases() {
        // Perfectly correlated equal-variance: max = the larger mean.
        assert_eq!(e_max_bivariate(1.0, 0.0, 0.5, 0.5, 0.5), 1.0);
        // Symmetric independent standard normals: E[max] = 1/√π.
        let want = 1.0 / std::f64::consts::PI.sqrt();
        assert!((e_max_bivariate(0.0, 0.0, 1.0, 1.0, 0.0) - want).abs() < 1e-9);
    }

    #[test]
    fn e_max_dominates_means() {
        // E[max] >= max of means, always.
        for (m1, m2) in [(0.0, 0.0), (1.0, -1.0), (-2.0, 3.0)] {
            let v = e_max_bivariate(m1, m2, 1.0, 2.0, 0.3);
            assert!(v >= m1.max(m2) - 1e-12);
        }
    }

    #[test]
    fn elicitation_recovers_linear_preference() {
        let utility = |y: &[f64]| -(y[0] + 3.0 * y[1]);
        let mut oracle = FunctionOracle::new(utility);
        let mut rng = seeded(11);
        // Candidate outcomes: a grid in [0,1]².
        let candidates: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![(i % 5) as f64 / 4.0, (i / 5) as f64 / 4.0])
            .collect();
        let config = ElicitConfig::for_dim(2);
        let (model, data) =
            elicit_preferences(&mut oracle, &candidates, &config, &mut rng).unwrap();
        assert_eq!(data.len(), config.n_comparisons);
        // Held-out pairwise accuracy.
        let mut correct = 0;
        let trials = 200;
        let mut trng = seeded(12);
        for _ in 0..trials {
            use rand::Rng as _;
            let a: Vec<f64> = vec![trng.gen(), trng.gen()];
            let b: Vec<f64> = vec![trng.gen(), trng.gen()];
            let (ua, _) = model.predict_utility(&a);
            let (ub, _) = model.predict_utility(&b);
            if (ua > ub) == (utility(&a) > utility(&b)) {
                correct += 1;
            }
        }
        let acc = correct as f64 / trials as f64;
        assert!(acc > 0.8, "elicited model accuracy {acc}");
    }

    #[test]
    fn eubo_prefers_informative_over_settled_pairs() {
        // After observing a ≻ b strongly, comparing (a, b) again has
        // lower EUBO than comparing two *unexplored* distant points with
        // large posterior uncertainty... EUBO favors high mean + high
        // uncertainty; at minimum it must be finite and ordered sanely.
        let mut data = PreferenceDataset::new();
        data.add(&[0.0, 0.0], &[1.0, 1.0]);
        data.add(&[0.0, 0.0], &[1.0, 0.0]);
        let kernel = Kernel::isotropic(KernelType::Rbf, 2, 0.5, 1.0);
        let model = PreferenceModel::fit(&data, kernel, 0.1).unwrap();
        let settled = eubo_pair_value(&model, &[1.0, 1.0], &[1.0, 0.99]);
        let informative = eubo_pair_value(&model, &[0.0, 0.0], &[0.0, 1.0]);
        assert!(
            informative > settled,
            "informative {informative} vs settled {settled}"
        );
    }

    #[test]
    fn most_distant_pair_found() {
        let cands = vec![vec![0.0, 0.0], vec![0.1, 0.1], vec![1.0, 1.0]];
        assert_eq!(most_distant_pair(&cands), (0, 2));
    }

    #[test]
    fn rejects_tiny_candidate_sets() {
        let mut oracle = FunctionOracle::new(|y: &[f64]| y[0]);
        let result = elicit_preferences(
            &mut oracle,
            &[vec![0.0]],
            &ElicitConfig::for_dim(1),
            &mut seeded(0),
        );
        assert!(matches!(result, Err(PrefError::Empty)));
    }
}
