//! Closed-form single-point acquisition values, compiled for tests only.
//!
//! For `q = 1` and a Gaussian posterior the Monte-Carlo acquisitions
//! have exact analytic counterparts: the ground truth the MC estimators
//! are cross-checked against below (this is how we know Eq. 12's
//! sampler is implemented correctly).

use eva_stats::{norm_cdf, norm_pdf};

/// Analytic Expected Improvement for maximization:
/// `EI(μ, σ; z*) = (μ − z*) Φ(u) + σ φ(u)` with `u = (μ − z*)/σ`.
fn expected_improvement(mean: f64, std_dev: f64, incumbent: f64) -> f64 {
    assert!(std_dev >= 0.0, "expected_improvement: negative std dev");
    if std_dev < 1e-15 {
        return (mean - incumbent).max(0.0);
    }
    let u = (mean - incumbent) / std_dev;
    (mean - incumbent) * norm_cdf(u) + std_dev * norm_pdf(u)
}

/// Analytic UCB: `μ + √β σ`.
fn upper_confidence_bound(mean: f64, std_dev: f64, beta: f64) -> f64 {
    assert!(std_dev >= 0.0 && beta >= 0.0, "ucb: negative input");
    mean + beta.sqrt() * std_dev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::AcqKind;
    use eva_linalg::Mat;
    use eva_stats::rng::{seeded, standard_normal};

    #[test]
    fn ei_known_values() {
        // μ = z*, σ = 1: EI = φ(0) = 1/√(2π).
        let want = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
        assert!((expected_improvement(0.0, 1.0, 0.0) - want).abs() < 1e-12);
        // Degenerate σ: positive part of the gap.
        assert_eq!(expected_improvement(2.0, 0.0, 1.0), 1.0);
        assert_eq!(expected_improvement(0.5, 0.0, 1.0), 0.0);
    }

    #[test]
    fn ei_monotone_in_mean_and_sigma() {
        assert!(expected_improvement(1.0, 1.0, 0.0) > expected_improvement(0.5, 1.0, 0.0));
        assert!(expected_improvement(0.0, 2.0, 0.0) > expected_improvement(0.0, 1.0, 0.0));
        // EI is always nonnegative.
        assert!(expected_improvement(-5.0, 0.3, 0.0) >= 0.0);
    }

    /// The MC qEI estimator must converge to the analytic EI for q = 1.
    #[test]
    fn mc_qei_matches_analytic_ei() {
        let (mean, sd, incumbent) = (0.3, 0.8, 0.5);
        let n_mc = 200_000;
        let mut rng = seeded(11);
        let samples = Mat::from_fn(n_mc, 1, |_, _| mean + sd * standard_normal(&mut rng));
        let mc = AcqKind::QEi.score(&samples, None, Some(incumbent));
        let analytic = expected_improvement(mean, sd, incumbent);
        assert!(
            (mc - analytic).abs() < 5e-3,
            "MC {mc} vs analytic {analytic}"
        );
    }

    /// The MC qUCB estimator's E|z−μ| correction is calibrated so that
    /// for q = 1 it converges to μ + √β σ.
    #[test]
    fn mc_qucb_matches_analytic_ucb() {
        let (mean, sd, beta) = (-0.2, 1.3, 2.0);
        let n_mc = 200_000;
        let mut rng = seeded(12);
        let samples = Mat::from_fn(n_mc, 1, |_, _| mean + sd * standard_normal(&mut rng));
        let mc = AcqKind::QUcb { beta }.score(&samples, None, None);
        let analytic = upper_confidence_bound(mean, sd, beta);
        assert!(
            (mc - analytic).abs() < 2e-2,
            "MC {mc} vs analytic {analytic}"
        );
    }

    /// qSR for q = 1 is just the posterior mean.
    #[test]
    fn mc_qsr_matches_mean() {
        let (mean, sd) = (0.7, 0.5);
        let n_mc = 100_000;
        let mut rng = seeded(13);
        let samples = Mat::from_fn(n_mc, 1, |_, _| mean + sd * standard_normal(&mut rng));
        let mc = AcqKind::QSr.score(&samples, None, None);
        assert!((mc - mean).abs() < 5e-3);
    }

    /// qNEI with a deterministic baseline reduces to qEI with that
    /// incumbent.
    #[test]
    fn mc_qnei_reduces_to_qei_with_fixed_baseline() {
        let (mean, sd, incumbent) = (0.1, 0.9, 0.4);
        let n_mc = 100_000;
        let mut rng = seeded(14);
        let cand = Mat::from_fn(n_mc, 1, |_, _| mean + sd * standard_normal(&mut rng));
        let base = Mat::from_fn(n_mc, 1, |_, _| incumbent);
        let qnei = AcqKind::QNei.score(&cand, Some(&base), None);
        let analytic = expected_improvement(mean, sd, incumbent);
        assert!(
            (qnei - analytic).abs() < 5e-3,
            "qNEI {qnei} vs EI {analytic}"
        );
    }
}
