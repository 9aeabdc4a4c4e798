//! Monte-Carlo batch acquisition functions.
//!
//! All four variants score a candidate batch from joint posterior
//! samples. Columns `0..q` of the sample matrix are the candidates;
//! an optional second matrix carries samples at the *baseline*
//! (already-observed) points, which `qNEI` needs to integrate out the
//! noise on the incumbent (paper Eq. 12: "maximize the expected
//! improvement with respect to the best value observed so far", where
//! that best value is itself uncertain).

use eva_linalg::Mat;

/// Which acquisition function to use (Sec. 5.1: `PaMO` uses `qNEI`;
/// `PaMO_{qUCB/qSR/qEI}` are the ablation variants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AcqKind {
    /// Batch Noisy Expected Improvement (Letham et al. 2019):
    /// `E[max(0, max_j z_j − max_b z_b)]` with the incumbent re-drawn
    /// from the posterior at the baseline points in every MC sample.
    QNei,
    /// Batch Expected Improvement with a fixed incumbent:
    /// `E[max(0, max_j z_j − z*)]`.
    QEi,
    /// Batch Upper Confidence Bound (MC form, BoTorch):
    /// `E[max_j (μ_j + sqrt(β π/2) |z_j − μ_j|)]`.
    QUcb {
        /// Exploration weight β.
        beta: f64,
    },
    /// Batch Simple Regret: `E[max_j z_j]`.
    QSr,
}

impl AcqKind {
    /// Score a candidate batch.
    ///
    /// * `cand_samples` — `n_mc x q` joint posterior samples at the
    ///   candidates,
    /// * `baseline_samples` — `n_mc x n_b` samples at the observed
    ///   points, drawn *jointly* with the candidates (same rows);
    ///   required for [`AcqKind::QNei`],
    /// * `incumbent` — best observed objective value; required for
    ///   [`AcqKind::QEi`].
    ///
    /// Higher is better.
    #[cfg(test)]
    pub(crate) fn score(
        &self,
        cand_samples: &Mat,
        baseline_samples: Option<&Mat>,
        incumbent: Option<f64>,
    ) -> f64 {
        let n_mc = cand_samples.rows();
        assert!(n_mc > 0 && cand_samples.cols() > 0, "empty sample matrix");
        match self {
            AcqKind::QNei => {
                // Misuse (qNEI without baselines): score the batch as
                // unattractive rather than panic mid-optimization.
                let Some(base) = baseline_samples else {
                    return f64::NEG_INFINITY;
                };
                assert_eq!(
                    base.rows(),
                    n_mc,
                    "baseline samples must share MC rows with candidates"
                );
                let mut total = 0.0;
                for s in 0..n_mc {
                    let best_cand = row_max(cand_samples, s);
                    let best_base = row_max(base, s);
                    total += (best_cand - best_base).max(0.0);
                }
                total / n_mc as f64
            }
            AcqKind::QEi => {
                let Some(z_star) = incumbent else {
                    return f64::NEG_INFINITY;
                };
                let mut total = 0.0;
                for s in 0..n_mc {
                    total += (row_max(cand_samples, s) - z_star).max(0.0);
                }
                total / n_mc as f64
            }
            AcqKind::QUcb { beta } => {
                assert!(*beta >= 0.0, "qUCB: negative beta");
                // Column means (MC estimate of posterior means).
                let q = cand_samples.cols();
                let mut means = vec![0.0; q];
                for s in 0..n_mc {
                    for (j, m) in means.iter_mut().enumerate() {
                        *m += cand_samples[(s, j)];
                    }
                }
                for m in &mut means {
                    *m /= n_mc as f64;
                }
                let scale = (beta * std::f64::consts::PI / 2.0).sqrt();
                let mut total = 0.0;
                for s in 0..n_mc {
                    let mut best = f64::NEG_INFINITY;
                    for j in 0..q {
                        let v = means[j] + scale * (cand_samples[(s, j)] - means[j]).abs();
                        best = best.max(v);
                    }
                    total += best;
                }
                total / n_mc as f64
            }
            AcqKind::QSr => {
                let mut total = 0.0;
                for s in 0..n_mc {
                    total += row_max(cand_samples, s);
                }
                total / n_mc as f64
            }
        }
    }

    /// [`AcqKind::score`] on a single joint sample matrix whose first
    /// `q` columns are the candidates and whose remaining columns (if
    /// any) are the baselines — the layout [`crate::bo_maximize`]'s
    /// candidate scan produces. Avoids materializing the two slices as
    /// separate matrices: row maxima are taken over column ranges in
    /// place, which removes two `n_mc × cols` allocations per candidate
    /// per batch slot.
    pub(crate) fn score_split(&self, samples: &Mat, q: usize, incumbent: Option<f64>) -> f64 {
        let n_mc = samples.rows();
        assert!(n_mc > 0 && q > 0 && q <= samples.cols(), "bad split shape");
        match self {
            AcqKind::QNei => {
                if samples.cols() == q {
                    return f64::NEG_INFINITY; // no baseline columns
                }
                let mut total = 0.0;
                for s in 0..n_mc {
                    let row = samples.row(s);
                    let best_cand = range_max(row, 0, q);
                    let best_base = range_max(row, q, samples.cols());
                    total += (best_cand - best_base).max(0.0);
                }
                total / n_mc as f64
            }
            AcqKind::QEi => {
                let Some(z_star) = incumbent else {
                    return f64::NEG_INFINITY;
                };
                let mut total = 0.0;
                for s in 0..n_mc {
                    total += (range_max(samples.row(s), 0, q) - z_star).max(0.0);
                }
                total / n_mc as f64
            }
            AcqKind::QUcb { beta } => {
                assert!(*beta >= 0.0, "qUCB: negative beta");
                let mut means = vec![0.0; q];
                for s in 0..n_mc {
                    let row = samples.row(s);
                    for (j, m) in means.iter_mut().enumerate() {
                        *m += row[j];
                    }
                }
                for m in &mut means {
                    *m /= n_mc as f64;
                }
                let scale = (beta * std::f64::consts::PI / 2.0).sqrt();
                let mut total = 0.0;
                for s in 0..n_mc {
                    let row = samples.row(s);
                    let mut best = f64::NEG_INFINITY;
                    for j in 0..q {
                        let v = means[j] + scale * (row[j] - means[j]).abs();
                        best = best.max(v);
                    }
                    total += best;
                }
                total / n_mc as f64
            }
            AcqKind::QSr => {
                let mut total = 0.0;
                for s in 0..n_mc {
                    total += range_max(samples.row(s), 0, q);
                }
                total / n_mc as f64
            }
        }
    }

    /// Whether this acquisition needs baseline samples.
    pub(crate) fn needs_baseline(&self) -> bool {
        matches!(self, AcqKind::QNei)
    }
}

#[inline]
#[cfg(test)]
fn row_max(m: &Mat, row: usize) -> f64 {
    m.row(row).iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[inline]
fn range_max(row: &[f64], from: usize, to: usize) -> f64 {
    row[from..to]
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic "samples": candidate always 1.0, baseline always 0.5.
    fn constant_mat(rows: usize, cols: usize, v: f64) -> Mat {
        Mat::from_fn(rows, cols, |_, _| v)
    }

    #[test]
    fn qnei_positive_when_candidate_beats_baseline() {
        let cand = constant_mat(100, 1, 1.0);
        let base = constant_mat(100, 3, 0.5);
        let v = AcqKind::QNei.score(&cand, Some(&base), None);
        assert!((v - 0.5).abs() < 1e-12);
    }

    #[test]
    fn qnei_zero_when_dominated() {
        let cand = constant_mat(50, 2, 0.1);
        let base = constant_mat(50, 2, 0.9);
        assert_eq!(AcqKind::QNei.score(&cand, Some(&base), None), 0.0);
    }

    #[test]
    fn qei_improvement_over_incumbent() {
        let cand = constant_mat(10, 1, 2.0);
        assert!((AcqKind::QEi.score(&cand, None, Some(1.5)) - 0.5).abs() < 1e-12);
        assert_eq!(AcqKind::QEi.score(&cand, None, Some(3.0)), 0.0);
    }

    #[test]
    fn qsr_is_mean_of_row_maxima() {
        let m = Mat::from_rows(&[&[1.0, 3.0], &[2.0, 0.0]]);
        assert!((AcqKind::QSr.score(&m, None, None) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn qucb_reduces_to_mean_at_beta_zero() {
        let m = Mat::from_rows(&[&[1.0], &[3.0]]);
        // β = 0: score = E[max_j μ_j] = μ = 2.
        let v = AcqKind::QUcb { beta: 0.0 }.score(&m, None, None);
        assert!((v - 2.0).abs() < 1e-12);
    }

    #[test]
    fn qucb_grows_with_beta_under_uncertainty() {
        // Spread samples: deviation term kicks in.
        let m = Mat::from_rows(&[&[0.0], &[2.0], &[0.0], &[2.0]]);
        let v0 = AcqKind::QUcb { beta: 0.1 }.score(&m, None, None);
        let v1 = AcqKind::QUcb { beta: 4.0 }.score(&m, None, None);
        assert!(v1 > v0);
    }

    #[test]
    fn batch_beats_singleton_for_qnei() {
        // A 2-candidate batch where each candidate wins in different MC
        // rows scores at least as high as either alone.
        let cand_both = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let cand_a = Mat::from_rows(&[&[1.0], &[0.0]]);
        let base = constant_mat(2, 1, 0.2);
        let both = AcqKind::QNei.score(&cand_both, Some(&base), None);
        let single = AcqKind::QNei.score(&cand_a, Some(&base), None);
        assert!(both >= single);
        assert!((both - 0.8).abs() < 1e-12);
    }

    #[test]
    fn jensen_qei_upper_bounds_deterministic_ei() {
        // EI of the mean <= mean of EI (convexity of max(0, ·)).
        let m = Mat::from_rows(&[&[0.0], &[2.0]]);
        let mc = AcqKind::QEi.score(&m, None, Some(1.0));
        // mean sample value is 1.0 -> deterministic EI = 0.
        assert!(mc >= 0.0);
        assert!((mc - 0.5).abs() < 1e-12);
    }

    #[test]
    fn score_split_matches_score_on_all_kinds() {
        // A concatenated matrix: 2 candidate columns + 3 baseline
        // columns, with varied values across 4 MC rows.
        let joint = Mat::from_fn(4, 5, |r, c| ((r * 5 + c) as f64 * 0.73).sin() * 2.0);
        let q = 2;
        let cand = Mat::from_fn(4, q, |r, c| joint[(r, c)]);
        let base = Mat::from_fn(4, 3, |r, c| joint[(r, q + c)]);
        for kind in [
            AcqKind::QNei,
            AcqKind::QEi,
            AcqKind::QUcb { beta: 2.0 },
            AcqKind::QSr,
        ] {
            let split = kind.score_split(&joint, q, Some(0.3));
            let two = kind.score(&cand, Some(&base), Some(0.3));
            assert_eq!(split.to_bits(), two.to_bits(), "{kind:?}");
        }
        // qNEI without baseline columns is an unattractive batch.
        let only_cands = Mat::from_fn(4, q, |r, c| joint[(r, c)]);
        assert_eq!(
            AcqKind::QNei.score_split(&only_cands, q, None),
            f64::NEG_INFINITY
        );
    }

    // Misuse (missing baseline/incumbent) scores as NEG_INFINITY — an
    // unattractive batch, never a panic in the optimization loop.
    #[test]
    fn qnei_without_baseline_scores_neg_infinity() {
        let cand = constant_mat(2, 1, 1.0);
        assert_eq!(AcqKind::QNei.score(&cand, None, None), f64::NEG_INFINITY);
    }

    #[test]
    fn qei_without_incumbent_scores_neg_infinity() {
        let cand = constant_mat(2, 1, 1.0);
        assert_eq!(AcqKind::QEi.score(&cand, None, None), f64::NEG_INFINITY);
    }
}
