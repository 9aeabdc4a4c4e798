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

    /// Whether this acquisition needs baseline samples.
    pub(crate) fn needs_baseline(&self) -> bool {
        matches!(self, AcqKind::QNei)
    }
}

/// One BO iteration's candidate scan over a joint sample matrix.
///
/// `samples` is `n_mc × (n_pool + n_base)`: the pool's columns first,
/// then the observed baselines' (qNEI only). A greedy slot scores the
/// batch "the slot's selected columns plus one candidate" for every
/// candidate, so all but the candidate's own column is the same across
/// the slot: the baseline row maxima (the whole iteration), the selected
/// columns' row maxima (the slot) and, for qUCB, the column means. A
/// [`Scan`] computes each of those once, and a candidate's score then
/// reads only its own column. Row maxima fold the selected columns in
/// order and the candidate last, as [`AcqKind::score`] folds the
/// materialized `[selected…, candidate]` matrix, and the MC rows are
/// summed in the same order, so every score is bit-identical to it.
pub(crate) struct Scan<'a> {
    kind: AcqKind,
    samples: &'a Mat,
    /// The best observed value (qEI's fixed incumbent).
    incumbent: f64,
    /// Each row's maximum over the baseline columns; `None` without
    /// any (qNEI then scores every batch `NEG_INFINITY`).
    base_max: Option<Vec<f64>>,
    /// qUCB: each pool column's MC mean; empty for the other kinds.
    means: Vec<f64>,
    /// qUCB: the deviation weight `sqrt(β π / 2)`.
    scale: f64,
}

impl<'a> Scan<'a> {
    /// Scan `samples`, whose first `n_pool` columns are the candidates.
    pub(crate) fn new(kind: AcqKind, samples: &'a Mat, n_pool: usize, incumbent: f64) -> Self {
        let n_mc = samples.rows();
        let base_max = (kind.needs_baseline() && samples.cols() > n_pool).then(|| {
            (0..n_mc)
                .map(|s| fold_max(&samples.row(s)[n_pool..]))
                .collect()
        });
        let (means, scale) = match kind {
            AcqKind::QUcb { beta } => {
                let means = (0..n_pool)
                    .map(|j| (0..n_mc).fold(0.0, |m, s| m + samples[(s, j)]) / n_mc as f64)
                    .collect();
                (means, (beta * std::f64::consts::PI / 2.0).sqrt())
            }
            _ => (Vec::new(), 0.0),
        };
        Scan {
            kind,
            samples,
            incumbent,
            base_max,
            means,
            scale,
        }
    }

    /// The row invariants of a greedy slot that already selected the
    /// pool columns `selected`.
    pub(crate) fn slot(&self, selected: &[usize]) -> Slot<'_> {
        let sel_max = (0..self.samples.rows())
            .map(|s| {
                let row = self.samples.row(s);
                selected
                    .iter()
                    .fold(f64::NEG_INFINITY, |m, &j| m.max(self.value(row[j], j)))
            })
            .collect();
        Slot {
            scan: self,
            sel_max,
        }
    }

    /// What a sample `x` of pool column `j` contributes to a row
    /// maximum: the sample itself, or qUCB's optimistic transform.
    #[inline]
    fn value(&self, x: f64, j: usize) -> f64 {
        match self.kind {
            AcqKind::QUcb { .. } => self.means[j] + self.scale * (x - self.means[j]).abs(),
            _ => x,
        }
    }
}

/// One greedy slot of a [`Scan`]: each row's maximum over the slot's
/// selected columns (`NEG_INFINITY` before the first selection).
pub(crate) struct Slot<'s> {
    scan: &'s Scan<'s>,
    sel_max: Vec<f64>,
}

impl Slot<'_> {
    /// Score of the slot's selected columns plus pool column `col`.
    /// Higher is better.
    pub(crate) fn score(&self, col: usize) -> f64 {
        let scan = self.scan;
        if scan.kind.needs_baseline() && scan.base_max.is_none() {
            return f64::NEG_INFINITY;
        }
        let base_max = scan.base_max.as_deref().unwrap_or_default();
        let mut total = 0.0;
        for (s, &sel) in self.sel_max.iter().enumerate() {
            let best = sel.max(scan.value(scan.samples[(s, col)], col));
            total += match scan.kind {
                AcqKind::QNei => (best - base_max[s]).max(0.0),
                AcqKind::QEi => (best - scan.incumbent).max(0.0),
                AcqKind::QUcb { .. } | AcqKind::QSr => best,
            };
        }
        total / self.sel_max.len() as f64
    }
}

#[inline]
fn fold_max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[inline]
#[cfg(test)]
fn row_max(m: &Mat, row: usize) -> f64 {
    fold_max(m.row(row))
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

    /// A sample matrix with `n_pool` candidate and `n_base` baseline
    /// columns: values on a coarse grid, so rows and columns tie often,
    /// and some columns wholly at the `-1e3` infeasible-point penalty.
    /// The grid step 0.1 is inexact in binary, so sums taken in another
    /// order than the reference's differ in their last bits.
    fn tied_samples(n_mc: usize, n_pool: usize, n_base: usize, seed: u64) -> Mat {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let infeasible: Vec<bool> = (0..n_pool + n_base)
            .map(|_| rng.gen_range(0..5) == 0)
            .collect();
        Mat::from_fn(n_mc, n_pool + n_base, |_, c| {
            if infeasible[c] {
                -1.0e3
            } else {
                f64::from(rng.gen_range(-4i32..5)) * 0.1
            }
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Every candidate's [`Slot::score`] equals [`AcqKind::score`]
        /// on the materialized `[selected…, candidate]` and baseline
        /// matrices, bit for bit, for all four kinds, 1 to `batch`
        /// selected-plus-candidate columns, with and without baselines.
        #[test]
        fn scan_matches_score_on_materialized_matrices(
            (n_mc, n_pool, n_base) in (1usize..12, 1usize..9, 0usize..5),
            (batch, seed) in (1usize..5, 0u64..1 << 40),
            (incumbent, beta) in (-4i32..5, 0usize..3),
        ) {
            let samples = tied_samples(n_mc, n_pool, n_base, seed);
            let incumbent = f64::from(incumbent) * 0.1;
            let base = (n_base > 0).then(|| {
                Mat::from_fn(n_mc, n_base, |r, c| samples[(r, n_pool + c)])
            });
            for kind in [
                AcqKind::QNei,
                AcqKind::QEi,
                AcqKind::QUcb { beta: [0.0, 0.5, 2.0][beta] },
                AcqKind::QSr,
            ] {
                let scan = Scan::new(kind, &samples, n_pool, incumbent);
                // Select the first `q - 1` columns of a random order and
                // score each of the rest.
                let order = eva_stats::rng::sample_indices(&mut eva_stats::rng::seeded(seed), n_pool, n_pool);
                for q in 1..=batch.min(n_pool) {
                    let selected = &order[..q - 1];
                    let slot = scan.slot(selected);
                    for &col in &order[q - 1..] {
                        let mut cols = selected.to_vec();
                        cols.push(col);
                        let cand = Mat::from_fn(n_mc, q, |r, c| samples[(r, cols[c])]);
                        let want = kind.score(&cand, base.as_ref(), Some(incumbent));
                        let got = slot.score(col);
                        proptest::prop_assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{:?}: q {}, column {}: {} vs {}", kind, q, col, got, want
                        );
                        if kind == AcqKind::QNei && n_base == 0 {
                            proptest::prop_assert_eq!(got, f64::NEG_INFINITY);
                        }
                    }
                }
            }
        }
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
