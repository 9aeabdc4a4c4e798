//! Algorithm 2's optimization loop over a discrete candidate pool.
//!
//! The paper's search space is finite (per-stream resolution × rate
//! knobs), so the inner `arg max qNEI` is a scan over candidates with
//! greedy sequential batch construction. Each iteration draws one joint
//! sample matrix over the pool and the observed baselines, and every
//! slot of the greedy batch scores its candidates from that matrix
//! (`acquisition::Scan`); rayon parallelizes the scan.
//!
//! The `fit` callback rebuilds the surrogate after each batch of
//! observations. When the surrogate wraps a GP with fixed
//! hyperparameters, prefer conditioning it on the new observations
//! (`GpModel::condition`, backed by a Cholesky factor extension) over a
//! from-scratch refit — the fast path is property-tested equivalent to
//! the rebuild.

use eva_obs::{cost, span, DecisionBudget, Phase, Recorder};
use rand::Rng;
use rayon::prelude::*;

use crate::acquisition::{AcqKind, Scan};
use crate::surrogate::SurrogateSampler;

/// Why [`bo_maximize`] refused its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoError {
    /// An input breaks a precondition of the loop: an empty pool, a
    /// zero `n_init`, `batch` or `mc_samples`, or a negative qUCB `β`.
    InvalidInput {
        /// Which precondition failed.
        context: &'static str,
    },
}

impl std::fmt::Display for BoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoError::InvalidInput { context } => write!(f, "invalid BO input: {context}"),
        }
    }
}

impl std::error::Error for BoError {}

/// Driver configuration (Algorithm 2's knobs).
#[derive(Debug, Clone)]
pub struct BoConfig {
    /// Initial design size (`U` — Algorithm 2 line 2).
    pub n_init: usize,
    /// Batch size `b` of candidates recommended per iteration.
    pub batch: usize,
    /// Monte-Carlo samples per acquisition evaluation.
    pub mc_samples: usize,
    /// Maximum BO iterations (`MaxIterNum`).
    pub max_iters: usize,
    /// Convergence threshold `δ` on the batch-best objective.
    pub delta: f64,
    /// Acquisition function.
    pub kind: AcqKind,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            n_init: 8,
            batch: 4,
            mc_samples: 128,
            max_iters: 15,
            delta: 0.02,
            kind: AcqKind::QNei,
        }
    }
}

/// Outcome of a BO run.
#[derive(Debug, Clone)]
pub struct BoResult {
    /// Best observed input.
    pub best_x: Vec<f64>,
    /// Best observed objective value.
    pub best_value: f64,
    /// All `(x, value)` observations, in evaluation order.
    pub observations: Vec<(Vec<f64>, f64)>,
    /// Best-so-far value after the initial design and after each batch.
    pub best_trace: Vec<f64>,
    /// BO iterations executed (batches, not counting the initial design).
    pub iters_run: usize,
    /// Whether the `δ` criterion fired before `max_iters`.
    pub converged: bool,
    /// Whether a [`DecisionBudget`] exhausted before the loop would
    /// otherwise have stopped (anytime early-exit: `best_x` is still
    /// the best observation so far).
    pub budget_stopped: bool,
}

/// Maximize a black-box objective over a finite pool, under a
/// deterministic work-unit budget with anytime early-exit.
///
/// * `objective(x)` — the (possibly noisy, possibly penalized)
///   observation; Algorithm 2's "Profile_and_Algorithm1",
/// * `fit(observations)` — rebuild the surrogate from all data so far;
///   Algorithm 2's model-update steps (lines 18-19),
/// * `pool` — the feasible candidate set.
///
/// Charges (check-before-work, see [`eva_obs::budget`]):
/// [`cost::OBJ_EVAL`] per objective evaluation, [`cost::GP_FIT`] per
/// surrogate refit, and [`cost::ACQ_CANDIDATE`] per candidate scanned
/// in each greedy batch slot. When a charge is refused the loop stops
/// at the nearest anytime point and returns the best observation so
/// far with `budget_stopped = true`; the very first objective
/// evaluation is mandatory (a result needs at least one observation)
/// and is force-charged, so callers should size budgets to at least
/// [`cost::OBJ_EVAL`]. [`DecisionBudget::unlimited`] never refuses a
/// charge, so the loop then runs to convergence or `max_iters`.
///
/// Each iteration's candidate scan runs in a [`Phase::BoAcquisition`]
/// span on `rec`. Refuses, before drawing from `rng`, an empty pool, a
/// zero `n_init`, `batch` or `mc_samples`, and a negative qUCB `β`.
pub fn bo_maximize<S, FObj, FFit, R>(
    mut objective: FObj,
    mut fit: FFit,
    pool: &[Vec<f64>],
    cfg: &BoConfig,
    rng: &mut R,
    budget: &DecisionBudget,
    rec: &dyn Recorder,
) -> Result<BoResult, BoError>
where
    S: SurrogateSampler + Sync,
    FObj: FnMut(&[f64]) -> f64,
    FFit: FnMut(&[(Vec<f64>, f64)]) -> S,
    R: Rng + ?Sized,
{
    let beta_ok = match cfg.kind {
        AcqKind::QUcb { beta } => beta >= 0.0,
        _ => true,
    };
    for (ok, context) in [
        (!pool.is_empty(), "empty candidate pool"),
        (cfg.n_init > 0, "n_init must be positive"),
        (cfg.batch > 0, "batch must be positive"),
        (cfg.mc_samples > 0, "mc_samples must be positive"),
        (beta_ok, "qUCB beta must be non-negative"),
    ] {
        if !ok {
            return Err(BoError::InvalidInput { context });
        }
    }

    // (1) Initial design: distinct random pool points. The index draw
    // happens before any budget check so a budget-truncated run keeps
    // the same RNG stream prefix as an unbudgeted one.
    let n_init = cfg.n_init.min(pool.len());
    let init_idx = eva_stats::rng::sample_indices(rng, pool.len(), n_init);
    let mut budget_stopped = false;
    let mut observations: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n_init);
    for (k, i) in init_idx.into_iter().enumerate() {
        if !budget.try_charge(cost::OBJ_EVAL) {
            if k == 0 {
                // A result needs at least one observation; this is the
                // mandatory floor that can record an overrun.
                budget.force_charge(cost::OBJ_EVAL);
            } else {
                budget_stopped = true;
                break;
            }
        }
        observations.push((pool[i].clone(), objective(&pool[i])));
    }

    let mut best_trace = vec![best_of(&observations).1];
    let mut z_prev = f64::NEG_INFINITY;
    let mut converged = false;
    let mut iters_run = 0;

    for _iter in 0..cfg.max_iters {
        if budget_stopped {
            break;
        }
        if !budget.try_charge(cost::GP_FIT) {
            budget_stopped = true;
            break;
        }
        let surrogate = fit(&observations);
        let incumbent = best_of(&observations).1;
        let crn_seed: u64 = rng.gen();

        // One joint sample matrix per iteration: the pool's columns,
        // then (for baseline-hungry acquisitions) the observed points'.
        // Every slot below scores its candidates from it.
        let n_base = if cfg.kind.needs_baseline() {
            observations.len()
        } else {
            0
        };
        let mut pts: Vec<Vec<f64>> = Vec::with_capacity(pool.len() + n_base);
        pts.extend(pool.iter().cloned());
        pts.extend(observations[..n_base].iter().map(|(x, _)| x.clone()));
        let samples = surrogate.joint_samples(&pts, cfg.mc_samples, crn_seed);

        // (2) Greedy sequential batch construction. Each slot scans
        // the whole pool, so the slot's charge is one ACQ_CANDIDATE
        // per pool entry, checked before the scan starts.
        let acquisition_span = span(rec, Phase::BoAcquisition);
        let scan = Scan::new(cfg.kind, &samples, pool.len(), incumbent);
        let mut selected_idx: Vec<usize> = Vec::with_capacity(cfg.batch);
        for _slot in 0..cfg.batch {
            if !budget.try_charge(pool.len() as u64 * cost::ACQ_CANDIDATE) {
                budget_stopped = true;
                break;
            }
            let slot = scan.slot(&selected_idx);
            let scores: Vec<f64> = (0..pool.len())
                .collect::<Vec<_>>()
                .par_iter()
                .map(|&ci| {
                    if selected_idx.iter().any(|&s| pool[s] == pool[ci]) {
                        return f64::NEG_INFINITY; // no duplicates within a batch
                    }
                    slot.score(ci)
                })
                .collect();
            let Some(best_idx) = eva_linalg::vecops::argmax(&scores) else {
                break; // no candidate scored
            };
            if scores[best_idx] == f64::NEG_INFINITY {
                break; // pool exhausted (batch >= pool size)
            }
            selected_idx.push(best_idx);
        }
        drop(acquisition_span);
        let selected: Vec<Vec<f64>> = selected_idx.iter().map(|&i| pool[i].clone()).collect();

        // (3) Observe the batch (Algorithm 2 line 16).
        let mut z_best_batch = f64::NEG_INFINITY;
        for x in &selected {
            if !budget.try_charge(cost::OBJ_EVAL) {
                budget_stopped = true;
                break;
            }
            let z = objective(x);
            z_best_batch = z_best_batch.max(z);
            observations.push((x.clone(), z));
        }
        iters_run += 1;
        best_trace.push(best_of(&observations).1);
        if budget_stopped {
            break;
        }

        // (4) δ-convergence on the batch best (Algorithm 2 line 21).
        if (z_best_batch - z_prev).abs() < cfg.delta {
            converged = true;
            break;
        }
        z_prev = z_best_batch;
    }

    let (best_x, best_value) = best_of(&observations);
    Ok(BoResult {
        best_x,
        best_value,
        observations,
        best_trace,
        iters_run,
        converged,
        budget_stopped,
    })
}

fn best_of(observations: &[(Vec<f64>, f64)]) -> (Vec<f64>, f64) {
    let mut best = &observations[0];
    for o in observations {
        if o.1 > best.1 {
            best = o;
        }
    }
    (best.0.clone(), best.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gp_surrogate::GpSurrogate;
    use eva_obs::NoopRecorder;
    use eva_stats::rng::seeded;
    use pamo_core::gp::{fit_gp, FitConfig};

    /// Fit callback: a fresh GP on all observations, cheap settings.
    fn gp_fit(observations: &[(Vec<f64>, f64)]) -> GpSurrogate {
        let xs: Vec<Vec<f64>> = observations.iter().map(|(x, _)| x.clone()).collect();
        let ys: Vec<f64> = observations.iter().map(|&(_, y)| y).collect();
        let cfg = FitConfig {
            restarts: 1,
            max_evals: 60,
            ..Default::default()
        };
        GpSurrogate::new(fit_gp(&xs, &ys, &cfg, &mut seeded(0), &NoopRecorder).unwrap())
    }

    /// [`bo_maximize`] with [`gp_fit`] on valid inputs, untraced.
    fn run(
        f: impl FnMut(&[f64]) -> f64,
        pool: &[Vec<f64>],
        cfg: &BoConfig,
        seed: u64,
        budget: &DecisionBudget,
    ) -> BoResult {
        let rng = &mut seeded(seed);
        bo_maximize(f, gp_fit, pool, cfg, rng, budget, &NoopRecorder).unwrap()
    }

    fn grid_pool(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn finds_max_of_smooth_function() {
        // Objective peaks at x = 0.3.
        let f = |x: &[f64]| -(x[0] - 0.3) * (x[0] - 0.3);
        let pool = grid_pool(41);
        let cfg = BoConfig {
            n_init: 5,
            batch: 2,
            mc_samples: 64,
            max_iters: 8,
            delta: 1e-6,
            kind: AcqKind::QNei,
        };
        let r = run(f, &pool, &cfg, 1, &DecisionBudget::unlimited());
        assert!((r.best_x[0] - 0.3).abs() <= 0.05, "best_x = {:?}", r.best_x);
        assert!(r.best_value > -0.003);
    }

    #[test]
    fn beats_random_search_on_noisy_objective() {
        use rand::Rng as _;
        let pool = grid_pool(61);
        let run_bo = |seed: u64| {
            let mut noise_rng = seeded(seed + 100);
            let f = move |x: &[f64]| {
                // True optimum at 0.7; noise σ = 0.05.
                let v = 1.0 - 4.0 * (x[0] - 0.7) * (x[0] - 0.7);
                v + 0.05 * eva_stats::rng::standard_normal(&mut noise_rng)
            };
            let cfg = BoConfig {
                n_init: 6,
                batch: 2,
                mc_samples: 64,
                max_iters: 6,
                delta: 1e-9,
                kind: AcqKind::QNei,
            };
            let r = run(f, &pool, &cfg, seed, &DecisionBudget::unlimited());
            // Judge by TRUE value at the recommended point.
            1.0 - 4.0 * (r.best_x[0] - 0.7) * (r.best_x[0] - 0.7)
        };
        let run_random = |seed: u64, budget: usize| {
            let mut rng = seeded(seed);
            let mut best = f64::NEG_INFINITY;
            let mut best_true = f64::NEG_INFINITY;
            let mut noise_rng = seeded(seed + 100);
            for _ in 0..budget {
                let x = &pool[rng.gen_range(0..pool.len())];
                let truth = 1.0 - 4.0 * (x[0] - 0.7) * (x[0] - 0.7);
                let noisy = truth + 0.05 * eva_stats::rng::standard_normal(&mut noise_rng);
                if noisy > best {
                    best = noisy;
                    best_true = truth;
                }
            }
            best_true
        };
        let trials = 5;
        let bo_avg: f64 = (0..trials).map(|s| run_bo(s as u64)).sum::<f64>() / trials as f64;
        let rnd_avg: f64 =
            (0..trials).map(|s| run_random(s as u64, 18)).sum::<f64>() / trials as f64;
        assert!(
            bo_avg >= rnd_avg - 0.01,
            "BO {bo_avg} worse than random {rnd_avg}"
        );
        assert!(bo_avg > 0.97, "BO failed to near-optimize: {bo_avg}");
    }

    #[test]
    fn delta_threshold_stops_early() {
        let f = |x: &[f64]| -(x[0] * x[0]);
        let pool = grid_pool(21);
        let cfg = BoConfig {
            n_init: 4,
            batch: 2,
            mc_samples: 32,
            max_iters: 20,
            delta: 10.0, // absurdly loose: stop after two iterations
            kind: AcqKind::QNei,
        };
        let r = run(f, &pool, &cfg, 2, &DecisionBudget::unlimited());
        assert!(r.converged);
        assert!(r.iters_run <= 2, "ran {} iters", r.iters_run);
    }

    #[test]
    fn all_acquisitions_run_end_to_end() {
        let f = |x: &[f64]| 1.0 - (x[0] - 0.5).abs();
        let pool = grid_pool(21);
        for kind in [
            AcqKind::QNei,
            AcqKind::QEi,
            AcqKind::QUcb { beta: 2.0 },
            AcqKind::QSr,
        ] {
            let cfg = BoConfig {
                n_init: 4,
                batch: 2,
                mc_samples: 32,
                max_iters: 4,
                delta: 1e-9,
                kind,
            };
            let r = run(f, &pool, &cfg, 3, &DecisionBudget::unlimited());
            assert!(
                (r.best_x[0] - 0.5).abs() < 0.2,
                "{kind:?} landed at {:?}",
                r.best_x
            );
        }
    }

    #[test]
    fn trace_is_monotone_nondecreasing() {
        let f = |x: &[f64]| x[0];
        let pool = grid_pool(11);
        let cfg = BoConfig {
            n_init: 3,
            batch: 1,
            mc_samples: 32,
            max_iters: 5,
            delta: 1e-12,
            kind: AcqKind::QSr,
        };
        let r = run(f, &pool, &cfg, 4, &DecisionBudget::unlimited());
        assert!(r.best_trace.windows(2).all(|w| w[1] >= w[0] - 1e-15));
        assert_eq!(r.best_trace.len(), r.iters_run + 1);
    }

    #[test]
    fn ample_budget_is_identical_to_unlimited() {
        let f = |x: &[f64]| -(x[0] - 0.3) * (x[0] - 0.3);
        let pool = grid_pool(31);
        let cfg = BoConfig {
            n_init: 5,
            batch: 2,
            mc_samples: 32,
            max_iters: 4,
            delta: 1e-9,
            kind: AcqKind::QNei,
        };
        // A finite budget that never refuses a charge must not perturb
        // the search: charging is bookkeeping, not control flow.
        let a = run(f, &pool, &cfg, 9, &DecisionBudget::unlimited());
        let ample = DecisionBudget::limited(u64::MAX / 2);
        let b = run(f, &pool, &cfg, 9, &ample);
        assert!(ample.spent() > 0);
        assert_eq!(a.best_x, b.best_x);
        assert_eq!(a.best_value.to_bits(), b.best_value.to_bits());
        assert_eq!(a.observations.len(), b.observations.len());
        assert_eq!(a.iters_run, b.iters_run);
        assert!(!b.budget_stopped);
    }

    #[test]
    fn exhausted_budget_early_exits_keeping_best_so_far() {
        let f = |x: &[f64]| x[0];
        let pool = grid_pool(21);
        let cfg = BoConfig {
            n_init: 4,
            batch: 2,
            mc_samples: 32,
            max_iters: 10,
            delta: 1e-12,
            kind: AcqKind::QNei,
        };
        // Enough for the initial design plus one refit, then dry.
        let budget = DecisionBudget::limited(4 * cost::OBJ_EVAL + cost::GP_FIT);
        let r = run(f, &pool, &cfg, 6, &budget);
        assert!(r.budget_stopped);
        assert!(!r.converged);
        assert_eq!(r.observations.len(), 4, "only the initial design ran");
        let init_best = r
            .observations
            .iter()
            .map(|&(_, y)| y)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(r.best_value.to_bits(), init_best.to_bits());
        assert_eq!(budget.overruns(), 0);
        assert!(budget.spent() <= budget.limit());
    }

    #[test]
    fn starved_budget_still_observes_one_point() {
        let f = |x: &[f64]| x[0];
        let pool = grid_pool(7);
        let cfg = BoConfig {
            n_init: 3,
            batch: 1,
            mc_samples: 16,
            max_iters: 3,
            delta: 1e-12,
            kind: AcqKind::QNei,
        };
        let budget = DecisionBudget::limited(1); // below even one OBJ_EVAL
        let r = run(f, &pool, &cfg, 7, &budget);
        assert_eq!(r.observations.len(), 1);
        assert!(r.budget_stopped);
        assert_eq!(budget.overruns(), 1, "the mandatory floor overran");
    }

    #[test]
    fn budget_truncation_is_deterministic() {
        let f = |x: &[f64]| 1.0 - (x[0] - 0.6).abs();
        let pool = grid_pool(25);
        let cfg = BoConfig {
            n_init: 4,
            batch: 2,
            mc_samples: 32,
            max_iters: 6,
            delta: 1e-12,
            kind: AcqKind::QNei,
        };
        let run = || {
            let budget = DecisionBudget::limited(120);
            let r = run(f, &pool, &cfg, 8, &budget);
            (
                r.best_x,
                r.best_value.to_bits(),
                r.observations.len(),
                budget.spent(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batch_larger_than_pool_is_safe() {
        let f = |x: &[f64]| x[0];
        let pool = grid_pool(3);
        let cfg = BoConfig {
            n_init: 2,
            batch: 10,
            mc_samples: 16,
            max_iters: 2,
            delta: 1e-12,
            kind: AcqKind::QNei,
        };
        let r = run(f, &pool, &cfg, 5, &DecisionBudget::unlimited());
        assert!(r.best_value >= 0.5);
    }

    /// Each refused input is an error returned before the loop draws
    /// from the caller's RNG, never a panic.
    fn refused(pool: &[Vec<f64>], cfg: &BoConfig) -> BoError {
        use rand::Rng as _;
        let mut rng = seeded(10);
        let err = bo_maximize(
            |x: &[f64]| x[0],
            gp_fit,
            pool,
            cfg,
            &mut rng,
            &DecisionBudget::unlimited(),
            &NoopRecorder,
        )
        .unwrap_err();
        assert_eq!(rng.gen::<u64>(), seeded(10).gen::<u64>(), "{err}");
        err
    }

    fn small_cfg() -> BoConfig {
        BoConfig {
            n_init: 2,
            batch: 1,
            mc_samples: 8,
            max_iters: 2,
            delta: 1e-12,
            kind: AcqKind::QNei,
        }
    }

    fn invalid(context: &'static str) -> BoError {
        BoError::InvalidInput { context }
    }

    #[test]
    fn empty_pool_is_an_error() {
        let err = refused(&[], &small_cfg());
        assert_eq!(err, invalid("empty candidate pool"));
    }

    #[test]
    fn zero_n_init_is_an_error() {
        let err = refused(
            &grid_pool(5),
            &BoConfig {
                n_init: 0,
                ..small_cfg()
            },
        );
        assert_eq!(err, invalid("n_init must be positive"));
    }

    #[test]
    fn zero_batch_is_an_error() {
        let err = refused(
            &grid_pool(5),
            &BoConfig {
                batch: 0,
                ..small_cfg()
            },
        );
        assert_eq!(err, invalid("batch must be positive"));
    }

    #[test]
    fn zero_mc_samples_is_an_error() {
        let cfg = BoConfig {
            mc_samples: 0,
            ..small_cfg()
        };
        assert_eq!(
            refused(&grid_pool(5), &cfg),
            invalid("mc_samples must be positive")
        );
    }

    #[test]
    fn negative_ucb_beta_is_an_error() {
        let cfg = BoConfig {
            kind: AcqKind::QUcb { beta: -1.0 },
            ..small_cfg()
        };
        assert_eq!(
            refused(&grid_pool(5), &cfg),
            invalid("qUCB beta must be non-negative")
        );
    }
}
