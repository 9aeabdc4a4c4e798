//! Online periodic scheduling under content drift.
//!
//! The deployed scheduler of Sec. 2.1 "periodically collects performance
//! and resource information ... \[and\] adjusts configuration and
//! scheduling decisions". This module runs PaMO across scheduling
//! epochs over a [`DriftingScenario`]: each epoch re-profiles a small
//! number of samples per camera, re-runs the BO loop, and records the
//! realized benefit — against a *static* policy that keeps epoch-0's
//! decision forever (the natural no-adaptation baseline).
//!
//! The preference function does not drift (pricing rules change on
//! slower timescales than video content); the preference is elicited or
//! given once and reused across epochs.

use eva_net::LinkEstimator;
use eva_obs::{emit_warn, span, DecisionRung, ObsEvent, Phase, Recorder};
use eva_workload::{DriftingScenario, Scenario, VideoConfig};
use rand::Rng;

use crate::benefit::TruePreference;
use crate::error::{require, CoreError};
use crate::pamo::{Pamo, PamoConfig};

/// Per-epoch record of the online run.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Content divergence from epoch 0 at decision time.
    pub divergence: f64,
    /// True benefit of the freshly re-optimized decision.
    pub online_benefit: f64,
    /// True benefit of epoch-0's decision evaluated on this epoch's
    /// content (`None` if it became unschedulable under drift).
    pub static_benefit: Option<f64>,
    /// The online decision's configurations.
    pub configs: Vec<VideoConfig>,
    /// Per-server planning bandwidths the epoch's decision used
    /// (`None` when planning on the true uplinks — the oracle-B path).
    pub planning_bps: Option<Vec<f64>>,
    /// Which servers the decision was planned against (all `true` in
    /// fault-free runs; failure-aware runs mask out down servers).
    pub alive: Vec<bool>,
    /// Whether this epoch served a degraded decision — a fallback
    /// configuration or a placement on a strict subset of the servers.
    pub degraded: bool,
    /// The escalation-ladder rung the epoch's decision ran at. Plain
    /// online runs always run the full pipeline
    /// ([`DecisionRung::Full`]); budgeted serving runs degrade to
    /// [`DecisionRung::Repair`] (re-place existing configurations) or
    /// [`DecisionRung::Stale`] (reuse the deployed plan) when the
    /// decision budget runs short.
    pub rung: DecisionRung,
}

/// Result of an online run.
#[derive(Debug, Clone)]
pub struct OnlineRun {
    /// One record per epoch.
    pub epochs: Vec<EpochRecord>,
    /// Whether the run ever degraded: an epoch was skipped after a
    /// decision failure, or served under failures. An all-failed run
    /// has `epochs.is_empty()` and `degraded == true`; its
    /// `mean_*_benefit` are 0.0 by construction, and this flag is what
    /// distinguishes them from a genuine zero-benefit run.
    pub degraded: bool,
}

impl OnlineRun {
    /// Mean online benefit across epochs (0 for an empty run — never
    /// NaN).
    pub fn mean_online_benefit(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(|e| e.online_benefit).sum::<f64>() / self.epochs.len() as f64
    }

    /// Mean static-policy benefit over the epochs where it stayed
    /// feasible (infeasible epochs are charged the worst benefit
    /// observed minus one scale unit — going dark is worse than any
    /// feasible outcome). 0 for an empty run — never NaN.
    pub fn mean_static_benefit(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        let worst_online = self
            .epochs
            .iter()
            .map(|e| e.online_benefit)
            .fold(f64::INFINITY, f64::min);
        self.epochs
            .iter()
            .map(|e| e.static_benefit.unwrap_or(worst_online - 1.0))
            .sum::<f64>()
            / self.epochs.len() as f64
    }
}

/// Run PaMO online for `n_epochs` over a drifting deployment.
///
/// `preference_weights` defines the hidden preference, which is
/// re-anchored to the *initial* scenario's normalization and reused
/// across epochs (pricing rules do not drift here). The per-epoch
/// scheduler uses `config` as-is; pass small budgets for fast epochs.
///
/// Each epoch runs under an `epoch` span, skip decisions become
/// structured warn events (still mirrored to stderr), and per-epoch
/// counters accumulate in `rec`. Recorders never touch the RNG stream:
/// a [`eva_obs::NoopRecorder`] run and a recorded run are
/// bit-identical. Errors only on `n_epochs == 0`.
pub fn run_online<R: Rng + ?Sized>(
    drifting: &mut DriftingScenario,
    config: &PamoConfig,
    weights: [f64; eva_workload::N_OBJECTIVES],
    n_epochs: usize,
    rng: &mut R,
    rec: &dyn Recorder,
) -> Result<OnlineRun, CoreError> {
    online_loop(drifting, config, weights, n_epochs, None, rng, rec)
}

/// Noise-free delivery samples fed per stream each epoch. Enough for an
/// EWMA with TCP-style `α = 1/8` to close most of the gap in one epoch
/// while still exercising multi-epoch convergence.
const DELIVERY_SAMPLES_PER_STREAM: usize = 8;

/// Like [`run_online`], but the scheduler plans against *estimated*
/// bandwidths: one [`LinkEstimator`] per server, re-fed each epoch with
/// the realized per-frame deliveries of the streams placed on it. The
/// next epoch's decision then uses `B̂ / headroom` as its planning
/// bandwidth ([`Scenario::with_planning_uplinks`]); realized outcomes
/// keep being charged at the true uplink rates. Epoch 0 — before any
/// observation exists — plans on the provisioned uplinks, as does any
/// server that has not yet carried a stream. Errors on
/// `n_epochs == 0`, when `estimators` is not one per server, or when
/// `headroom` is not finite and positive. An epoch whose estimates are
/// not finite positive rates is skipped like a failed decision.
#[allow(clippy::too_many_arguments)]
pub fn run_online_estimated<R: Rng + ?Sized>(
    drifting: &mut DriftingScenario,
    config: &PamoConfig,
    weights: [f64; eva_workload::N_OBJECTIVES],
    n_epochs: usize,
    estimators: &mut [Box<dyn LinkEstimator>],
    headroom: f64,
    rng: &mut R,
    rec: &dyn Recorder,
) -> Result<OnlineRun, CoreError> {
    require(
        estimators.len() == drifting.snapshot().n_servers(),
        "one link estimator per server",
    )?;
    require(
        headroom.is_finite() && headroom > 0.0,
        "headroom must be finite and positive",
    )?;
    let feed = EstimatorFeed {
        estimators,
        headroom,
    };
    online_loop(drifting, config, weights, n_epochs, Some(feed), rng, rec)
}

/// The bandwidth-estimation side of [`run_online_estimated`].
struct EstimatorFeed<'a> {
    estimators: &'a mut [Box<dyn LinkEstimator>],
    headroom: f64,
}

impl EstimatorFeed<'_> {
    /// Per-server estimates (`None` until any estimator has been fed).
    /// A server that has never carried a stream has no observations; it
    /// keeps planning at its provisioned rate (encoded as
    /// `provisioned * headroom` so the planning division lands back on
    /// the provisioned value).
    fn estimates(&self, base: &Scenario) -> Option<Vec<f64>> {
        let warmed = self.estimators.iter().any(|e| e.estimate_bps().is_some());
        warmed.then(|| {
            self.estimators
                .iter()
                .zip(base.uplinks())
                .map(|(e, &b)| e.estimate_bps().unwrap_or(b * self.headroom))
                .collect()
        })
    }

    /// Re-feed the estimators with one epoch's realized deliveries:
    /// each placed stream part transmitted frames of `bits` at the
    /// *true* uplink rate of its server.
    fn observe(&mut self, scenario: &Scenario, configs: &[VideoConfig]) {
        let Ok(assignment) = scenario.schedule(configs) else {
            return;
        };
        for (i, st) in assignment.streams.iter().enumerate() {
            let src = st.id.source;
            let server = assignment.server_of[i];
            let bits = scenario
                .surfaces(src)
                .bits_per_frame(configs[src].resolution);
            let duration_s = bits / scenario.uplinks()[server];
            for _ in 0..DELIVERY_SAMPLES_PER_STREAM {
                self.estimators[server].observe(bits / 8.0, duration_s);
            }
        }
    }
}

/// Log one skipped epoch: a structured warn event (mirrored to stderr)
/// carrying the stale rung, plus the skip counter.
fn skip_epoch(rec: &dyn Recorder, epoch: usize, why: &str) {
    emit_warn(
        rec,
        ObsEvent::warn(
            "epoch_skipped",
            format!("run_online: epoch {epoch}: {why} — skipping"),
        )
        .with("epoch", epoch)
        .with("rung", DecisionRung::Stale.as_str()),
    );
    if rec.enabled() {
        rec.add("online.epochs_skipped", 1);
    }
}

/// The one online loop body behind [`run_online`] and
/// [`run_online_estimated`]; `feed` switches planning onto estimated
/// bandwidths.
#[allow(clippy::too_many_arguments)]
fn online_loop<R: Rng + ?Sized>(
    drifting: &mut DriftingScenario,
    config: &PamoConfig,
    weights: [f64; eva_workload::N_OBJECTIVES],
    n_epochs: usize,
    mut feed: Option<EstimatorFeed<'_>>,
    rng: &mut R,
    rec: &dyn Recorder,
) -> Result<OnlineRun, CoreError> {
    require(n_epochs > 0, "zero epochs")?;
    let initial = drifting.snapshot();
    // One scheduler for the whole run: per-epoch refits warm-start from
    // the previous epoch's fitted GP hyperparameters (see `Pamo`).
    let pamo = Pamo::new(config.clone());

    let mut static_configs: Option<Vec<VideoConfig>> = None;
    let mut epochs = Vec::with_capacity(n_epochs);
    let mut skipped = false;

    for epoch in 0..n_epochs {
        let _epoch_span = span(rec, Phase::Epoch);
        if rec.enabled() {
            rec.add("online.epochs", 1);
        }
        let base = drifting.snapshot();
        let estimates = feed.as_ref().and_then(|f| f.estimates(&base));
        let scenario = match (&estimates, &feed) {
            (Some(est), Some(f)) => match base.with_planning_uplinks(est.clone(), f.headroom) {
                Ok(planned) => planned,
                Err(e) => {
                    skip_epoch(rec, epoch, &format!("unusable bandwidth estimates ({e})"));
                    skipped = true;
                    drifting.advance(rng);
                    continue;
                }
            },
            _ => base,
        };
        // Preference anchored per-epoch scenario so benefit scales stay
        // comparable (the weights, i.e. the pricing, are constant).
        let pref = TruePreference::new(&scenario, weights);

        // A failed or non-finite decision degrades to a skipped epoch
        // (the deployment keeps serving its previous configuration);
        // it must never abort the run.
        let decided = pamo
            .decide_surviving_recorded(&scenario, &pref, None, rng, rec)
            .map_err(|e| format!("decision failed ({e})"))
            .and_then(|d| {
                if d.true_benefit.is_finite() {
                    Ok(d)
                } else {
                    Err(format!("non-finite benefit {}", d.true_benefit))
                }
            });
        let decision = match decided {
            Ok(d) => d,
            Err(why) => {
                skip_epoch(rec, epoch, &why);
                skipped = true;
                drifting.advance(rng);
                continue;
            }
        };
        if static_configs.is_none() {
            static_configs = Some(decision.configs.clone());
        }
        let static_benefit = static_configs
            .as_ref()
            .and_then(|configs| {
                scenario
                    .evaluate(configs)
                    .ok()
                    .map(|so| pref.benefit(&so.outcome))
            })
            .filter(|b| b.is_finite());
        let planning_bps = match &mut feed {
            Some(f) => {
                f.observe(&scenario, &decision.configs);
                estimates.map(|est| est.iter().map(|b| b / f.headroom).collect())
            }
            None => None,
        };

        epochs.push(EpochRecord {
            epoch,
            divergence: drifting.divergence_from(&initial),
            online_benefit: decision.true_benefit,
            static_benefit,
            configs: decision.configs,
            planning_bps,
            alive: vec![true; scenario.n_servers()],
            degraded: false,
            rung: DecisionRung::Full,
        });
        drifting.advance(rng);
    }
    Ok(OnlineRun {
        epochs,
        degraded: skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pamo::PreferenceSource;
    use eva_bo::{AcqKind, BoConfig};
    use eva_obs::NoopRecorder;
    use eva_stats::rng::seeded;

    fn tiny_config() -> PamoConfig {
        PamoConfig {
            bo: BoConfig {
                n_init: 4,
                batch: 2,
                mc_samples: 16,
                max_iters: 3,
                delta: 0.02,
                kind: AcqKind::QNei,
            },
            pool_size: 20,
            profiling_per_camera: 20,
            profile_noise: 0.02,
            n_comparisons: 6,
            elicit_candidates: 15,
            preference: PreferenceSource::Oracle,
        }
    }

    #[test]
    fn online_runs_all_epochs_and_tracks_divergence() {
        let base = Scenario::uniform(3, 2, 20e6, 61);
        let mut drifting = DriftingScenario::new(&base, 0.08);
        let run = run_online(
            &mut drifting,
            &tiny_config(),
            [1.0; 5],
            5,
            &mut seeded(1),
            &NoopRecorder,
        )
        .expect("valid inputs");
        assert_eq!(run.epochs.len(), 5);
        assert_eq!(run.epochs[0].divergence, 0.0);
        assert!(run.epochs[4].divergence > 0.0);
        assert!(!run.degraded, "fault-free run must not flag degraded");
        for e in &run.epochs {
            assert!(e.online_benefit <= 0.0);
            assert_eq!(e.configs.len(), 3);
            assert!(e.alive.iter().all(|&a| a));
            assert!(!e.degraded);
        }
    }

    #[test]
    fn online_adaptation_not_worse_than_static() {
        // Averaged over epochs, re-optimizing must match or beat the
        // frozen epoch-0 decision (it can always re-pick it).
        let base = Scenario::uniform(3, 2, 20e6, 62);
        let mut drifting = DriftingScenario::new(&base, 0.10);
        let run = run_online(
            &mut drifting,
            &tiny_config(),
            [1.0; 5],
            6,
            &mut seeded(2),
            &NoopRecorder,
        )
        .expect("valid inputs");
        let online = run.mean_online_benefit();
        let fixed = run.mean_static_benefit();
        // Tolerance for observation noise in tiny-budget BO runs.
        assert!(
            online >= fixed - 0.10,
            "online {online} much worse than static {fixed}"
        );
    }

    #[test]
    fn empty_run_benefits_are_zero_not_nan() {
        // An all-failed run: no epochs survived, degraded is raised.
        let run = OnlineRun {
            epochs: vec![],
            degraded: true,
        };
        assert_eq!(run.mean_online_benefit(), 0.0);
        assert_eq!(run.mean_static_benefit(), 0.0);
        assert!(run.mean_online_benefit().is_finite());
        assert!(run.mean_static_benefit().is_finite());
        assert!(run.degraded, "all-failed run must be flagged degraded");
    }

    #[test]
    fn estimated_run_converges_to_true_uplinks() {
        use eva_net::EwmaEstimator;

        let base = Scenario::uniform(3, 2, 20e6, 64);
        let mut drifting = DriftingScenario::new(&base, 0.05);
        let mut estimators: Vec<Box<dyn LinkEstimator>> = (0..2)
            .map(|_| Box::new(EwmaEstimator::default()) as Box<dyn LinkEstimator>)
            .collect();
        let run = run_online_estimated(
            &mut drifting,
            &tiny_config(),
            [1.0; 5],
            4,
            &mut estimators,
            1.1,
            &mut seeded(4),
            &NoopRecorder,
        )
        .expect("valid inputs");
        assert_eq!(run.epochs.len(), 4);
        // Epoch 0 has no observations — the oracle-B path.
        assert!(run.epochs[0].planning_bps.is_none());
        // Later epochs plan on estimates; deliveries are noise-free at
        // the true 20 Mb/s, so estimates converge there and planning
        // sits at estimate/headroom.
        let last = run.epochs.last().unwrap();
        let planning = last.planning_bps.as_ref().expect("estimates warmed up");
        assert_eq!(planning.len(), 2);
        assert!(
            estimators.iter().any(|e| e.estimate_bps().is_some()),
            "no estimator ever fed"
        );
        for (est, &b) in estimators.iter().zip(planning.iter()) {
            match est.estimate_bps() {
                // Fed server: noise-free deliveries at the true 20 Mb/s
                // converge exactly; planning = estimate / headroom.
                Some(e) => {
                    assert!(
                        (e - 20e6).abs() / 20e6 < 0.05,
                        "estimate {e} far from true 20e6"
                    );
                    assert!((b - e / 1.1).abs() < 1e-6);
                }
                // Never-fed server: plans at its provisioned rate.
                None => assert!((b - 20e6).abs() < 1e-6),
            }
        }
        for e in &run.epochs {
            assert!(e.online_benefit.is_finite());
        }
    }

    #[test]
    fn first_epoch_static_equals_online() {
        let base = Scenario::uniform(3, 2, 20e6, 63);
        let mut drifting = DriftingScenario::new(&base, 0.05);
        let run = run_online(
            &mut drifting,
            &tiny_config(),
            [1.0; 5],
            3,
            &mut seeded(3),
            &NoopRecorder,
        )
        .expect("valid inputs");
        let e0 = &run.epochs[0];
        let sb = e0.static_benefit.expect("epoch 0 is feasible");
        assert!((sb - e0.online_benefit).abs() < 1e-9);
    }

    #[test]
    fn zero_epochs_is_an_input_error() {
        let base = Scenario::uniform(3, 2, 20e6, 61);
        let mut drifting = DriftingScenario::new(&base, 0.05);
        let err = run_online(
            &mut drifting,
            &tiny_config(),
            [1.0; 5],
            0,
            &mut seeded(1),
            &NoopRecorder,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput { .. }), "{err}");
    }

    fn estimated_run_with_headroom(headroom: f64) -> Result<OnlineRun, CoreError> {
        use eva_net::EwmaEstimator;

        let base = Scenario::uniform(3, 2, 20e6, 64);
        let mut drifting = DriftingScenario::new(&base, 0.05);
        let mut estimators: Vec<Box<dyn LinkEstimator>> = (0..2)
            .map(|_| Box::new(EwmaEstimator::default()) as Box<dyn LinkEstimator>)
            .collect();
        run_online_estimated(
            &mut drifting,
            &tiny_config(),
            [1.0; 5],
            3,
            &mut estimators,
            headroom,
            &mut seeded(4),
            &NoopRecorder,
        )
    }

    fn assert_headroom_rejected(headroom: f64) {
        let err = estimated_run_with_headroom(headroom)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput { .. }), "{err}");
    }

    #[test]
    fn zero_headroom_is_an_input_error() {
        assert_headroom_rejected(0.0);
    }

    #[test]
    fn negative_headroom_is_an_input_error() {
        assert_headroom_rejected(-1.1);
    }

    #[test]
    fn nan_headroom_is_an_input_error() {
        assert_headroom_rejected(f64::NAN);
    }

    #[test]
    fn infinite_headroom_is_an_input_error() {
        assert_headroom_rejected(f64::INFINITY);
    }

    #[test]
    fn estimator_count_must_match_the_servers() {
        use eva_net::EwmaEstimator;

        let base = Scenario::uniform(3, 2, 20e6, 64);
        let mut drifting = DriftingScenario::new(&base, 0.05);
        let mut estimators: Vec<Box<dyn LinkEstimator>> = vec![Box::new(EwmaEstimator::default())];
        let err = run_online_estimated(
            &mut drifting,
            &tiny_config(),
            [1.0; 5],
            2,
            &mut estimators,
            1.1,
            &mut seeded(4),
            &NoopRecorder,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput { .. }), "{err}");
    }
}
