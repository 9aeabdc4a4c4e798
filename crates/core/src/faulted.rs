//! Failure-aware online scheduling: [`run_online`]'s sibling for a
//! world where servers crash, cameras drop out, and frames get lost.
//!
//! The deployment model matches Sec. 2.1's periodic controller, with a
//! failure detector bolted on: every server emits heartbeats while up;
//! at each epoch boundary the controller marks a server *alive* only if
//! it has heard a heartbeat recently (the server was continuously up
//! through the trailing heartbeat window — a freshly recovered server
//! is still invisible for one detection lag). The fault-aware scheduler
//! then re-runs Algorithm 1 + the BO loop restricted to survivors
//! ([`crate::pamo::Pamo::decide_surviving_recorded`]); the fault-oblivious
//! baseline keeps planning on the full server list and pays for it when
//! its placements land on dead machines. When even the survivors cannot
//! host a zero-jitter placement, the aware loop degrades to the best
//! *cheaper uniform* configuration that still fits (the fallback
//! ladder), and restores automatically once servers rejoin — recovery
//! needs no special casing because liveness is re-detected every epoch.
//!
//! Realized (as opposed to planned) benefit charges the faults: a
//! camera's accuracy contribution is scaled by the fraction of the
//! epoch its frames were actually generated, delivered (surviving
//! Bernoulli loss after bounded retries) and processed by an up server;
//! compute/energy are only spent while the processing server is up;
//! network is spent whenever the camera transmits. With the zero plan
//! every scale factor is exactly 1.0 and the whole module delegates to
//! [`run_online`] — bit-identical by construction.

use eva_fault::process::secs_to_ticks;
use eva_fault::{AvailabilityTrace, FaultPlan};
use eva_obs::{emit_warn, span, NoopRecorder, ObsEvent, Phase, Recorder};
use eva_sched::Assignment;
use eva_workload::{DriftingScenario, Outcome, Scenario, VideoConfig};
use rand::Rng;

use crate::benefit::TruePreference;
use crate::error::{require, CoreError};
use crate::online::{run_online, EpochRecord, OnlineRun};
use crate::pamo::{Pamo, PamoConfig};

/// Knobs of the failure-aware online loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultedRunConfig {
    /// Wall-clock length of one scheduling epoch (seconds).
    pub epoch_s: f64,
    /// Heartbeat timeout: a server is detected alive at an epoch
    /// boundary only if it was continuously up over the trailing window
    /// of this length (detection lag for fresh recoveries).
    pub heartbeat_s: f64,
    /// `true` — re-plan on detected survivors (fault-aware PaMO);
    /// `false` — ignore the detector and plan on all servers (the
    /// fault-oblivious baseline). Realized benefit charges the truth
    /// either way.
    pub fault_aware: bool,
}

impl Default for FaultedRunConfig {
    fn default() -> Self {
        FaultedRunConfig {
            epoch_s: 30.0,
            heartbeat_s: 2.0,
            fault_aware: true,
        }
    }
}

/// Run PaMO online under a fault plan.
///
/// With `plan = None` or a zero plan this *is* [`run_online`] — same
/// code path, bit-identical records. Otherwise each epoch detects the
/// surviving servers, plans (restricted to survivors when
/// `cfg.fault_aware`), degrades to a feasible uniform fallback when the
/// decision pipeline fails, and records the *realized* benefit under
/// the materialized fault traces.
///
/// Epochs run under `epoch` spans, fallback-ladder scans under
/// `fallback` spans, liveness transitions become structured info
/// events, and degradations become warn events (mirrored to stderr).
/// Recorders never touch the RNG stream: a
/// [`eva_obs::NoopRecorder`] run and a recorded run are bit-identical.
/// Errors on zero epochs, a non-positive epoch, a negative heartbeat,
/// or a plan sized for another deployment.
#[allow(clippy::too_many_arguments)]
pub fn run_online_faulted<R: Rng + ?Sized>(
    drifting: &mut DriftingScenario,
    config: &PamoConfig,
    weights: [f64; eva_workload::N_OBJECTIVES],
    n_epochs: usize,
    plan: Option<&FaultPlan>,
    cfg: &FaultedRunConfig,
    rng: &mut R,
    rec: &dyn Recorder,
) -> Result<OnlineRun, CoreError> {
    require(n_epochs > 0, "zero epochs")?;
    check_timing(cfg.epoch_s, cfg.heartbeat_s)?;
    let Some(plan) = plan.filter(|p| !p.is_zero()) else {
        // The observational identity: nothing can fail, so the
        // fault-free engine runs — bit-identical by delegation.
        return run_online(drifting, config, weights, n_epochs, rng, rec);
    };

    let initial = drifting.snapshot();
    check_plan(plan, &initial)?;
    let pamo = Pamo::new(config.clone());

    let epoch_len = secs_to_ticks(cfg.epoch_s).max(1);
    let heartbeat = secs_to_ticks(cfg.heartbeat_s);
    let horizon = epoch_len * n_epochs as u64 + 1;
    let server_up = plan.server_availability(horizon);
    let camera_up = plan.camera_availability(horizon);
    // Residual per-frame loss after the retry budget: a frame survives
    // unless every one of the 1 + max_retries transmissions is lost.
    let survive: Vec<f64> = plan
        .cameras
        .iter()
        .map(|c| 1.0 - c.loss.p.powi(plan.retry.max_retries as i32 + 1))
        .collect();

    let mut static_configs: Option<Vec<VideoConfig>> = None;
    let mut epochs = Vec::with_capacity(n_epochs);
    let mut any_degraded = false;
    let mut prev_alive: Option<Vec<bool>> = None;

    for epoch in 0..n_epochs {
        let _epoch_span = span(rec, Phase::Epoch);
        if rec.enabled() {
            rec.add("online.epochs", 1);
        }
        let scenario = drifting.snapshot();
        let pref = TruePreference::new(&scenario, weights);
        let t = epoch as u64 * epoch_len;
        let window = (t, t + epoch_len);

        // Heartbeat-timeout failure detection at the epoch boundary.
        let alive: Vec<bool> = server_up
            .iter()
            .map(|up| up.is_up_throughout(t.saturating_sub(heartbeat), t))
            .collect();
        let n_alive = alive.iter().filter(|&&a| a).count();

        // Liveness transitions as structured info events (telemetry
        // only — the detector itself is silent in production logs).
        if rec.enabled() {
            let prev = prev_alive.as_deref().unwrap_or(&[]);
            for (server, &is_up) in alive.iter().enumerate() {
                let was_up = prev.get(server).copied().unwrap_or(true);
                if was_up && !is_up {
                    rec.add("fault.detections", 1);
                    rec.event(
                        ObsEvent::info(
                            "server_down_detected",
                            format!("epoch {epoch}: server {server} detected down"),
                        )
                        .with("epoch", epoch)
                        .with("server", server),
                    );
                } else if !was_up && is_up {
                    rec.add("fault.restores", 1);
                    rec.event(
                        ObsEvent::info(
                            "server_restored",
                            format!("epoch {epoch}: server {server} detected back up"),
                        )
                        .with("epoch", epoch)
                        .with("server", server),
                    );
                }
            }
        }
        prev_alive = Some(alive.clone());

        let mask: Option<&[bool]> = if cfg.fault_aware && n_alive < alive.len() {
            Some(&alive)
        } else {
            None
        };
        if cfg.fault_aware && n_alive == 0 {
            // Whole-cluster outage: nothing to schedule on. Serve
            // nothing this epoch and retry at the next boundary.
            emit_warn(
                rec,
                ObsEvent::warn(
                    "cluster_outage",
                    format!("run_online_faulted: epoch {epoch}: no servers alive — skipping"),
                )
                .with("epoch", epoch),
            );
            any_degraded = true;
            drifting.advance(rng);
            continue;
        }

        // Plan the epoch; a failed decision or placement degrades to
        // the uniform fallback rather than ending the run.
        let planned = match pamo.decide_surviving_recorded(&scenario, &pref, mask, rng, rec) {
            Ok(d) => scenario
                .schedule_surviving(&d.configs, mask, rec)
                .ok()
                .map(|a| (d.configs, a)),
            Err(e) => {
                emit_warn(
                    rec,
                    ObsEvent::warn(
                        "decision_failed",
                        format!("run_online_faulted: epoch {epoch}: decision failed ({e})"),
                    )
                    .with("epoch", epoch),
                );
                None
            }
        };
        let (configs, assignment, fell_back) = match planned {
            Some((c, a)) => (c, a, false),
            None => match fallback_uniform(&scenario, &pref, mask, rec) {
                Some((c, a)) => (c, a, true),
                None => {
                    emit_warn(
                        rec,
                        ObsEvent::warn(
                            "no_fallback",
                            format!(
                                "run_online_faulted: epoch {epoch}: \
                                 no feasible fallback — skipping"
                            ),
                        )
                        .with("epoch", epoch),
                    );
                    any_degraded = true;
                    drifting.advance(rng);
                    continue;
                }
            },
        };
        if fell_back && rec.enabled() {
            rec.add("fault.fallbacks", 1);
        }

        let online_benefit = realized_epoch_benefit(
            &scenario,
            &configs,
            &assignment,
            &pref,
            &server_up,
            &camera_up,
            &survive,
            window,
        );
        if !online_benefit.is_finite() {
            emit_warn(
                rec,
                ObsEvent::warn(
                    "non_finite_benefit",
                    format!(
                        "run_online_faulted: epoch {epoch}: \
                         non-finite realized benefit — skipping"
                    ),
                )
                .with("epoch", epoch),
            );
            any_degraded = true;
            drifting.advance(rng);
            continue;
        }

        if static_configs.is_none() {
            static_configs = Some(configs.clone());
        }
        // The frozen epoch-0 policy, charged under the same faults.
        let static_benefit = static_configs.as_ref().and_then(|sc| {
            scenario.schedule(sc).ok().map(|a| {
                realized_epoch_benefit(
                    &scenario, sc, &a, &pref, &server_up, &camera_up, &survive, window,
                )
            })
        });

        let degraded = fell_back || n_alive < alive.len();
        any_degraded |= degraded;
        epochs.push(EpochRecord {
            epoch,
            divergence: drifting.divergence_from(&initial),
            online_benefit,
            static_benefit,
            configs,
            planning_bps: None,
            alive,
            degraded,
            rung: eva_obs::DecisionRung::Full,
        });
        drifting.advance(rng);
    }
    Ok(OnlineRun {
        epochs,
        degraded: any_degraded,
    })
}

/// Preconditions on an epoch clock: `epoch_s > 0`, `heartbeat_s ≥ 0`.
pub(crate) fn check_timing(epoch_s: f64, heartbeat_s: f64) -> Result<(), CoreError> {
    require(epoch_s > 0.0, "epoch length must be positive")?;
    require(heartbeat_s >= 0.0, "heartbeat must be non-negative")
}

/// Preconditions on a fault plan: one server entry per server and one
/// camera entry per camera of `scenario`.
pub(crate) fn check_plan(plan: &FaultPlan, scenario: &Scenario) -> Result<(), CoreError> {
    require(
        plan.servers.len() == scenario.n_servers(),
        "fault plan / server count mismatch",
    )?;
    require(
        plan.cameras.len() == scenario.n_videos(),
        "fault plan / camera count mismatch",
    )
}

/// The fallback ladder: scan the (resolution-, fps-ordered) config grid
/// for uniform joint configurations that still admit a zero-jitter
/// placement on the surviving servers, and keep the best one by planned
/// benefit. Cheap by construction — the grid is small and scheduling a
/// uniform config is a single Algorithm-1 run.
pub(crate) fn fallback_uniform(
    scenario: &Scenario,
    pref: &TruePreference,
    alive: Option<&[bool]>,
    rec: &dyn Recorder,
) -> Option<(Vec<VideoConfig>, Assignment)> {
    let _fallback_span = span(rec, Phase::Fallback);
    let m = scenario.n_videos();
    let mut best: Option<(f64, Vec<VideoConfig>, Assignment)> = None;
    for c in scenario.config_space().iter() {
        let configs = vec![c; m];
        let Ok(out) = scenario.evaluate_surviving(&configs, alive, &NoopRecorder) else {
            continue;
        };
        let b = pref.benefit(&out.outcome);
        if !b.is_finite() {
            continue;
        }
        if best.as_ref().is_none_or(|(bb, _, _)| b > *bb) {
            best = Some((b, configs, out.assignment));
        }
    }
    best.map(|(_, c, a)| (c, a))
}

/// Score a placed configuration against the *materialized* fault traces
/// over one epoch window: per-camera accuracy scales with the fraction
/// of frames generated (camera up), delivered (residual loss after
/// retries) and processed (assigned server up); compute/energy scale
/// with processing, network with transmission. Latency keeps its
/// fault-free value — delivered frames still ride the provisioned
/// uplink, and undelivered ones are charged through accuracy.
#[allow(clippy::too_many_arguments)]
fn realized_epoch_benefit(
    scenario: &Scenario,
    configs: &[VideoConfig],
    assignment: &Assignment,
    pref: &TruePreference,
    server_up: &[AvailabilityTrace],
    camera_up: &[AvailabilityTrace],
    survive: &[f64],
    (a, b): (u64, u64),
) -> f64 {
    let m = scenario.n_videos();
    // A source may split across servers: use the mean up-fraction of
    // its parts' servers as its processing availability.
    let mut proc_frac = vec![0.0; m];
    let mut parts = vec![0usize; m];
    for (i, st) in assignment.streams.iter().enumerate() {
        proc_frac[st.id.source] += server_up[assignment.server_of[i]].up_fraction(a, b);
        parts[st.id.source] += 1;
    }
    for (f, p) in proc_frac.iter_mut().zip(&parts) {
        *f /= (*p).max(1) as f64;
    }

    let mut acc = 0.0;
    let mut net = 0.0;
    let mut com = 0.0;
    let mut eng = 0.0;
    for (cam, c) in configs.iter().enumerate() {
        let s = scenario.surfaces(cam);
        let gen = camera_up[cam].up_fraction(a, b);
        let delivered = gen * survive[cam] * proc_frac[cam];
        acc += s.accuracy(c) * delivered;
        net += s.bandwidth_bps(c) * gen;
        com += s.compute_tflops(c) * gen * proc_frac[cam];
        eng += s.power_w(c) * gen * proc_frac[cam];
    }
    let mut lat_sum = 0.0;
    for (idx, st) in assignment.streams.iter().enumerate() {
        let src = st.id.source;
        let uplink = scenario.uplinks()[assignment.server_of[idx]];
        lat_sum += scenario
            .surfaces(src)
            .e2e_latency_secs(&configs[src], uplink);
    }
    let outcome = Outcome {
        latency_s: lat_sum / assignment.streams.len().max(1) as f64,
        accuracy: acc / m as f64,
        network_bps: net,
        compute_tflops: com,
        power_w: eng,
    };
    pref.benefit(&outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::run_online;
    use crate::pamo::PreferenceSource;
    use eva_bo::{AcqKind, BoConfig};
    use eva_obs::{FlightRecorder, NoopRecorder};
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

    fn base() -> Scenario {
        Scenario::uniform(3, 2, 20e6, 61)
    }

    #[test]
    fn zero_fault_run_is_bit_identical_to_run_online() {
        let sc = base();
        let plain = {
            let mut d = DriftingScenario::new(&sc, 0.08);
            run_online(
                &mut d,
                &tiny_config(),
                [1.0; 5],
                4,
                &mut seeded(9),
                &NoopRecorder,
            )
            .expect("valid inputs")
        };
        for plan in [None, Some(FaultPlan::none(2, 3))] {
            let mut d = DriftingScenario::new(&sc, 0.08);
            let faulted = run_online_faulted(
                &mut d,
                &tiny_config(),
                [1.0; 5],
                4,
                plan.as_ref(),
                &FaultedRunConfig::default(),
                &mut seeded(9),
                &NoopRecorder,
            )
            .expect("valid inputs");
            assert_eq!(faulted.epochs.len(), plain.epochs.len());
            assert!(!faulted.degraded);
            for (f, p) in faulted.epochs.iter().zip(&plain.epochs) {
                assert_eq!(
                    f.online_benefit.to_bits(),
                    p.online_benefit.to_bits(),
                    "epoch {} diverged",
                    f.epoch
                );
                assert_eq!(f.configs, p.configs);
                assert_eq!(
                    f.static_benefit.map(f64::to_bits),
                    p.static_benefit.map(f64::to_bits)
                );
            }
        }
    }

    #[test]
    fn crashes_mark_epochs_degraded_and_mask_dead_servers() {
        let sc = base();
        // MTTF 20 s, MTTR 40 s on a 30 s epoch: servers are down most
        // of the time, so some epoch must detect a dead server.
        let plan = FaultPlan::none(2, 3).with_server_crashes(20.0, 40.0, 11);
        let mut d = DriftingScenario::new(&sc, 0.05);
        let run = run_online_faulted(
            &mut d,
            &tiny_config(),
            [1.0; 5],
            5,
            Some(&plan),
            &FaultedRunConfig::default(),
            &mut seeded(3),
            &NoopRecorder,
        )
        .expect("valid inputs");
        assert!(run.degraded, "heavy crashes must degrade the run");
        let saw_dead = run
            .epochs
            .iter()
            .any(|e| e.alive.iter().any(|&a| !a) && e.degraded);
        assert!(
            saw_dead || run.epochs.len() < 5,
            "no epoch ever detected a dead server"
        );
        for e in &run.epochs {
            assert!(e.online_benefit.is_finite());
            assert_eq!(e.alive.len(), 2);
        }
    }

    #[test]
    fn fault_aware_beats_fault_oblivious_under_crashes() {
        let sc = base();
        let plan = FaultPlan::none(2, 3).with_server_crashes(25.0, 60.0, 5);
        let run = |aware: bool| {
            let mut d = DriftingScenario::new(&sc, 0.05);
            run_online_faulted(
                &mut d,
                &tiny_config(),
                [1.0; 5],
                4,
                Some(&plan),
                &FaultedRunConfig {
                    fault_aware: aware,
                    ..FaultedRunConfig::default()
                },
                &mut seeded(7),
                &NoopRecorder,
            )
            .expect("valid inputs")
        };
        let aware = run(true).mean_online_benefit();
        let oblivious = run(false).mean_online_benefit();
        assert!(
            aware >= oblivious - 1e-9,
            "fault-aware {aware} worse than oblivious {oblivious}"
        );
    }

    #[test]
    fn camera_dropout_lowers_realized_benefit() {
        let sc = base();
        let drop = FaultPlan::none(2, 3).with_camera_dropout(10.0, 50.0, 13);
        let run = |plan: Option<&FaultPlan>| {
            let mut d = DriftingScenario::new(&sc, 0.0);
            run_online_faulted(
                &mut d,
                &tiny_config(),
                [1.0; 5],
                3,
                plan,
                &FaultedRunConfig::default(),
                &mut seeded(21),
                &NoopRecorder,
            )
            .expect("valid inputs")
            .mean_online_benefit()
        };
        let clean = run(None);
        let dropped = run(Some(&drop));
        assert!(
            dropped < clean,
            "camera dropout did not hurt: {dropped} vs {clean}"
        );
    }

    fn faulted(
        n_epochs: usize,
        plan: &FaultPlan,
        cfg: &FaultedRunConfig,
    ) -> Result<OnlineRun, CoreError> {
        let mut d = DriftingScenario::new(&base(), 0.05);
        run_online_faulted(
            &mut d,
            &tiny_config(),
            [1.0; 5],
            n_epochs,
            Some(plan),
            cfg,
            &mut seeded(1),
            &NoopRecorder,
        )
    }

    fn assert_invalid(r: Result<OnlineRun, CoreError>) {
        let err = r.map(|_| ()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput { .. }), "{err}");
    }

    #[test]
    fn zero_epochs_is_an_input_error() {
        let plan = FaultPlan::none(2, 3);
        assert_invalid(faulted(0, &plan, &FaultedRunConfig::default()));
    }

    #[test]
    fn epoch_must_be_positive_and_heartbeat_non_negative() {
        let plan = FaultPlan::none(2, 3);
        for (epoch_s, heartbeat_s) in [(0.0, 2.0), (-1.0, 2.0), (30.0, -0.5)] {
            let cfg = FaultedRunConfig {
                epoch_s,
                heartbeat_s,
                ..FaultedRunConfig::default()
            };
            assert_invalid(faulted(2, &plan, &cfg));
        }
    }

    #[test]
    fn plan_must_match_the_server_and_camera_counts() {
        let cfg = FaultedRunConfig::default();
        // `base()` has 2 servers and 3 cameras.
        for plan in [FaultPlan::none(3, 3), FaultPlan::none(2, 4)] {
            let plan = plan.with_server_crashes(20.0, 40.0, 11);
            assert_invalid(faulted(2, &plan, &cfg));
        }
    }

    #[test]
    fn fallback_picks_the_best_uniform_config_on_the_survivors() {
        let sc = base();
        let pref = TruePreference::new(&sc, [1.0, 3.0, 1.0, 1.0, 1.0]);
        let alive = [false, true];
        let flight = FlightRecorder::new();
        let (configs, assignment) =
            fallback_uniform(&sc, &pref, Some(&alive), &flight).expect("server 1 hosts a config");
        assert!(configs.iter().all(|c| *c == configs[0]), "not uniform");
        assert!(assignment.server_of.iter().all(|&s| s == 1));
        // Brute force over the grid: no feasible uniform config plans a
        // higher benefit.
        let feasible: Vec<f64> = sc
            .config_space()
            .iter()
            .filter_map(|c| {
                sc.evaluate_surviving(&[c; 3], Some(&alive), &NoopRecorder)
                    .ok()
            })
            .map(|out| pref.benefit(&out.outcome))
            .collect();
        let best = feasible.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let chosen = sc
            .evaluate_surviving(&configs, Some(&alive), &NoopRecorder)
            .expect("the fallback is feasible");
        assert_eq!(pref.benefit(&chosen.outcome), best);
        let spans = flight.snapshot().phase_stats();
        assert_eq!(
            spans
                .iter()
                .find(|(p, _)| *p == Phase::Fallback)
                .map(|(_, s)| s.count),
            Some(1)
        );
    }

    #[test]
    fn fallback_is_none_when_nothing_fits_the_survivors() {
        let sc = base();
        let pref = TruePreference::uniform(&sc);
        let dead = [false, false];
        assert!(fallback_uniform(&sc, &pref, Some(&dead), &NoopRecorder).is_none());
    }
}
