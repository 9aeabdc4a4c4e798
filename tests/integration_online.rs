//! Tier-1 guards for the epoch loop: four seeded online runs — fault
//! free, fault-aware and fault-oblivious under one crash + frame-loss +
//! camera-dropout plan, and fault-aware through whole-cluster outages
//! that recover — hash to pinned constants.

use pamo::core::{run_online, FaultedRunConfig, OnlineRun, PamoConfig, PreferenceSource};
use pamo::fault::FaultPlan;
use pamo::obs::NoopRecorder;
use pamo::prelude::*;

const WEIGHTS: [f64; 5] = [1.0, 3.0, 1.0, 1.0, 1.0];
const DRIFT: f64 = 0.08;
const N_EPOCHS: usize = 4;
const SEED: u64 = 9;
/// FNV-1a hash of the fault-free run.
const PINNED_PLAIN_HASH: u64 = 0x51b8_c1c8_df99_e639;
/// FNV-1a hash of the fault-aware run under [`plan`].
const PINNED_AWARE_HASH: u64 = 0x04cd_0302_52e1_1013;
/// FNV-1a hash of the fault-oblivious run under [`plan`].
const PINNED_OBLIVIOUS_HASH: u64 = 0xa1ed_d57b_539f_7ef8;
/// FNV-1a hash of the fault-aware run under [`outage_plan`].
const PINNED_OUTAGE_HASH: u64 = 0x5ba6_d3ce_1b49_1f50;
/// Epochs of the outage run.
const OUTAGE_EPOCHS: usize = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

fn tiny_cfg() -> PamoConfig {
    let mut cfg = PamoConfig::default();
    cfg.bo.n_init = 4;
    cfg.bo.batch = 2;
    cfg.bo.max_iters = 3;
    cfg.bo.mc_samples = 16;
    cfg.pool_size = 20;
    cfg.profiling_per_camera = 20;
    cfg.preference = PreferenceSource::Oracle;
    cfg
}

fn scenario() -> Scenario {
    Scenario::uniform(3, 2, 20e6, 61)
}

/// Server crashes, 10 % frame loss and camera dropout on `scenario()`.
fn plan() -> FaultPlan {
    FaultPlan::none(2, 3)
        .with_server_crashes(25.0, 40.0, 5)
        .with_frame_loss(0.1, 7)
        .with_camera_dropout(40.0, 30.0, 13)
}

/// Crashes (MTTF 30 s, MTTR 25 s) that take both servers of
/// `scenario()` down at some epoch boundaries and bring them back for
/// later ones.
fn outage_plan() -> FaultPlan {
    FaultPlan::none(2, 3).with_server_crashes(30.0, 25.0, 11)
}

/// FNV-1a over every epoch's index, divergence, online and static
/// benefit bits, configurations, liveness mask, degraded flag and
/// rung, then the run's degraded flag.
fn hash(run: &OnlineRun) -> u64 {
    let mut h = fnv(FNV_OFFSET, run.epochs.len() as u64);
    for e in &run.epochs {
        h = fnv(h, e.epoch as u64);
        h = fnv(h, e.divergence.to_bits());
        h = fnv(h, e.online_benefit.to_bits());
        h = fnv(h, e.static_benefit.map_or(u64::MAX, f64::to_bits));
        for c in &e.configs {
            h = fnv(h, c.resolution.to_bits());
            h = fnv(h, c.fps.to_bits());
        }
        for &a in &e.alive {
            h = fnv(h, a as u64);
        }
        h = fnv(h, e.degraded as u64);
        h = fnv(h, e.rung.index() as u64);
    }
    fnv(h, run.degraded as u64)
}

fn plain() -> OnlineRun {
    run_online(
        &scenario(),
        DRIFT,
        &tiny_cfg(),
        WEIGHTS,
        N_EPOCHS,
        None,
        SEED,
        &NoopRecorder,
    )
    .expect("valid inputs")
}

fn faulted(plan: &FaultPlan, n_epochs: usize, fault_aware: bool) -> OnlineRun {
    let cfg = FaultedRunConfig {
        fault_aware,
        ..FaultedRunConfig::default()
    };
    run_online(
        &scenario(),
        DRIFT,
        &tiny_cfg(),
        WEIGHTS,
        n_epochs,
        Some((plan, &cfg)),
        SEED,
        &NoopRecorder,
    )
    .expect("valid inputs")
}

#[test]
fn plain_run_is_bit_pinned() {
    let run = plain();
    assert_eq!(run.epochs.len(), N_EPOCHS);
    assert_eq!(hash(&run), PINNED_PLAIN_HASH, "{:#x}", hash(&run));
}

#[test]
fn fault_aware_run_is_bit_pinned() {
    let run = faulted(&plan(), N_EPOCHS, true);
    assert!(run.degraded, "the plan must degrade some epoch");
    assert!(
        run.epochs.iter().any(|e| e.alive.contains(&false)),
        "the plan must take a server down at some boundary"
    );
    assert_eq!(hash(&run), PINNED_AWARE_HASH, "{:#x}", hash(&run));
}

#[test]
fn fault_oblivious_run_is_bit_pinned() {
    let run = faulted(&plan(), N_EPOCHS, false);
    assert_eq!(hash(&run), PINNED_OBLIVIOUS_HASH, "{:#x}", hash(&run));
}

#[test]
fn outage_run_is_bit_pinned() {
    let run = faulted(&outage_plan(), OUTAGE_EPOCHS, true);
    assert!(run.degraded);
    assert!(
        run.epochs.len() < OUTAGE_EPOCHS,
        "the plan must leave some boundary with no server alive"
    );
    assert!(
        run.epochs.windows(2).any(|w| w[1].epoch > w[0].epoch + 1),
        "the run must serve an epoch again after a skipped one"
    );
    assert_eq!(hash(&run), PINNED_OUTAGE_HASH, "{:#x}", hash(&run));
}
