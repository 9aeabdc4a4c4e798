//! Telemetry must be observationally free: a run under a live
//! [`eva_obs::FlightRecorder`] must produce bit-identical scheduler
//! output to the same run under the [`eva_obs::NoopRecorder`]. Recorders never touch RNG state or
//! numeric inputs; these tests pin that contract end to end across the
//! whole pipeline (profiling, GP fits, elicitation, BO search,
//! Algorithm-1 placement, the fault loop).

use eva_bo::{AcqKind, BoConfig};
use eva_fault::FaultPlan;
use eva_obs::{FlightRecorder, NoopRecorder, Phase, Recorder};
use eva_workload::Scenario;
use pamo_core::{run_online, FaultedRunConfig, OnlineRun, PamoConfig, PreferenceSource};

fn tiny_config(preference: PreferenceSource) -> PamoConfig {
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
        preference,
    }
}

fn assert_runs_bit_identical(a: &OnlineRun, b: &OnlineRun, what: &str) {
    assert_eq!(a.epochs.len(), b.epochs.len(), "{what}: epoch count");
    assert_eq!(a.degraded, b.degraded, "{what}: degraded flag");
    for (x, y) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(x.epoch, y.epoch, "{what}");
        assert_eq!(
            x.online_benefit.to_bits(),
            y.online_benefit.to_bits(),
            "{what}: epoch {} online benefit diverged",
            x.epoch
        );
        assert_eq!(
            x.static_benefit.map(f64::to_bits),
            y.static_benefit.map(f64::to_bits),
            "{what}: epoch {} static benefit diverged",
            x.epoch
        );
        assert_eq!(x.configs, y.configs, "{what}: epoch {} configs", x.epoch);
        assert_eq!(x.alive, y.alive, "{what}: epoch {} alive", x.epoch);
        assert_eq!(x.degraded, y.degraded, "{what}: epoch {}", x.epoch);
        assert_eq!(
            x.divergence.to_bits(),
            y.divergence.to_bits(),
            "{what}: epoch {} divergence",
            x.epoch
        );
    }
}

#[test]
fn online_run_identical_under_noop_and_flight_recorders() {
    // The learned-preference path exercises the full pipeline:
    // profiling + GP fit, elicitation, qNEI, Algorithm-1 placement.
    let cfg = tiny_config(PreferenceSource::Learned);
    let base = Scenario::uniform(3, 2, 20e6, 71);
    let run = |rec: &dyn Recorder| {
        run_online(&base, 0.08, &cfg, [1.0; 5], 3, None, 5, rec).expect("valid inputs")
    };

    let noop = run(&NoopRecorder);
    let flight = FlightRecorder::new();
    let recorded = run(&flight);

    assert_runs_bit_identical(&noop, &recorded, "noop vs flight");

    // And the flight recorder actually saw the pipeline: every phase of
    // the fault-free path has completed spans.
    let snap = flight.snapshot();
    let phases: Vec<Phase> = snap.phase_stats().iter().map(|&(p, _)| p).collect();
    for expect in [
        Phase::Epoch,
        Phase::Decide,
        Phase::OutcomeFit,
        Phase::PrefModel,
        Phase::BoSearch,
        Phase::BoPrepare,
        Phase::BoPosterior,
        Phase::BoAssemble,
        Phase::BoAcquisition,
        Phase::BankUpdate,
        Phase::GpFit,
        Phase::Grouping,
        Phase::Assignment,
    ] {
        assert!(
            phases.contains(&expect),
            "flight recorder never saw phase {expect:?} (got {phases:?})"
        );
    }
    for (p, s) in snap.phase_stats() {
        assert!(s.count > 0, "phase {p:?} has zero spans");
        assert!(s.total_s >= 0.0 && s.total_s.is_finite());
    }
    assert_eq!(snap.metrics.counter("serve.epochs"), 3);
    assert!(snap.metrics.counter("core.objective_evals") > 0);
    assert!(snap.metrics.counter("gp.fits") > 0);
    assert!(snap.metrics.counter("gp.prefix_solves") > 0);
    assert!(snap.metrics.counter("gp.factor_extensions") > 0);
    assert!(snap.metrics.counter("gp.tail_solves") > 0);
    assert!(snap.metrics.counter("bo.mc_draws") > 0);
    assert!(snap.metrics.counter("bo.clip_moments") > 0);
}

#[test]
fn faulted_run_identical_under_recorders() {
    // Heavy crashes force detection, whole-cluster outages and survivor
    // re-planning through the recorded path. No decide here fails, so
    // the fallback ladder never runs; unit tests in `online.rs` cover it.
    let cfg = tiny_config(PreferenceSource::Oracle);
    let base = Scenario::uniform(3, 2, 20e6, 72);
    let plan = FaultPlan::none(2, 3).with_server_crashes(20.0, 40.0, 11);
    let run_cfg = FaultedRunConfig::default();
    let run = |rec: &dyn Recorder| {
        run_online(
            &base,
            0.05,
            &cfg,
            [1.0; 5],
            4,
            Some((&plan, &run_cfg)),
            9,
            rec,
        )
        .expect("valid inputs")
    };

    let noop = run(&NoopRecorder);
    let flight = FlightRecorder::new();
    let recorded = run(&flight);

    assert_runs_bit_identical(&noop, &recorded, "faulted noop vs flight");

    let snap = flight.snapshot();
    assert_eq!(snap.metrics.counter("serve.epochs"), 4);
    // This plan crashes servers most of the time: the detector must
    // have fired at least once, as a counter and a structured event.
    assert!(
        snap.metrics.counter("fault.detections") > 0,
        "no fault detection recorded under heavy crashes"
    );
    assert!(
        snap.events.iter().any(|e| e.kind == "server_down_detected"),
        "no server_down_detected event recorded"
    );
}

#[test]
fn zero_fault_recorded_run_equals_the_unplanned_run() {
    // A recorded run under a zero plan must equal an unrecorded run
    // with no plan bit for bit: all-up traces scale nothing.
    let cfg = tiny_config(PreferenceSource::Oracle);
    let base = Scenario::uniform(3, 2, 20e6, 73);
    let flight_a = FlightRecorder::new();
    let a = {
        run_online(
            &base,
            0.05,
            &cfg,
            [1.0; 5],
            3,
            Some((&FaultPlan::none(2, 3), &FaultedRunConfig::default())),
            13,
            &flight_a,
        )
        .expect("valid inputs")
    };
    let b = {
        run_online(&base, 0.05, &cfg, [1.0; 5], 3, None, 13, &NoopRecorder).expect("valid inputs")
    };
    assert_runs_bit_identical(&a, &b, "zero plan vs no plan");
    assert_eq!(flight_a.snapshot().metrics.counter("serve.epochs"), 3);
}
