//! DES telemetry must be observationally free: the simulator entry
//! points produce bit-identical reports under a
//! [`eva_obs::NoopRecorder`] and a live [`eva_obs::FlightRecorder`].
//! The engine runs each server's FIFO without an event heap, so it
//! records no `des.heap_peak`; its equivalence with the global
//! heap-merged loop it replaced is the differential property test in
//! `des.rs`, and the tandem engine's heap bound is a unit test in
//! `tandem.rs`.

use eva_obs::{FlightRecorder, NoopRecorder, Phase, Recorder};
use eva_sim::{simulate_scenario_with_deadline_recorded, PhasePolicy, ScenarioSimReport};
use eva_workload::{Scenario, VideoConfig};

fn assert_reports_identical(a: &ScenarioSimReport, b: &ScenarioSimReport, what: &str) {
    assert_eq!(
        a.measured_mean_latency_s.to_bits(),
        b.measured_mean_latency_s.to_bits(),
        "{what}: measured latency"
    );
    assert_eq!(
        a.analytic_mean_latency_s.to_bits(),
        b.analytic_mean_latency_s.to_bits(),
        "{what}: analytic latency"
    );
    assert_eq!(a.report.max_queue_len, b.report.max_queue_len, "{what}");
    assert_eq!(
        a.report.mean_latency_s.to_bits(),
        b.report.mean_latency_s.to_bits(),
        "{what}: mean latency"
    );
    assert_eq!(
        a.report.max_jitter_s.to_bits(),
        b.report.max_jitter_s.to_bits(),
        "{what}: max jitter"
    );
    assert_eq!(a.report.streams.len(), b.report.streams.len(), "{what}");
    for (x, y) in a.report.streams.iter().zip(&b.report.streams) {
        assert_eq!(x.id, y.id, "{what}");
        assert_eq!(x.frames, y.frames, "{what}: stream {:?} frames", x.id);
        assert_eq!(
            x.deadline_misses, y.deadline_misses,
            "{what}: stream {:?} misses",
            x.id
        );
        assert_eq!(x.dropped, y.dropped, "{what}: stream {:?} drops", x.id);
        assert_eq!(
            x.jitter_s.to_bits(),
            y.jitter_s.to_bits(),
            "{what}: stream {:?} jitter",
            x.id
        );
        assert_eq!(
            x.latency.mean().to_bits(),
            y.latency.mean().to_bits(),
            "{what}: stream {:?} latency mean",
            x.id
        );
    }
}

#[test]
fn recorded_des_is_bit_identical_and_counts_its_work() {
    let sc = Scenario::uniform(4, 2, 20e6, 81);
    let configs = vec![VideoConfig::new(600.0, 5.0); 4];
    let assignment = sc.schedule(&configs).expect("uniform config fits");
    let run = |rec: &dyn Recorder| {
        simulate_scenario_with_deadline_recorded(
            &sc,
            &configs,
            &assignment,
            PhasePolicy::ZeroJitter,
            20.0,
            0.5,
            rec,
        )
    };

    let noop = run(&NoopRecorder);
    let flight = FlightRecorder::new();
    let recorded = run(&flight);

    assert_reports_identical(&noop, &recorded, "noop vs flight");

    let snap = flight.snapshot();
    let des = snap
        .phase_stats()
        .into_iter()
        .find(|&(p, _)| p == Phase::Des)
        .expect("des phase recorded");
    assert_eq!(des.1.count, 1);
    assert_eq!(snap.metrics.counter("des.runs"), 1);
    let frames: u64 = noop.report.streams.iter().map(|s| s.frames).sum();
    assert_eq!(snap.metrics.counter("des.frames"), frames);
    assert!(snap.metrics.counter("des.events") > 0);
    assert!(
        snap.metrics.histogram("des.heap_peak").is_none(),
        "the per-server engine has no completion heap"
    );
}
