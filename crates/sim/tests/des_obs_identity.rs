//! DES telemetry must be observationally free: the simulator entry
//! points produce bit-identical reports under a
//! [`eva_obs::NoopRecorder`] and a live [`eva_obs::FlightRecorder`].
//! The recorded work counters are exact: `des.heap_peak` is bounded by
//! the server count on every uplink path.

use eva_bond::{BondPolicy, BondedLink, LinkBundle};
use eva_fault::{FaultPlan, RetryPolicy};
use eva_net::LinkModel;
use eva_obs::{FlightRecorder, NoopRecorder, Phase, Recorder};
use eva_sim::{
    simulate_scenario_faulted_recorded, simulate_scenario_with_deadline_recorded, PhasePolicy,
    ScenarioSimReport,
};
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
}

/// The most events the DES completion heap held at once in the one run
/// `flight` recorded.
fn heap_peak(flight: &FlightRecorder) -> f64 {
    let snap = flight.snapshot();
    let hist = snap
        .metrics
        .histogram("des.heap_peak")
        .expect("des.heap_peak recorded");
    assert_eq!(hist.count(), 1, "one run, one observation");
    hist.max().expect("one observation")
}

#[test]
fn heap_peak_is_bounded_by_the_server_count_on_every_path() {
    let (cameras, servers) = (12, 4);
    let base = Scenario::uniform(cameras, servers, 20e6, 5);
    let configs: Vec<VideoConfig> = (0..cameras)
        .map(|c| VideoConfig::new(480.0, [2.0, 5.0, 10.0][c % 3]))
        .collect();
    let assignment = base.schedule(&configs).expect("mixed configs fit");
    let markov = base.clone().with_link_models(
        (0..cameras as u64)
            .map(|c| LinkModel::gilbert_elliott(20e6, 6e6, 3.0, 1.0, c))
            .collect(),
    );
    let bonded = base.clone().with_link_bundles(
        (0..cameras as u64)
            .map(|c| {
                LinkBundle::new(vec![
                    BondedLink::new(LinkModel::gilbert_elliott(12e6, 4e6, 3.0, 1.0, c), 0.03),
                    BondedLink::new(LinkModel::constant(5e6), 0.2),
                ])
            })
            .collect(),
        BondPolicy::RoundRobin,
    );
    let faulted = base.clone().with_fault_plan(
        FaultPlan::none(servers, cameras)
            .with_server_crashes(10.0, 2.0, 3)
            .with_camera_dropout(8.0, 2.0, 6)
            .with_frame_loss(0.05, 4)
            .with_retry(RetryPolicy::standard()),
    );
    for (name, sc, phases) in [
        ("fixed, all-zero phases", &base, PhasePolicy::AllZero),
        ("markov", &markov, PhasePolicy::ZeroJitter),
        ("bonded", &bonded, PhasePolicy::ZeroJitter),
    ] {
        let flight = FlightRecorder::new();
        let _ = simulate_scenario_with_deadline_recorded(
            sc,
            &configs,
            &assignment,
            phases,
            30.0,
            0.5,
            &flight,
        );
        let peak = heap_peak(&flight);
        assert!(
            peak > 0.0 && peak <= servers as f64,
            "{name}: heap peak {peak}"
        );
    }
    let flight = FlightRecorder::new();
    let r = simulate_scenario_faulted_recorded(
        &faulted,
        &configs,
        &assignment,
        PhasePolicy::ZeroJitter,
        30.0,
        0.5,
        &flight,
    );
    assert!(r.report.total_dropped() > 0, "the fault plan must bite");
    let peak = heap_peak(&flight);
    assert!(
        peak > 0.0 && peak <= servers as f64,
        "faulted: heap peak {peak}"
    );
}
