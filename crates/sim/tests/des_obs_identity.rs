//! DES telemetry must be observationally free: the simulator entry
//! points produce bit-identical reports under a
//! [`eva_obs::NoopRecorder`] and a live [`eva_obs::FlightRecorder`].
//! The engine runs each server's FIFO (and a shared uplink's) without
//! an event heap, so it records no `des.heap_peak`; its equivalence
//! with the global heap-merged loops it replaced is the differential
//! property tests in `des.rs`.

use eva_net::LinkModel;
use eva_obs::{FlightRecorder, NoopRecorder, Phase, Recorder};
use eva_sched::{StreamId, TICKS_PER_SEC};
use eva_sim::{
    simulate, simulate_scenario_with_deadline_recorded, PhasePolicy, ScenarioSimReport, SimConfig,
    SimReport, SimStream, StreamLink, Uplinks,
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
    assert_sim_reports_identical(&a.report, &b.report, what);
}

fn assert_sim_reports_identical(a: &SimReport, b: &SimReport, what: &str) {
    assert_eq!(a.max_queue_len, b.max_queue_len, "{what}");
    assert_eq!(
        a.mean_latency_s.to_bits(),
        b.mean_latency_s.to_bits(),
        "{what}: mean latency"
    );
    assert_eq!(
        a.max_jitter_s.to_bits(),
        b.max_jitter_s.to_bits(),
        "{what}: max jitter"
    );
    assert_eq!(a.streams.len(), b.streams.len(), "{what}");
    for (x, y) in a.streams.iter().zip(&b.streams) {
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

    // Shared uplinks, over fixed and Markov links: six contending
    // streams on two servers.
    let streams: Vec<SimStream> = (0..6)
        .map(|i| SimStream {
            id: StreamId::source(i),
            period: [100_000, 200_000, 100_000][i % 3],
            proc: 20_000,
            trans: [15_000, 30_000][i % 2],
            server: i % 2,
            phase: 0,
        })
        .collect();
    let cfg = SimConfig {
        horizon: 20 * TICKS_PER_SEC,
        warmup: TICKS_PER_SEC,
        deadline: TICKS_PER_SEC / 10,
    };
    let links: Vec<StreamLink> = streams
        .iter()
        .map(|s| StreamLink {
            bits_per_frame: s.trans as f64 / TICKS_PER_SEC as f64 * 20e6,
            trace: LinkModel::gilbert_elliott(20e6, 6e6, 2.0, 0.5, 5 + s.server as u64)
                .trace(cfg.horizon),
        })
        .collect();
    for links in [None, Some(links.as_slice())] {
        let run = |rec: &dyn Recorder| {
            simulate(&streams, Uplinks::Shared(links), 2, &cfg, rec).expect("valid DES input")
        };
        let noop = run(&NoopRecorder);
        let flight = FlightRecorder::new();
        let recorded = run(&flight);
        assert_sim_reports_identical(&noop, &recorded, "shared uplinks: noop vs flight");
        let snap = flight.snapshot();
        assert_eq!(snap.metrics.counter("des.runs"), 1);
        let frames: u64 = noop.streams.iter().map(|s| s.frames).sum();
        assert_eq!(snap.metrics.counter("des.frames"), frames);
        assert!(snap.metrics.counter("des.events") > 0);
        assert!(snap.metrics.histogram("des.heap_peak").is_none());
    }
}
