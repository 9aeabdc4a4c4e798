//! Regression guard for the eva-net integration: a *constant* link
//! model at the nominal rate must reproduce the pre-link fixed-`trans`
//! simulations **bit-identically** — same frames, same latencies (to
//! the last mantissa bit), same utilization and queue depths. The
//! time-varying machinery must be pay-for-what-you-use.

use eva_net::LinkModel;
use eva_obs::NoopRecorder;
use eva_sched::{Assignment, StreamId, Ticks, TICKS_PER_SEC};
use eva_sim::{
    simulate, simulate_scenario_with_deadline_recorded, PhasePolicy, ScenarioSimReport, SimConfig,
    SimReport, SimStream, StreamLink, Uplinks,
};
use eva_workload::{Scenario, VideoConfig};

fn stream(
    source: usize,
    period: Ticks,
    proc: Ticks,
    trans: Ticks,
    server: usize,
    phase: Ticks,
) -> SimStream {
    SimStream {
        id: StreamId::source(source),
        period,
        proc,
        trans,
        server,
        phase,
    }
}

/// Constant link whose transmission time equals `trans` exactly.
fn nominal_link(trans: Ticks, rate_bps: f64, horizon: Ticks) -> StreamLink {
    StreamLink {
        bits_per_frame: trans as f64 / TICKS_PER_SEC as f64 * rate_bps,
        trace: LinkModel::constant(rate_bps).trace(horizon),
    }
}

fn assert_reports_bit_identical(a: &SimReport, b: &SimReport) {
    assert_eq!(a.streams.len(), b.streams.len());
    for (x, y) in a.streams.iter().zip(&b.streams) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.frames, y.frames);
        assert_eq!(x.deadline_misses, y.deadline_misses);
        assert_eq!(x.jitter_s.to_bits(), y.jitter_s.to_bits());
        assert_eq!(x.latency.mean().to_bits(), y.latency.mean().to_bits());
        assert_eq!(x.latency.min().to_bits(), y.latency.min().to_bits());
        assert_eq!(x.latency.max().to_bits(), y.latency.max().to_bits());
    }
    assert_eq!(a.max_queue_len, b.max_queue_len);
    assert_eq!(a.mean_latency_s.to_bits(), b.mean_latency_s.to_bits());
    assert_eq!(a.max_jitter_s.to_bits(), b.max_jitter_s.to_bits());
    for (x, y) in a.server_utilization.iter().zip(&b.server_utilization) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// A 20 s zero-jitter DES run of `sc` without a deadline.
fn zero_jitter_run(
    sc: &Scenario,
    cfgs: &[VideoConfig],
    assignment: &Assignment,
) -> ScenarioSimReport {
    simulate_scenario_with_deadline_recorded(
        sc,
        cfgs,
        assignment,
        PhasePolicy::ZeroJitter,
        20.0,
        0.0,
        &NoopRecorder,
    )
}

#[test]
fn dedicated_pipe_constant_link_is_bit_identical() {
    let cfg = SimConfig {
        horizon: 15 * TICKS_PER_SEC,
        warmup: TICKS_PER_SEC,
        deadline: 60_000,
    };
    // Contended mix including a saturated early frame (phase < trans)
    // and cross-server traffic.
    let streams = [
        stream(0, 100_000, 30_000, 12_000, 0, 5_000), // phase < trans
        stream(1, 150_000, 40_000, 8_000, 0, 35_000),
        stream(2, 200_000, 50_000, 20_000, 1, 0),
        stream(3, 100_000, 25_000, 4_000, 1, 60_000),
    ];
    let links: Vec<StreamLink> = streams
        .iter()
        .map(|s| nominal_link(s.trans, 17.5e6, cfg.horizon))
        .collect();
    let base = simulate(&streams, Uplinks::Fixed, 2, &cfg, &NoopRecorder).unwrap();
    let linked = simulate(&streams, Uplinks::Links(&links), 2, &cfg, &NoopRecorder).unwrap();
    assert_reports_bit_identical(&base, &linked);
}

#[test]
fn shared_uplink_constant_link_is_bit_identical() {
    let cfg = SimConfig {
        horizon: 12 * TICKS_PER_SEC,
        warmup: TICKS_PER_SEC,
        deadline: 0,
    };
    let streams = [
        stream(0, 100_000, 10_000, 25_000, 0, 0),
        stream(1, 100_000, 15_000, 25_000, 0, 10_000),
        stream(2, 200_000, 30_000, 40_000, 1, 0),
    ];
    let links: Vec<StreamLink> = streams
        .iter()
        .map(|s| nominal_link(s.trans, 12e6, cfg.horizon))
        .collect();
    let base = simulate(&streams, Uplinks::Shared(None), 2, &cfg, &NoopRecorder).unwrap();
    let shared = Uplinks::Shared(Some(&links));
    let linked = simulate(&streams, shared, 2, &cfg, &NoopRecorder).unwrap();
    assert_reports_bit_identical(&base, &linked);
}

#[test]
fn scenario_constant_models_reproduce_fixed_trans_run() {
    // Full pipeline: schedule a uniform scenario, then simulate it once
    // with the pre-PR fixed-`trans` path and once through per-camera
    // constant link models at the provisioned rate (oracle estimation).
    let sc = Scenario::uniform(4, 3, 20e6, 7);
    let cfgs = vec![
        VideoConfig::new(480.0, 10.0),
        VideoConfig::new(720.0, 5.0),
        VideoConfig::new(600.0, 10.0),
        VideoConfig::new(480.0, 5.0),
    ];
    let assignment = sc
        .schedule(&cfgs)
        .expect("uniform scenario admits a placement");
    let base = zero_jitter_run(&sc, &cfgs, &assignment);

    let linked_sc = sc.with_link_models(vec![LinkModel::constant(20e6); 4]);
    let linked = zero_jitter_run(&linked_sc, &cfgs, &assignment);

    assert_reports_bit_identical(&base.report, &linked.report);
    assert_eq!(
        base.measured_mean_latency_s.to_bits(),
        linked.measured_mean_latency_s.to_bits()
    );
    assert_eq!(
        base.analytic_mean_latency_s.to_bits(),
        linked.analytic_mean_latency_s.to_bits()
    );
}

#[test]
fn markov_models_change_the_measurement() {
    // Sanity inverse of the regression: a genuinely varying link must
    // NOT be identical to the fixed-trans run.
    let sc = Scenario::uniform(4, 3, 20e6, 7);
    let cfgs = vec![VideoConfig::new(600.0, 10.0); 4];
    let assignment = sc
        .schedule(&cfgs)
        .expect("uniform scenario admits a placement");
    let base = zero_jitter_run(&sc, &cfgs, &assignment);
    let linked_sc = sc.with_link_models(
        (0..4)
            .map(|i| LinkModel::gilbert_elliott(25e6, 6e6, 2.0, 1.0, i as u64))
            .collect(),
    );
    let linked = zero_jitter_run(&linked_sc, &cfgs, &assignment);
    assert!(
        (linked.measured_mean_latency_s - base.measured_mean_latency_s).abs() > 1e-6,
        "Markov link left the measurement unchanged"
    );
    assert!(linked.report.max_jitter_s > base.report.max_jitter_s);
}
