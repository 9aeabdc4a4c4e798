//! Regression guards for the eva-bond DES integration.
//!
//! A *single-link, zero-RTT* bundle must reproduce the existing
//! `Uplinks::Links` path **bit-identically** — same frames, same
//! latencies to the last mantissa bit — for every link-model family.
//! The striping machinery must be pay-for-what-you-use: attaching a
//! degenerate bundle may not perturb a single ulp.
//!
//! A genuinely bonded heterogeneous bundle must *change* the
//! measurement, and HoL-aware striping must not lose to naive
//! round-robin on it.

use eva_bond::{BondPolicy, LinkBundle};
use eva_net::LinkModel;
use eva_obs::NoopRecorder;
use eva_sched::{StreamId, Ticks, TICKS_PER_SEC};
use eva_sim::{
    simulate, simulate_scenario_with_deadline_recorded, PhasePolicy, SimConfig, SimReport,
    SimStream, StreamBundle, StreamLink, Uplinks,
};
use eva_workload::{Scenario, VideoConfig};
use proptest::prelude::*;

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

fn cfg() -> SimConfig {
    SimConfig {
        horizon: 12 * TICKS_PER_SEC,
        warmup: TICKS_PER_SEC,
        deadline: 60_000,
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

/// Run the same contended stream mix through `Uplinks::Links` and
/// through single-link zero-RTT bundles over the same models.
fn run_both(models: &[LinkModel], policy: BondPolicy) -> (SimReport, SimReport) {
    let cfg = cfg();
    let streams = [
        stream(0, 100_000, 30_000, 12_000, 0, 5_000), // phase < trans
        stream(1, 150_000, 40_000, 8_000, 0, 35_000),
        stream(2, 200_000, 50_000, 20_000, 1, 0),
        stream(3, 100_000, 25_000, 4_000, 1, 60_000),
    ];
    let bits: Vec<f64> = streams
        .iter()
        .map(|s| s.trans as f64 / TICKS_PER_SEC as f64 * 17.5e6)
        .collect();
    let links: Vec<StreamLink> = streams
        .iter()
        .zip(&bits)
        .map(|(s, &b)| StreamLink {
            bits_per_frame: b,
            trace: models[s.id.source].trace(cfg.horizon),
        })
        .collect();
    let mut bundles: Vec<StreamBundle> = streams
        .iter()
        .zip(&bits)
        .map(|(s, &b)| StreamBundle {
            bits_per_frame: b,
            sim: LinkBundle::single(models[s.id.source].clone(), 0.0)
                .simulator(cfg.horizon, policy),
        })
        .collect();
    let linked = simulate(&streams, Uplinks::Links(&links), 2, &cfg, &NoopRecorder).unwrap();
    let bonded = simulate(
        &streams,
        Uplinks::Bundles(&mut bundles),
        2,
        &cfg,
        &NoopRecorder,
    )
    .unwrap();
    (linked, bonded)
}

#[test]
fn single_link_bundle_matches_links_path_for_every_model_family() {
    let families: [Vec<LinkModel>; 3] = [
        vec![LinkModel::constant(17.5e6); 4],
        (0..4)
            .map(|i| LinkModel::gilbert_elliott(25e6, 6e6, 2.0, 1.0, i as u64))
            .collect(),
        (0..4)
            .map(|i| LinkModel::sinusoid(18e6, 9e6, 5.0, 0.05, i as u64))
            .collect(),
    ];
    for models in &families {
        for policy in [
            BondPolicy::RoundRobin,
            BondPolicy::RateWeighted,
            BondPolicy::EarliestDelivery,
        ] {
            let (linked, bonded) = run_both(models, policy);
            assert_reports_bit_identical(&linked, &bonded);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The degenerate-bundle identity holds for arbitrary Markov link
    /// parameters, not just the hand-picked families above.
    #[test]
    fn single_link_bundle_identity_holds_for_arbitrary_markov_links(
        good in 8e6..40e6_f64,
        bad_frac in 0.1..0.9_f64,
        seed in 0u64..1000,
    ) {
        let models: Vec<LinkModel> = (0..4)
            .map(|i| {
                LinkModel::gilbert_elliott(good, good * bad_frac, 2.0, 1.0, seed + i as u64)
            })
            .collect();
        let (linked, bonded) = run_both(&models, BondPolicy::EarliestDelivery);
        assert_reports_bit_identical(&linked, &bonded);
    }
}

#[test]
fn scenario_single_bundles_reproduce_link_models_run() {
    // Runner-level identity: a scenario carrying single-link zero-RTT
    // bundles measures exactly what the same scenario carrying the
    // equivalent per-camera link models measures.
    let cfgs = vec![
        VideoConfig::new(480.0, 10.0),
        VideoConfig::new(720.0, 5.0),
        VideoConfig::new(600.0, 10.0),
        VideoConfig::new(480.0, 5.0),
    ];
    let models: Vec<LinkModel> = (0..4)
        .map(|i| LinkModel::gilbert_elliott(25e6, 6e6, 2.0, 1.0, i as u64))
        .collect();

    let sc = Scenario::uniform(4, 3, 20e6, 7);
    let assignment = sc
        .schedule(&cfgs)
        .expect("uniform scenario admits a placement");
    let linked_sc = sc.clone().with_link_models(models.clone());
    let bonded_sc = sc.with_link_bundles(
        models
            .iter()
            .map(|m| LinkBundle::single(m.clone(), 0.0))
            .collect(),
        BondPolicy::EarliestDelivery,
    );

    let linked = simulate_scenario_with_deadline_recorded(
        &linked_sc,
        &cfgs,
        &assignment,
        PhasePolicy::ZeroJitter,
        20.0,
        0.0,
        &NoopRecorder,
    );
    let bonded = simulate_scenario_with_deadline_recorded(
        &bonded_sc,
        &cfgs,
        &assignment,
        PhasePolicy::ZeroJitter,
        20.0,
        0.0,
        &NoopRecorder,
    );
    assert_reports_bit_identical(&linked.report, &bonded.report);
    assert_eq!(
        linked.measured_mean_latency_s.to_bits(),
        bonded.measured_mean_latency_s.to_bits()
    );
}

/// Mean latency of the contended mix when every camera rides the
/// heterogeneous trio bundle under `policy`.
fn trio_latency(policy: BondPolicy) -> f64 {
    let cfg = cfg();
    let streams = [
        stream(0, 100_000, 30_000, 12_000, 0, 5_000),
        stream(1, 150_000, 40_000, 8_000, 0, 35_000),
        stream(2, 200_000, 50_000, 20_000, 1, 0),
        stream(3, 100_000, 25_000, 4_000, 1, 60_000),
    ];
    let trio = LinkBundle::new(vec![
        eva_bond::BondedLink::new(LinkModel::constant(12e6), 0.030),
        eva_bond::BondedLink::new(LinkModel::constant(8e6), 0.080),
        eva_bond::BondedLink::new(LinkModel::constant(5e6), 0.200),
    ]);
    let mut bundles: Vec<StreamBundle> = streams
        .iter()
        .map(|s| StreamBundle {
            bits_per_frame: s.trans as f64 / TICKS_PER_SEC as f64 * 17.5e6,
            sim: trio.simulator(cfg.horizon, policy),
        })
        .collect();
    simulate(
        &streams,
        Uplinks::Bundles(&mut bundles),
        2,
        &cfg,
        &NoopRecorder,
    )
    .unwrap()
    .mean_latency_s
}

#[test]
fn hol_aware_striping_beats_round_robin_on_heterogeneous_trio() {
    let rr = trio_latency(BondPolicy::RoundRobin);
    let edf = trio_latency(BondPolicy::EarliestDelivery);
    assert!(
        edf < rr,
        "HoL-aware striping ({edf:.4}s) should beat round-robin ({rr:.4}s) \
         on heterogeneous RTTs"
    );
}
