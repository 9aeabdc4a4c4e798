//! Integration tests for the extension features: virtualization,
//! drift + online adaptation, and the shared-uplink tandem model.

use pamo::core::{run_online, PamoConfig, PreferenceSource};
use pamo::obs::NoopRecorder;
use pamo::prelude::*;
use pamo::sim::des::{simulate, SimConfig, SimStream, Uplinks};
use pamo::sim::tandem::simulate_shared_uplink;
use pamo::stats::rng::seeded;
use pamo::workload::clip::clip_set;
use pamo::workload::{DriftingScenario, PhysicalServer, Virtualization};

fn tiny_cfg() -> PamoConfig {
    let mut cfg = PamoConfig::default();
    cfg.bo.max_iters = 3;
    cfg.bo.mc_samples = 16;
    cfg.pool_size = 20;
    cfg.profiling_per_camera = 20;
    cfg.preference = PreferenceSource::Oracle;
    cfg
}

#[test]
fn virtualized_cluster_schedules_zero_jitter_end_to_end() {
    let servers = vec![
        PhysicalServer::new("small", 1.0, 12e6),
        PhysicalServer::new("big", 2.0, 40e6),
    ];
    let v = Virtualization::new(&servers);
    assert_eq!(v.n_vms(), 3);
    let scenario = v.to_scenario(clip_set(4, 9), ConfigSpace::default());
    let pref = TruePreference::uniform(&scenario);
    let decision = Pamo::new(tiny_cfg())
        .decide(&scenario, &pref, &mut seeded(1))
        .unwrap();
    let assignment = scenario.schedule(&decision.configs).unwrap();
    // Verify zero jitter on the VM-level schedule...
    let sim = simulate_scenario_with_deadline_recorded(
        &scenario,
        &decision.configs,
        &assignment,
        PhasePolicy::ZeroJitter,
        15.0,
        0.0,
        &NoopRecorder,
    );
    assert_eq!(sim.report.max_jitter_s, 0.0);
    // ...and that the placement maps onto real hardware.
    let hw = v.map_placement(&assignment.server_of);
    assert!(hw.iter().all(|&p| p < servers.len()));
}

#[test]
fn online_loop_survives_aggressive_drift() {
    let base = Scenario::uniform(4, 3, 20e6, 71);
    let mut drifting = DriftingScenario::new(&base, 0.25);
    let run = run_online(
        &mut drifting,
        &tiny_cfg(),
        [1.0; 5],
        5,
        None,
        &mut seeded(2),
        &NoopRecorder,
    )
    .expect("valid inputs");
    assert_eq!(run.epochs.len(), 5);
    // Every epoch's fresh decision is feasible (a fallback would flag
    // the run degraded, a skipped epoch would shorten it); benefits
    // stay on the meaningful scale.
    assert!(!run.degraded);
    for e in &run.epochs {
        assert!(e.online_benefit > -5.0 && e.online_benefit <= 0.0);
    }
}

#[test]
fn tandem_and_dedicated_agree_without_sharing() {
    // One stream per server: shared-uplink serialization cannot occur,
    // so both simulators must report identical means.
    let streams: Vec<SimStream> = (0..3)
        .map(|i| SimStream {
            id: StreamId::source(i),
            period: 100_000,
            proc: 20_000,
            trans: 7_000,
            server: i,
            phase: 0,
        })
        .collect();
    let cfg = SimConfig {
        horizon: 10_000_000,
        warmup: 1_000_000,
        deadline: 0,
    };
    let dedicated = simulate(&streams, Uplinks::Fixed, 3, &cfg, &NoopRecorder).unwrap();
    let shared = simulate_shared_uplink(&streams, None, 3, &cfg).unwrap();
    for (d, s) in dedicated.streams.iter().zip(&shared.streams) {
        assert!((d.latency.mean() - s.latency.mean()).abs() < 1e-9);
    }
    assert_eq!(shared.max_jitter_s, 0.0);
}

#[test]
fn deadline_accounting_flows_through_sim_config() {
    let stream = SimStream {
        id: StreamId::source(0),
        period: 100_000,
        proc: 30_000,
        trans: 0,
        server: 0,
        phase: 0,
    };
    let cfg = SimConfig {
        horizon: 5_000_000,
        warmup: 1_000_000,
        deadline: 25_000, // tighter than the 30ms processing time
    };
    let report = simulate(&[stream], Uplinks::Fixed, 1, &cfg, &NoopRecorder).unwrap();
    assert_eq!(report.streams[0].deadline_misses, report.streams[0].frames);
}
