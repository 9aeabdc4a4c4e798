//! Cross-crate integration: the scheduling theory (eva-sched) must hold
//! empirically in the simulator (eva-sim) on realistic workloads
//! (eva-workload) — the paper's Theorem 1/2/3 chain, end to end.

use pamo::obs::NoopRecorder;
use pamo::prelude::*;
use pamo::sched::const2_zero_jitter_ok;
use pamo::stats::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

/// Random feasible-ish joint configuration on a scenario.
fn random_configs(scenario: &Scenario, seed: u64) -> Vec<VideoConfig> {
    let mut rng = seeded(seed);
    let space = scenario.config_space();
    (0..scenario.n_videos())
        .map(|_| {
            // Stay in the lower half of the grid so most draws schedule.
            let r = space.resolutions()[rng.gen_range(0..5)];
            let s = space.frame_rates()[rng.gen_range(0..5)];
            VideoConfig::new(r, s)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE invariant: whenever Algorithm 1 accepts a configuration, the
    /// discrete-event simulator measures exactly zero delay jitter under
    /// the Theorem-1 offsets.
    #[test]
    fn algorithm1_schedules_measure_zero_jitter(seed in 0u64..500, n_videos in 3usize..7) {
        let scenario = Scenario::uniform(n_videos, 4, 20e6, seed);
        let configs = random_configs(&scenario, seed ^ 0xbeef);
        if let Ok(assignment) = scenario.schedule(&configs) {
            // Per-server Const2 holds...
            for server in 0..scenario.n_servers() {
                let members: Vec<StreamTiming> = assignment
                    .streams_on(server)
                    .into_iter()
                    .map(|i| assignment.streams[i])
                    .collect();
                prop_assert!(const2_zero_jitter_ok(&members));
            }
            // ...and the DES confirms it empirically.
            let sim = simulate_scenario_with_deadline_recorded(
                &scenario,
                &configs,
                &assignment,
                PhasePolicy::ZeroJitter,
                15.0,
                0.0,
                &NoopRecorder,
            );
            prop_assert_eq!(sim.report.max_jitter_s, 0.0);
            // Measured latency agrees with the Eq. 5 analytic model.
            let rel = (sim.measured_mean_latency_s - sim.analytic_mean_latency_s).abs()
                / sim.analytic_mean_latency_s.max(1e-9);
            prop_assert!(rel < 0.02, "measured {} vs analytic {}",
                sim.measured_mean_latency_s, sim.analytic_mean_latency_s);
        }
    }
}

#[test]
fn naive_phasing_never_beats_zero_jitter() {
    for seed in 0..5u64 {
        let scenario = Scenario::uniform(5, 3, 20e6, seed);
        let configs = random_configs(&scenario, seed);
        let Ok(assignment) = scenario.schedule(&configs) else {
            continue;
        };
        let zj = simulate_scenario_with_deadline_recorded(
            &scenario,
            &configs,
            &assignment,
            PhasePolicy::ZeroJitter,
            15.0,
            0.0,
            &NoopRecorder,
        );
        let naive = simulate_scenario_with_deadline_recorded(
            &scenario,
            &configs,
            &assignment,
            PhasePolicy::AllZero,
            15.0,
            0.0,
            &NoopRecorder,
        );
        assert!(
            naive.measured_mean_latency_s >= zj.measured_mean_latency_s - 1e-9,
            "seed {seed}: naive {} < zero-jitter {}",
            naive.measured_mean_latency_s,
            zj.measured_mean_latency_s
        );
        assert!(naive.report.max_jitter_s >= zj.report.max_jitter_s);
    }
}

#[test]
fn splitting_makes_high_rate_fleets_schedulable() {
    // A single camera demanding more than one server's worth of compute
    // becomes schedulable (across servers) only because of splitting.
    let scenario = Scenario::uniform(1, 4, 20e6, 3);
    // ~0.07 s/frame at 1080p at 30 fps: util ≈ 2.1 -> 3 substreams.
    let configs = vec![VideoConfig::new(1080.0, 30.0)];
    let assignment = scenario.schedule(&configs).expect("split makes it fit");
    assert!(
        assignment.streams.len() >= 3,
        "expected ≥3 substreams, got {}",
        assignment.streams.len()
    );
    let sim = simulate_scenario_with_deadline_recorded(
        &scenario,
        &configs,
        &assignment,
        PhasePolicy::ZeroJitter,
        10.0,
        0.0,
        &NoopRecorder,
    );
    assert_eq!(sim.report.max_jitter_s, 0.0);
}

#[test]
fn scheduling_is_deterministic_across_calls() {
    let scenario = Scenario::uniform(6, 4, 20e6, 9);
    let configs = random_configs(&scenario, 42);
    let a = scenario.schedule(&configs);
    let b = scenario.schedule(&configs);
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.server_of, y.server_of);
            assert_eq!(x.total_comm_latency, y.total_comm_latency);
        }
        (Err(_), Err(_)) => {}
        _ => panic!("nondeterministic feasibility"),
    }
}
