//! Cross-crate integration: the scheduling theory (eva-sched) must hold
//! empirically in the simulator (eva-sim) on realistic workloads
//! (eva-workload) — the paper's Theorem 1/2/3 chain, end to end.

use pamo::obs::NoopRecorder;
use pamo::prelude::*;
use pamo::sched::const2_zero_jitter_ok;
use pamo::stats::rng::seeded;
use pamo::workload::Cameras;
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

fn fnv_outcome(h: u64, o: &Outcome) -> u64 {
    o.to_array().iter().fold(h, |h, v| fnv(h, v.to_bits()))
}

/// FNV-1a over the bits of the Eq. 2–5 aggregations of one placement
/// in which Algorithm 1 splits a 1080p@30 camera across servers: the
/// full outcome, the prefix (incumbents-only) outcomes at k = 0, 1,
/// M−1 and M, the DES runner's analytic Eq. 5 mean, and the Eq. 2–4
/// fields of `measure_decision` for a per-camera placement.
#[test]
fn outcome_aggregation_is_bit_pinned() {
    const PINNED: u64 = 0x7585_faa4_3209_df5d;
    let scenario = Scenario::new(
        pamo::workload::clip_set(4, 3),
        vec![20e6, 10e6, 30e6, 15e6, 25e6],
        ConfigSpace::default(),
    );
    let configs = vec![
        VideoConfig::new(480.0, 5.0),
        VideoConfig::new(1080.0, 30.0),
        VideoConfig::new(720.0, 10.0),
        VideoConfig::new(360.0, 2.0),
    ];
    let m = configs.len();
    let out = scenario.evaluate(&configs).expect("the split fleet places");
    let parts = out.assignment.placement().filter(|&(c, _)| c == 1).count();
    assert!(parts > 1, "camera 1 splits: {parts} parts");
    let mut h = fnv_outcome(FNV_OFFSET, &out.outcome);
    for k in [0, 1, m - 1, m] {
        let prefix = scenario
            .outcome_over(&configs, out.assignment.placement(), Cameras::Prefix(k))
            .expect("Algorithm 1 placed every stream");
        h = fnv_outcome(h, &prefix);
    }
    let sim = simulate_scenario_with_deadline_recorded(
        &scenario,
        &configs,
        &out.assignment,
        PhasePolicy::ZeroJitter,
        2.0,
        0.0,
        &NoopRecorder,
    );
    h = fnv(h, sim.analytic_mean_latency_s.to_bits());
    let decision = Decision {
        configs: configs.clone(),
        server_of: vec![3, 0, 2, 1],
    };
    let measured =
        pamo::baselines::measure_decision(&scenario, &decision).expect("a well-formed decision");
    for v in [
        measured.accuracy,
        measured.network_bps,
        measured.compute_tflops,
        measured.power_w,
    ] {
        h = fnv(h, v.to_bits());
    }
    assert_eq!(h, PINNED, "outcome aggregation hash {h:#018x}");
}

/// How a seeded draw picks each camera's (resolution, frame rate) grid
/// indices.
#[derive(Debug, Clone, Copy)]
enum Draw {
    /// Anywhere on the grid.
    Uniform,
    /// The lowest third of each knob for one camera in `n`, the lower
    /// half for the rest.
    Mixed(u32),
    /// The lowest third of each knob.
    LowGrid,
}

/// One seeded M = 2000 split stream set of `Scenario::standard`.
fn fleet_streams(sc: &Scenario, draw: Draw, seed: u64) -> Vec<StreamTiming> {
    let mut rng = seeded(seed);
    let space = sc.config_space();
    let (nr, nf) = (space.resolutions().len(), space.frame_rates().len());
    let configs: Vec<VideoConfig> = (0..sc.n_videos())
        .map(|_| {
            let (r_end, f_end) = match draw {
                Draw::Uniform => (nr, nf),
                Draw::Mixed(n) if rng.gen_range(0..n) != 0 => (nr.div_ceil(2), nf.div_ceil(2)),
                Draw::Mixed(_) | Draw::LowGrid => (nr / 3, nf / 3),
            };
            let (r, f) = (rng.gen_range(0..r_end), rng.gen_range(0..f_end));
            VideoConfig::new(space.resolutions()[r], space.frame_rates()[f])
        })
        .collect();
    pamo::sched::split_high_rate(&sc.stream_timings(&configs))
}

/// `group_streams` (distinct-period priorities, cached O(1) admission)
/// returns exactly the paper's direct first-fit `Result`, group
/// membership and error variant included, on fleet-scale stream sets:
/// sets the first-fit places, sets the capacity bound refuses before
/// any grouping, and sets under the bound that the first-fit still
/// cannot fit onto the servers.
#[test]
fn grouping_equals_the_direct_first_fit_at_fleet_scale() {
    use pamo::sched::reference::group_streams_sequential;
    use pamo::sched::{exceeds_capacity, group_streams, GroupingError};

    let n_servers = 200;
    let sc = Scenario::standard(2000, n_servers, &mut seeded(2000));
    let (mut placed, mut refused_by_bound, mut refused_by_first_fit) = (0, 0, 0);
    for draw in [Draw::Uniform, Draw::Mixed(3), Draw::Mixed(6), Draw::LowGrid] {
        for seed in 0..4 {
            let streams = fleet_streams(&sc, draw, seed);
            let one_pass = group_streams(&streams, n_servers);
            assert_eq!(
                one_pass,
                group_streams_sequential(&streams, n_servers),
                "{draw:?} draw, seed {seed}"
            );
            let utilization: f64 = streams.iter().map(StreamTiming::utilization).sum();
            match one_pass {
                Ok(_) => placed += 1,
                Err(GroupingError::NotEnoughServers { .. }) => {
                    if exceeds_capacity(utilization, n_servers) {
                        refused_by_bound += 1;
                    } else {
                        refused_by_first_fit += 1;
                    }
                }
                Err(e) => panic!("{draw:?} draw, seed {seed}: unexpected {e}"),
            }
        }
    }
    assert!(
        placed > 0 && refused_by_bound > 0 && refused_by_first_fit > 0,
        "placed {placed}, refused by the bound {refused_by_bound}, \
         by the first-fit {refused_by_first_fit}"
    );

    // Eight utilisation-0.6 streams are far over two servers' capacity,
    // but an unsplit over-long stream with the smallest period comes
    // first in priority order: its `StreamInfeasible` wins.
    let mut streams: Vec<StreamTiming> = (0..8)
        .map(|i| StreamTiming::new(StreamId::source(i), 100_000, 60_000))
        .collect();
    assert!(matches!(
        group_streams(&streams, 2),
        Err(GroupingError::NotEnoughServers { .. })
    ));
    streams.push(StreamTiming::new(StreamId::source(8), 50_000, 70_000));
    let infeasible = Err(GroupingError::StreamInfeasible { source: 8, part: 0 });
    assert_eq!(group_streams(&streams, 2), infeasible);
    assert_eq!(group_streams_sequential(&streams, 2), infeasible);
}
