//! Tier-1 guard for the discrete-event simulator, pinned bit for bit.
//!
//! Every realized latency, jitter, deadline and drop figure in the
//! repository comes out of `eva-sim`. One seeded 40-camera × 8-server
//! placement is simulated for 120 s over each uplink path the engine
//! selects between: fixed uplinks with all-zero phases (so co-located
//! arrivals tie), per-camera Markov links, three-link bonded bundles
//! under round-robin and under earliest-delivery striping, and a
//! crash/straggler/dropout/loss/retry fault plan. Any change to event
//! ordering, arrival seeding, bond striping or fault planning moves the
//! pinned hashes. Each setup also runs under a `NoopRecorder`, whose
//! report must hash the same: telemetry never changes a DES result.

use pamo::fault::RetryPolicy;
use pamo::obs::{FlightRecorder, NoopRecorder, Recorder};
use pamo::sched::{hungarian_min_cost, Assignment};
use pamo::sim::{
    simulate_scenario_faulted_recorded, simulate_scenario_with_deadline_recorded, PhasePolicy,
    ScenarioSimReport,
};
use pamo::stats::rng::seeded;
use pamo::workload::{BondPolicy, BondedLink, FaultPlan, LinkBundle, LinkModel};
use pamo::workload::{Scenario, VideoConfig};

const CAMERAS: usize = 40;
const SERVERS: usize = 8;
const HORIZON_S: f64 = 120.0;
const DEADLINE_S: f64 = 0.5;

/// FNV-1a hash per uplink setup: fixed uplinks with every stream at
/// phase 0 (dense arrival ties), Markov links, round-robin bundles,
/// earliest-delivery bundles, faults. Crashes are keyed by server
/// index, so the faulted hash also pins which of several equally cheap
/// servers each group lands on.
const PINNED_DES_HASHES: [u64; 5] = [
    0xe59f_a5ec_8492_fb71,
    0x7924_3837_5757_bdd4,
    0x8ce3_b156_10cb_3d77,
    0xa1a3_1d7b_3822_f686,
    0x82d0_1169_d767_191c,
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

fn placement() -> (Scenario, Vec<VideoConfig>, Assignment) {
    let base = Scenario::standard(CAMERAS, SERVERS, &mut seeded(31));
    // Mixed rates and resolutions: co-located streams with different
    // periods, so servers interleave frames of several streams.
    let configs: Vec<VideoConfig> = (0..CAMERAS)
        .map(|c| VideoConfig::new([480.0, 600.0, 720.0][c % 3], [2.0, 5.0, 10.0][c % 3]))
        .collect();
    let assignment = base
        .schedule(&configs)
        .expect("the mixed configs admit a placement");
    (base, configs, assignment)
}

fn bundles(seed: u64) -> Vec<LinkBundle> {
    (0..CAMERAS as u64)
        .map(|c| {
            LinkBundle::new(vec![
                BondedLink::new(
                    LinkModel::gilbert_elliott(12e6, 4e6, 3.0, 1.0, seed.wrapping_add(c)),
                    0.030,
                ),
                BondedLink::new(
                    LinkModel::gilbert_elliott(8e6, 3e6, 3.0, 1.0, seed.wrapping_add(c + 1000)),
                    0.080,
                ),
                BondedLink::new(LinkModel::constant(5e6), 0.200),
            ])
        })
        .collect()
}

/// Hash of every stream's frame, drop and miss counts and latency
/// mean/min/max bits.
fn report_hash(r: &ScenarioSimReport) -> u64 {
    let mut h = FNV_OFFSET;
    for s in &r.report.streams {
        for v in [s.frames, s.dropped, s.deadline_misses] {
            h = fnv(h, v);
        }
        for v in [s.latency.mean(), s.latency.min(), s.latency.max()] {
            h = fnv(h, v.to_bits());
        }
    }
    h
}

/// [`report_hash`] plus the run's total reorder-buffer HoL wait.
fn digest(r: &ScenarioSimReport, flight: &FlightRecorder) -> u64 {
    let frames: u64 = r.report.streams.iter().map(|s| s.frames).sum();
    let misses: u64 = r.report.streams.iter().map(|s| s.deadline_misses).sum();
    let hol = flight
        .snapshot()
        .metrics
        .histogram("bond.hol_wait_s")
        .map_or(0.0, |hist| hist.sum());
    println!(
        "{} streams: {frames} frames, {} dropped, {misses} misses, jitter {:.6} s, hol {hol:.6} s",
        r.report.streams.len(),
        r.report.total_dropped(),
        r.report.max_jitter_s
    );
    fnv(report_hash(r), hol.to_bits())
}

/// The pinned placement is an exact optimum of Algorithm 1's line-20
/// matching: its transmission latency equals the Hungarian optimum
/// over the same groups and servers.
fn assert_placement_is_optimal(base: &Scenario, configs: &[VideoConfig], a: &Assignment) {
    let uplinks = base.planning_uplinks();
    let cost: Vec<Vec<f64>> = a
        .groups
        .iter()
        .map(|g| {
            let bits: f64 = g
                .iter()
                .map(|&i| {
                    let camera = a.streams[i].id.source;
                    base.surfaces(camera)
                        .bits_per_frame(configs[camera].resolution)
                })
                .sum();
            uplinks.iter().map(|&b| bits / b).collect()
        })
        .collect();
    let (_, optimum) = hungarian_min_cost(&cost);
    assert!(
        (a.total_comm_latency - optimum).abs() <= 1e-12 * optimum,
        "placement latency {} vs Hungarian optimum {optimum}",
        a.total_comm_latency
    );
}

#[test]
fn des_uplink_paths_are_bit_pinned() {
    let (base, configs, assignment) = placement();
    assert_placement_is_optimal(&base, &configs, &assignment);
    let markov = base.clone().with_link_models(
        (0..CAMERAS as u64)
            .map(|c| LinkModel::gilbert_elliott(20e6, 6e6, 3.0, 1.0, 700 + c))
            .collect(),
    );
    let round_robin = base
        .clone()
        .with_link_bundles(bundles(900), BondPolicy::RoundRobin);
    let earliest = base
        .clone()
        .with_link_bundles(bundles(900), BondPolicy::EarliestDelivery);
    let faulted = base.clone().with_fault_plan(
        FaultPlan::none(SERVERS, CAMERAS)
            .with_server_crashes(40.0, 5.0, 11)
            .with_server_stragglers(2.0, 20.0, 3.0, 12)
            .with_camera_dropout(60.0, 4.0, 13)
            .with_frame_loss(0.05, 14)
            .with_retry(RetryPolicy::standard()),
    );

    let run = |sc: &Scenario, phases: PhasePolicy, with_faults: bool, rec: &dyn Recorder| {
        let sim = if with_faults {
            simulate_scenario_faulted_recorded
        } else {
            simulate_scenario_with_deadline_recorded
        };
        sim(
            sc,
            &configs,
            &assignment,
            phases,
            HORIZON_S,
            DEADLINE_S,
            rec,
        )
    };
    let mut hashes = Vec::new();
    for (name, sc, phases, with_faults) in [
        ("fixed", &base, PhasePolicy::AllZero, false),
        ("markov", &markov, PhasePolicy::ZeroJitter, false),
        ("round-robin", &round_robin, PhasePolicy::ZeroJitter, false),
        ("earliest", &earliest, PhasePolicy::ZeroJitter, false),
        ("faulted", &faulted, PhasePolicy::ZeroJitter, true),
    ] {
        let flight = FlightRecorder::new();
        let r = run(sc, phases, with_faults, &flight);
        let noop = run(sc, phases, with_faults, &NoopRecorder);
        assert_eq!(
            report_hash(&noop),
            report_hash(&r),
            "{name}: telemetry changed the DES report"
        );
        if with_faults {
            assert!(
                r.report.total_dropped() > 0,
                "the fault plan must drop frames"
            );
        }
        hashes.push(digest(&r, &flight));
    }

    println!("des hashes {hashes:#x?}");
    assert_eq!(hashes, PINNED_DES_HASHES, "a DES uplink path drifted");
}
