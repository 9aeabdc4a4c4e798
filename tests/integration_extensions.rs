//! Integration tests for the extension features: virtualization,
//! drift + online adaptation, and shared per-server uplinks.

use pamo::core::{run_online, PamoConfig, PreferenceSource};
use pamo::obs::NoopRecorder;
use pamo::prelude::*;
use pamo::sim::des::{simulate, SimConfig, SimReport, SimStream, StreamLink, Uplinks};
use pamo::stats::rng::seeded;
use pamo::workload::clip::clip_set;
use pamo::workload::{LinkModel, PhysicalServer, Virtualization};

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
    let run = run_online(
        &base,
        0.25,
        &tiny_cfg(),
        [1.0; 5],
        5,
        None,
        2,
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
    // and the frame whose capture saturates at 0 falls in the warmup,
    // so both uplink modes report the same run, bit for bit.
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
    let shared = simulate(&streams, Uplinks::Shared(None), 3, &cfg, &NoopRecorder).unwrap();
    // `{:?}` prints each f64 as its shortest round-trip form, so equal
    // strings mean equal bits.
    assert_eq!(format!("{dedicated:?}"), format!("{shared:?}"));
    assert_eq!(shared.max_jitter_s, 0.0);
}

/// FNV-1a hash of a contended shared-uplink run (four streams per
/// server, links and CPUs both queueing), over fixed and Markov links.
const PINNED_SHARED_UPLINK_HASHES: [u64; 2] = [0xb427_686d_bf1c_33e4, 0x43dc_3053_6f40_5ab9];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Hash of every stream's frame, miss and drop counts and its latency
/// mean/min/max and jitter bits.
fn stream_report_hash(r: &SimReport) -> u64 {
    let mut h = FNV_OFFSET;
    for s in &r.streams {
        for v in [s.frames, s.deadline_misses, s.dropped] {
            h = fnv(h, v);
        }
        for v in [
            s.latency.mean(),
            s.latency.min(),
            s.latency.max(),
            s.jitter_s,
        ] {
            h = fnv(h, v.to_bits());
        }
    }
    h
}

#[test]
fn contended_shared_uplinks_are_bit_pinned() {
    let n_servers = 3;
    let streams: Vec<SimStream> = (0..12)
        .map(|i| SimStream {
            id: StreamId::source(i),
            period: [100_000, 200_000, 100_000, 400_000][i % 4],
            proc: [15_000, 30_000, 10_000, 40_000][i % 4],
            trans: [12_000, 25_000, 8_000, 30_000][(i / 3) % 4],
            server: i % n_servers,
            phase: [0, 0, 20_000][i % 3],
        })
        .collect();
    let cfg = SimConfig {
        horizon: 20_000_000,
        warmup: 1_000_000,
        deadline: 120_000,
    };
    let markov: Vec<StreamLink> = streams
        .iter()
        .map(|s| StreamLink {
            bits_per_frame: s.trans as f64 / 1e6 * 20e6,
            trace: LinkModel::gilbert_elliott(20e6, 6e6, 2.0, 0.5, 40 + s.server as u64)
                .trace(cfg.horizon),
        })
        .collect();
    let mut hashes = Vec::new();
    for links in [None, Some(markov.as_slice())] {
        let r = simulate(
            &streams,
            Uplinks::Shared(links),
            n_servers,
            &cfg,
            &NoopRecorder,
        )
        .unwrap();
        let frames: u64 = r.streams.iter().map(|s| s.frames).sum();
        let misses: u64 = r.streams.iter().map(|s| s.deadline_misses).sum();
        println!(
            "{frames} frames, {misses} misses, mean {:.6} s, jitter {:.6} s",
            r.mean_latency_s, r.max_jitter_s
        );
        assert!(r.max_jitter_s > 0.0, "the shared links must contend");
        hashes.push(stream_report_hash(&r));
    }
    println!("shared-uplink hashes {hashes:#x?}");
    assert_eq!(
        hashes, PINNED_SHARED_UPLINK_HASHES,
        "the shared-uplink DES drifted"
    );
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
