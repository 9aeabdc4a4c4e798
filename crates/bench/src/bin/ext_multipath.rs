//! Extension experiment: the multipath penalty and its HoL-aware cure.
//!
//! Every camera bonds three heterogeneous uplinks — a fast short-RTT
//! link, a mid link, and a slow long-RTT link (the 5G + 4G + LTE mix of
//! real bonded field kits). Four arms run the *same* joint
//! configuration and placement, so realized benefit isolates the
//! striping physics:
//!
//! * **best-single** — the camera ignores bonding and rides only its
//!   best member link,
//! * **rr-bonded** — naïve round-robin striping across all three links:
//!   the slow far link carries every third packet, head-of-line
//!   blocking the reorder buffer until bonded delivery lands *below*
//!   best-single (the multipath penalty),
//! * **weighted-bonded** — delivery-rate-weighted striping: fixes the
//!   serialization imbalance but still pays the worst member's one-way
//!   delay on every frame,
//! * **hol-bonded** — earliest-delivery (HoL-aware) striping:
//!   water-fills members in delay order, skipping links whose latency
//!   cannot pay for their capacity — recovers the bond and exceeds
//!   best-single.
//!
//! The DES transmits every frame packet-by-packet over the materialized
//! member traces (estimator-steered striping + reorder buffer) and the
//! realized benefit charges the *measured* in-order delivery latency;
//! accuracy/network/compute/energy are identical across arms by
//! construction.
//!
//! The planning channel is exercised separately: each arm's scenario
//! carries its bonded effective rate as the planning belief
//! (`Scenario::with_bonded_planning`), and JCAB decides on it — the
//! table reports the belief each policy supports and the accuracy JCAB
//! buys with it.
//!
//! ```text
//! cargo run --release -p eva-bench --bin ext_multipath [--smoke]
//! ```
//!
//! `--smoke` shrinks the horizon for CI and writes
//! `results/ext_multipath_smoke.json`; the full run writes
//! `results/ext_multipath.json`. Both assert the penalty (rr-bonded
//! realized benefit < best-single) and the recovery (hol-bonded ≥
//! best-single), plus the belief ordering the planner consumes.

use eva_baselines::jcab::{Jcab, JcabConfig};
use eva_bench::Table;
use eva_bond::{BondPolicy, BondedLink, LinkBundle};
use eva_net::LinkModel;
use eva_obs::NoopRecorder;
use eva_sched::{Ticks, TICKS_PER_SEC};
use eva_sim::{simulate, SimConfig, SimStream, StreamBundle, Uplinks};
use eva_workload::{clip_set, ConfigSpace, Outcome, Scenario, VideoConfig};
use pamo_core::TruePreference;

const N_CAMS: usize = 6;
const N_SERVERS: usize = 3;
/// Provisioned per-server rate (the scenario anchor; realized
/// transmission always comes from the bundles).
const PROVISIONED_BPS: f64 = 20e6;
/// Safety margin applied to the bonded planning belief.
const HEADROOM: f64 = 1.1;
/// Per-frame e2e deadline (s) for the DES miss counter — sits between
/// the HoL-aware frame delivery (+ processing) and the round-robin one.
const DEADLINE_S: f64 = 0.30;
/// The fixed joint configuration every arm runs: resolution heavy
/// enough that the frame (~445 kbit) needs more than one member link
/// to beat the best single one.
const RES: f64 = 1800.0;
const FPS: f64 = 1.0;
/// Latency-weighted preference: bonded uplinks exist to serve
/// latency-sensitive analytics.
const WEIGHTS: [f64; 5] = [3.0, 1.0, 1.0, 1.0, 1.0];

/// The per-camera trio: fast/short-RTT, mid, slow/far — each fading
/// member a Gilbert-Elliott process, the far link steady.
fn trio(seed: u64) -> LinkBundle {
    LinkBundle::new(vec![
        BondedLink::new(LinkModel::gilbert_elliott(12e6, 5e6, 6.0, 1.5, seed), 0.030),
        BondedLink::new(
            LinkModel::gilbert_elliott(8e6, 3e6, 6.0, 1.5, seed + 50),
            0.080,
        ),
        BondedLink::new(LinkModel::constant(5e6), 0.200),
    ])
}

/// The bundle's best member as a degenerate single-link bundle.
fn best_single(bundle: &LinkBundle, frame_bits: f64) -> LinkBundle {
    let best = bundle
        .links()
        .iter()
        .max_by(|a, b| {
            let rate =
                |l: &BondedLink| frame_bits / (frame_bits / l.model.nominal_bps() + l.owd_s());
            rate(a).total_cmp(&rate(b))
        })
        .expect("bundle is non-empty")
        .clone();
    LinkBundle::new(vec![best])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let horizon_s: u64 = if smoke { 10 } else { 40 };

    // Per-server provisioned rates span the bundle's member classes
    // (fast member / far member / worst-case fading) so the preference
    // normalizer's cost bounds cover the full bonded operating
    // envelope — realized latencies must not saturate the clamp.
    let truth = Scenario::new(
        clip_set(N_CAMS, 99),
        vec![12e6, 5e6, 3e6],
        ConfigSpace::default(),
    );
    let pref = TruePreference::new(&truth, WEIGHTS);
    let configs = vec![VideoConfig::new(RES, FPS); N_CAMS];
    let frame_bits = truth.surfaces(0).bits_per_frame(RES);

    let trios: Vec<LinkBundle> = (0..N_CAMS).map(|i| trio(3000 + 7 * i as u64)).collect();
    let arms: Vec<(&str, Vec<LinkBundle>, BondPolicy)> = vec![
        (
            "best-single",
            trios.iter().map(|b| best_single(b, frame_bits)).collect(),
            BondPolicy::EarliestDelivery,
        ),
        ("rr-bonded", trios.clone(), BondPolicy::RoundRobin),
        ("weighted-bonded", trios.clone(), BondPolicy::RateWeighted),
        ("hol-bonded", trios.clone(), BondPolicy::EarliestDelivery),
    ];

    let jcab = Jcab::new(JcabConfig {
        latency_deadline_s: DEADLINE_S,
        ..Default::default()
    });

    // Fixed outcome terms shared by every arm (the fixed joint config).
    let (mut acc, mut net, mut com, mut eng) = (0.0, 0.0, 0.0, 0.0);
    for (i, c) in configs.iter().enumerate() {
        let s = truth.surfaces(i);
        acc += s.accuracy(c);
        net += s.bandwidth_bps(c);
        com += s.compute_tflops(c);
        eng += s.power_w(c);
    }

    let mut table = Table::new(vec![
        "arm",
        "belief_mbps",
        "jcab_acc",
        "benefit",
        "miss_rate",
        "mean_lat_s",
        "hol_wait_s",
        "pkts",
    ]);
    let mut results = Vec::new();
    let mut belief_of: Vec<(String, f64)> = Vec::new();
    let mut benefit_of: Vec<(String, f64)> = Vec::new();
    for (name, bundles, policy) in &arms {
        // Planning channel: the bonded effective rate is the Eq. 5 `B`
        // the planner believes; JCAB buys accuracy against it.
        let sc = truth
            .clone()
            .with_link_bundles(bundles.clone(), *policy)
            .with_bonded_planning(frame_bits, HEADROOM)
            .expect("bundles are attached");
        let belief = sc.planning_uplinks().iter().sum::<f64>() / sc.planning_uplinks().len() as f64;
        let d = jcab.decide(&sc);
        let jcab_acc = (0..N_CAMS)
            .map(|i| sc.surfaces(i).accuracy(&d.configs[i]))
            .sum::<f64>()
            / N_CAMS as f64;

        // Physics channel: the fixed joint config through the DES under
        // this arm's striping policy (placement cam i -> server i mod N,
        // identical across arms).
        let cfg = SimConfig {
            horizon: horizon_s * TICKS_PER_SEC,
            warmup: TICKS_PER_SEC,
            deadline: (DEADLINE_S * TICKS_PER_SEC as f64).round() as Ticks,
        };
        let timings = sc.stream_timings(&configs);
        let streams: Vec<SimStream> = timings
            .iter()
            .enumerate()
            .map(|(i, t)| SimStream {
                id: t.id,
                period: t.period,
                proc: t.proc,
                trans: ((frame_bits / PROVISIONED_BPS * TICKS_PER_SEC as f64).round() as Ticks)
                    .max(1),
                server: i % N_SERVERS,
                phase: 0,
            })
            .collect();
        let mut stream_bundles: Vec<StreamBundle> = (0..N_CAMS)
            .map(|i| StreamBundle {
                bits_per_frame: frame_bits,
                sim: bundles[i].simulator(cfg.horizon, *policy),
            })
            .collect();
        let r = simulate(
            &streams,
            Uplinks::Bundles(&mut stream_bundles),
            N_SERVERS,
            &cfg,
            &NoopRecorder,
        )
        .expect("valid DES input");

        let (misses, frames) = r.streams.iter().fold((0u64, 0u64), |(m, f), s| {
            (m + s.deadline_misses, f + s.frames)
        });
        let miss_rate = misses as f64 / frames.max(1) as f64;
        let hol_s: f64 = stream_bundles
            .iter()
            .map(|b| b.sim.hol_wait_s_total())
            .sum();
        let packets: u64 = stream_bundles.iter().map(|b| b.sim.packets()).sum();

        // Realized benefit: measured in-order delivery latency through
        // the bond; everything else fixed by construction.
        let outcome = Outcome {
            latency_s: r.mean_latency_s,
            accuracy: acc / N_CAMS as f64,
            network_bps: net,
            compute_tflops: com,
            power_w: eng,
        };
        let benefit = pref.benefit(&outcome);
        belief_of.push((name.to_string(), belief));
        benefit_of.push((name.to_string(), benefit));

        table.row(vec![
            name.to_string(),
            format!("{:.2}", belief / 1e6),
            format!("{jcab_acc:.4}"),
            format!("{benefit:.4}"),
            format!("{miss_rate:.4}"),
            format!("{:.4}", r.mean_latency_s),
            format!("{hol_s:.3}"),
            format!("{packets}"),
        ]);
        results.push(serde_json::json!({
            "arm": name,
            "policy": policy.as_str(),
            "planning_mean_bps": belief,
            "jcab_mean_accuracy": jcab_acc,
            "benefit": benefit,
            "deadline_miss_rate": miss_rate,
            "mean_latency_s": r.mean_latency_s,
            "max_jitter_s": r.max_jitter_s,
            "hol_wait_s_total": hol_s,
            "packets": packets,
        }));
    }

    println!("== Extension: bonded multipath uplinks & the HoL penalty ==");
    println!(
        "bundle: GE 12/5 Mb/s @30 ms + GE 8/3 Mb/s @80 ms + 5 Mb/s @200 ms per camera; \
         frame {frame_bits:.0} bits ({RES:.0}p @ {FPS:.0} fps), deadline {DEADLINE_S} s, \
         horizon {horizon_s} s"
    );
    println!("{table}");
    println!(
        "Reading: round-robin hands every third packet to the 200 ms link,\n\
         so the reorder buffer holds the rest of the frame until it limps\n\
         in — bonded delivery lands *below* the best single link (the\n\
         multipath penalty). Rate-weighted striping fixes the share sizes\n\
         but still pays the far link's delay every frame. The HoL-aware\n\
         striper water-fills by earliest delivery, skipping members whose\n\
         delay cannot pay for their capacity, and beats best-single — and\n\
         its higher effective-rate belief lets the planner (JCAB) admit\n\
         richer configurations than the round-robin bond supports."
    );

    let of = |v: &[(String, f64)], arm: &str| -> f64 {
        v.iter()
            .find(|(n, _)| n == arm)
            .unwrap_or_else(|| panic!("arm {arm} ran"))
            .1
    };
    // Belief ordering consumed by the planner (analytic, deterministic).
    assert!(
        of(&belief_of, "rr-bonded") < of(&belief_of, "best-single"),
        "rr belief should sit below best-single"
    );
    assert!(
        of(&belief_of, "hol-bonded") > of(&belief_of, "best-single"),
        "hol belief should exceed best-single"
    );
    // Realized penalty and recovery.
    assert!(
        of(&benefit_of, "rr-bonded") < of(&benefit_of, "best-single"),
        "multipath penalty missing: rr {} vs single {}",
        of(&benefit_of, "rr-bonded"),
        of(&benefit_of, "best-single")
    );
    assert!(
        of(&benefit_of, "hol-bonded") >= of(&benefit_of, "best-single"),
        "HoL-aware recovery missing: hol {} vs single {}",
        of(&benefit_of, "hol-bonded"),
        of(&benefit_of, "best-single")
    );
    println!(
        "penalty: rr-bonded {:+.4} < best-single {:+.4}; \
         recovery: hol-bonded {:+.4} >= best-single",
        of(&benefit_of, "rr-bonded"),
        of(&benefit_of, "best-single"),
        of(&benefit_of, "hol-bonded")
    );

    let path = if smoke {
        "results/ext_multipath_smoke.json"
    } else {
        "results/ext_multipath.json"
    };
    std::fs::create_dir_all("results").ok();
    std::fs::write(path, serde_json::to_string_pretty(&results).unwrap())
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("(wrote {path})");
}
