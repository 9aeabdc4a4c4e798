//! `pamo-cli` — command-line front end for the PaMO scheduler.
//!
//! ```text
//! pamo_cli schedule --videos 6 --servers 4 --uplink-mbps 20 \
//!     --weights 1,2,1,1,1 --seed 42 [--oracle] [--iters 8]
//! pamo_cli profile --clip MOT16-02 --resolution 1080 --fps 15 --uplink-mbps 20
//! pamo_cli verify --videos 6 --servers 4 --seed 42
//! ```
//!
//! `schedule` runs Algorithm 2 on a generated scenario and prints the
//! decision; `profile` prints one clip's outcome surface point;
//! `verify` re-simulates a decision in the DES and reports the
//! measured jitter (expected: exactly zero).

use pamo::obs::NoopRecorder;
use pamo::prelude::*;
use pamo::stats::rng::seeded;
use pamo::workload::{mot16_library, SurfaceModel, N_OBJECTIVES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage_and_exit();
    };
    match command.as_str() {
        "schedule" => schedule(&args[1..], false),
        "verify" => schedule(&args[1..], true),
        "profile" => profile(&args[1..]),
        "--help" | "-h" | "help" => usage_and_exit(),
        other => {
            eprintln!("unknown command: {other}\n");
            usage_and_exit();
        }
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "pamo-cli — preference-aware edge video analytics scheduler\n\n\
         USAGE:\n\
         \u{20}  pamo_cli schedule [--videos N] [--servers N] [--uplink-mbps B]\n\
         \u{20}                    [--weights w1,w2,w3,w4,w5] [--seed S]\n\
         \u{20}                    [--oracle] [--iters N] [--comparisons V]\n\
         \u{20}  pamo_cli verify    (schedule + DES zero-jitter verification)\n\
         \u{20}  pamo_cli profile  --clip NAME --resolution R --fps F --uplink-mbps B\n"
    );
    std::process::exit(2);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag(args, name) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for {name}: {v}");
            std::process::exit(2);
        }),
        None => default,
    }
}

fn schedule(args: &[String], verify: bool) {
    let videos: usize = flag_parse(args, "--videos", 6);
    let servers: usize = flag_parse(args, "--servers", 4);
    let uplink_mbps: f64 = flag_parse(args, "--uplink-mbps", 20.0);
    let seed: u64 = flag_parse(args, "--seed", 42);
    let iters: usize = flag_parse(args, "--iters", 6);
    let comparisons: usize = flag_parse(args, "--comparisons", 15);
    let oracle = args.iter().any(|a| a == "--oracle");
    let weights = parse_weights(args);

    let scenario = Scenario::uniform(videos, servers, uplink_mbps * 1e6, seed);
    let pref = TruePreference::new(&scenario, weights);
    let mut cfg = PamoConfig::default();
    cfg.bo.max_iters = iters;
    cfg.n_comparisons = comparisons;
    if oracle {
        cfg = cfg.plus();
    }
    let decision = match Pamo::new(cfg).decide(&scenario, &pref, &mut seeded(seed)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("scheduling failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "scenario: {videos} videos x {servers} servers @ {uplink_mbps} Mbps, weights {weights:?}"
    );
    println!(
        "preference source: {}",
        if oracle {
            "oracle (PaMO+)"
        } else {
            "learned from comparisons (PaMO)"
        }
    );
    for (i, c) in decision.configs.iter().enumerate() {
        println!(
            "  camera {i} ({:<9}): {:>5}p @ {:>2} fps",
            scenario.clip(i).name,
            c.resolution,
            c.fps
        );
    }
    let o = &decision.outcome;
    println!(
        "outcome: {:.0} ms | {:.3} mAP | {:.2} Mbps | {:.2} TFLOP/s | {:.1} W",
        o.latency_s * 1000.0,
        o.accuracy,
        o.network_bps / 1e6,
        o.compute_tflops,
        o.power_w
    );
    println!("true benefit U = {:.4} (0 = utopia)", decision.true_benefit);

    if verify {
        let assignment = scenario.schedule(&decision.configs).expect("feasible");
        let sim = simulate_scenario_with_deadline_recorded(
            &scenario,
            &decision.configs,
            &assignment,
            PhasePolicy::ZeroJitter,
            20.0,
            0.0,
            &NoopRecorder,
        );
        println!(
            "DES verification over 20 s: max jitter = {:.6} s, measured latency \
             {:.4} s vs analytic {:.4} s",
            sim.report.max_jitter_s, sim.measured_mean_latency_s, sim.analytic_mean_latency_s
        );
        if sim.report.max_jitter_s > 0.0 {
            eprintln!("UNEXPECTED: jitter detected on a zero-jitter schedule");
            std::process::exit(1);
        }
    }
}

fn parse_weights(args: &[String]) -> [f64; N_OBJECTIVES] {
    let Some(raw) = flag(args, "--weights") else {
        return [1.0; N_OBJECTIVES];
    };
    let parts: Vec<f64> = raw
        .split(',')
        .map(|p| {
            p.trim().parse().unwrap_or_else(|_| {
                eprintln!("invalid weight: {p}");
                std::process::exit(2);
            })
        })
        .collect();
    if parts.len() != N_OBJECTIVES {
        eprintln!("--weights needs exactly {N_OBJECTIVES} comma-separated values");
        std::process::exit(2);
    }
    let mut w = [0.0; N_OBJECTIVES];
    w.copy_from_slice(&parts);
    w
}

fn profile(args: &[String]) {
    let clip_name = flag(args, "--clip").unwrap_or_else(|| "MOT16-02".to_string());
    let resolution: f64 = flag_parse(args, "--resolution", 1080.0);
    let fps: f64 = flag_parse(args, "--fps", 15.0);
    let uplink_mbps: f64 = flag_parse(args, "--uplink-mbps", 20.0);

    let Some(clip) = mot16_library().into_iter().find(|c| c.name == clip_name) else {
        eprintln!(
            "unknown clip {clip_name}; available: {}",
            mot16_library()
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    };
    let m = SurfaceModel::new(clip);
    let c = VideoConfig::new(resolution, fps);
    println!("clip {clip_name} @ {resolution}p, {fps} fps, {uplink_mbps} Mbps uplink:");
    println!("  mAP           {:.4}", m.accuracy(&c));
    println!(
        "  e2e latency   {:.4} s",
        m.e2e_latency_secs(&c, uplink_mbps * 1e6)
    );
    println!("  bandwidth     {:.3} Mbps", m.bandwidth_bps(&c) / 1e6);
    println!("  computation   {:.3} TFLOP/s", m.compute_tflops(&c));
    println!("  power         {:.2} W", m.power_w(&c));
    println!(
        "  per-frame     {:.1} ms compute, {:.0} kbit",
        m.proc_time_secs(resolution) * 1000.0,
        m.bits_per_frame(resolution) / 1000.0
    );
}
