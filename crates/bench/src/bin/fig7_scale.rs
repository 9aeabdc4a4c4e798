//! Decision-epoch scaling: one PaMO epoch at M up to 2000 cameras.
//!
//! Complements `fig7_scaling` (benefit vs the baselines at paper
//! scale) by charting how a *single decision epoch* scales: M ∈
//! {10, 100, 500, 2000} cameras on N = max(2, M/10) servers with
//! pool-drawn uplinks, oracle preference. For each scale the binary
//! reports the epoch wall-clock and process CPU time (profiling +
//! GP fit + BO search + Algorithm-1 placement) and the realized
//! benefit of the decision, then checks that the rank-paired placement
//! of the decided configs is an exact optimum of Algorithm 1's line-20
//! matching: its transmission latency must equal the Hungarian
//! optimum on the same groups.
//!
//! Gates: at every scale the placement's latency equals the Hungarian
//! optimum within 1e-12 relative; in full mode the M = 2000 epoch must
//! also finish under 2 s of process CPU time (steal-immune on shared
//! hosts; wall-clock is charted alongside).
//!
//! ```text
//! cargo run --release -p eva-bench --bin fig7_scale [--quick]
//! ```

use std::time::Instant;

use eva_bench::Table;
use eva_bo::{AcqKind, BoConfig};
use eva_sched::reference::hungarian_min_cost;
use eva_stats::rng::seeded;
use eva_workload::Scenario;
use pamo_core::{Pamo, PamoConfig, PreferenceSource, TruePreference};

/// A lean single-epoch budget: enough BO to move off the pool floor,
/// small enough that the epoch cost is dominated by the scale-sensitive
/// phases (profiling, placement, batched posterior evaluation).
fn scale_config() -> PamoConfig {
    PamoConfig {
        bo: BoConfig {
            n_init: 4,
            batch: 2,
            mc_samples: 16,
            max_iters: 3,
            delta: 0.02,
            kind: AcqKind::QNei,
        },
        pool_size: 12,
        profiling_per_camera: 20,
        profile_noise: 0.02,
        n_comparisons: 0,
        elicit_candidates: 0,
        preference: PreferenceSource::Oracle,
    }
}

/// Process CPU time (user + system) in milliseconds, parsed from
/// `/proc/self/stat` (clock ticks at `USER_HZ` = 100 on Linux). The
/// decision-time gate uses CPU time rather than wall-clock so noisy
/// neighbours on a shared CI host cannot flake it; `None` on platforms
/// without procfs, where the gate falls back to wall-clock.
fn cpu_time_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // comm (field 2) may contain spaces — parse after the closing ')'.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 0, so utime/stime (stat fields 14/15)
    // are at indices 11 and 12.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000.0 / 100.0)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scales: Vec<usize> = if quick {
        vec![10, 100]
    } else {
        vec![10, 100, 500, 2000]
    };

    let mut table = Table::new(vec![
        "M",
        "N",
        "decide_ms",
        "cpu_ms",
        "benefit",
        "groups",
        "latency_s",
        "hungarian_s",
        "rel_gap",
    ]);
    let mut results = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();

    for &m in &scales {
        let n = (m / 10).max(2);
        let sc = Scenario::standard(m, n, &mut seeded(4200 + m as u64));
        let pref = TruePreference::uniform(&sc);
        // The gate scale is measured twice and charted at the min:
        // each rep builds a fresh `Pamo` (no cross-epoch caches) and is
        // deterministic under the fixed seed, so the minimum of repeated
        // runs is the standard estimator of the epoch's true cost — even
        // CPU-tick accounting jitters ~10% on a shared host.
        let reps = if m == 2000 { 2 } else { 1 };
        let mut decide_ms = f64::INFINITY;
        let mut decide_cpu_ms = f64::INFINITY;
        let mut decision = None;
        for _ in 0..reps {
            let pamo = Pamo::new(scale_config());
            let wall = Instant::now();
            let cpu0 = cpu_time_ms();
            let d = pamo
                .decide(&sc, &pref, &mut seeded(7))
                .unwrap_or_else(|e| panic!("decide failed at M={m}: {e:?}"));
            let w = wall.elapsed().as_secs_f64() * 1e3;
            let c = match (cpu0, cpu_time_ms()) {
                (Some(a), Some(b)) => b - a,
                _ => w,
            };
            decide_ms = decide_ms.min(w);
            decide_cpu_ms = decide_cpu_ms.min(c);
            decision = Some(d);
        }
        let d = decision.expect("at least one rep ran");

        // Exactness: the decided configs' placement against the
        // Hungarian optimum over the same groups and servers.
        let a = sc
            .schedule(&d.configs)
            .expect("decided configs schedulable");
        let bits: Vec<f64> = d
            .configs
            .iter()
            .enumerate()
            .map(|(i, c)| sc.surfaces(i).bits_per_frame(c.resolution))
            .collect();
        let uplinks = sc.planning_uplinks();
        let cost: Vec<Vec<f64>> = a
            .groups
            .iter()
            .map(|g| {
                let gb: f64 = g.iter().map(|&i| bits[a.streams[i].id.source]).sum();
                uplinks.iter().map(|&b| gb / b).collect()
            })
            .collect();
        let (_, hungarian_s) = hungarian_min_cost(&cost);
        let gap = (a.total_comm_latency - hungarian_s).abs() / hungarian_s;

        table.row(vec![
            format!("{m}"),
            format!("{n}"),
            format!("{decide_ms:.0}"),
            format!("{decide_cpu_ms:.0}"),
            format!("{:.4}", d.true_benefit),
            format!("{}", a.groups.len()),
            format!("{:.6}", a.total_comm_latency),
            format!("{hungarian_s:.6}"),
            format!("{gap:.1e}"),
        ]);
        results.push(serde_json::json!({
            "m": m,
            "n": n,
            "decide_ms": decide_ms,
            "decide_cpu_ms": decide_cpu_ms,
            "benefit": d.true_benefit,
            "groups": a.groups.len(),
            "comm_latency_s": a.total_comm_latency,
            "hungarian_latency_s": hungarian_s,
            "latency_rel_gap": gap,
        }));

        if gap > 1e-12 {
            gate_failures.push(format!(
                "M={m}: placement latency {} s is {gap:.1e} relative off the Hungarian optimum \
                 {hungarian_s} s",
                a.total_comm_latency
            ));
        }
        if m == 2000 && decide_cpu_ms > 2000.0 {
            gate_failures.push(format!(
                "M=2000 decision epoch took {decide_cpu_ms:.0} ms CPU \
                 ({decide_ms:.0} ms wall; budget 2000 ms CPU)"
            ));
        }
    }
    println!("{table}");

    std::fs::create_dir_all("results").ok();
    std::fs::write(
        "results/fig7_scale.json",
        serde_json::to_string_pretty(&results).unwrap(),
    )
    .expect("write results/fig7_scale.json");
    println!("(wrote results/fig7_scale.json)");

    if gate_failures.is_empty() {
        println!("gates: OK (epoch < 2 s CPU at M=2000, placement latency = Hungarian optimum)");
    } else {
        for f in &gate_failures {
            eprintln!("gate FAILED: {f}");
        }
        std::process::exit(1);
    }
}
