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
//! Each scale's epoch is decided five times (a fresh `Pamo` each rep,
//! deterministic under the fixed seed) and charted at the median, with
//! the CPU time's min and max beside it. CPU time is the deciding
//! thread's, in nanoseconds: the decide runs on one thread.
//!
//! Gates: at every scale the placement's latency equals the Hungarian
//! optimum within 1e-12 relative; in full mode the M = 2000 epoch must
//! also finish under 2 s of CPU time at the median (steal-immune on
//! shared hosts; wall-clock is charted alongside).
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

/// Decides per scale; the chart shows their median.
const REPS: usize = 5;

/// The calling thread's CPU time in milliseconds, at nanosecond
/// resolution: the first field of `/proc/thread-self/schedstat`. The
/// decision-time gate uses CPU time rather than wall-clock so noisy
/// neighbours on a shared CI host cannot flake it; `None` on platforms
/// without procfs, where the gate falls back to wall-clock.
///
/// The kernel adds a running thread's time to that field only at
/// scheduler events, so a plain read can lag by up to one scheduler
/// tick (4 ms at 250 Hz). Yielding first is such an event: it brings
/// the field up to date.
fn cpu_time_ms() -> Option<f64> {
    std::thread::yield_now();
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: u64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 * 1e-6)
}

/// Median of a non-empty sample (the mean of the middle two for an
/// even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
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
        "cpu_min..max",
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
        // Each rep builds a fresh `Pamo` (no cross-epoch caches) and is
        // deterministic under the fixed seed, so the reps differ only
        // in what the host did meanwhile.
        let mut wall_ms = Vec::with_capacity(REPS);
        let mut cpu_ms = Vec::with_capacity(REPS);
        let mut decision = None;
        for _ in 0..REPS {
            let mut pamo = Pamo::new(scale_config());
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
            wall_ms.push(w);
            cpu_ms.push(c);
            decision = Some(d);
        }
        let d = decision.expect("at least one rep ran");
        let cpu_min = cpu_ms.iter().copied().fold(f64::INFINITY, f64::min);
        let cpu_max = cpu_ms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let decide_ms = median(wall_ms);
        let decide_cpu_ms = median(cpu_ms);

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
            format!("{decide_cpu_ms:.1}"),
            format!("{cpu_min:.1}..{cpu_max:.1}"),
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
            "decide_cpu_ms_min": cpu_min,
            "decide_cpu_ms_max": cpu_max,
            "reps": REPS,
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
                "M=2000 decision epoch took {decide_cpu_ms:.0} ms CPU at the median of {REPS} \
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
