//! Shared decision evaluation: what a scheduling decision *actually*
//! yields on the cluster.
//!
//! Resource aggregates (accuracy, bandwidth, computation, power) follow
//! the analytic Eq. 2-4 sums — they do not depend on placement. Latency
//! is *measured* by the discrete-event simulator under the decision's
//! own placement with *uncoordinated* stream starts (deterministic
//! pseudo-random phases — real cameras do not boot synchronized):
//! schedulers that overload a server or co-locate non-harmonic streams
//! pay the queueing and jitter penalty of Fig. 3(a)/Fig. 4, but are not
//! charged for the adversarial all-frames-at-once artifact of phase-0
//! starts. Zero-jitter placements measure exactly their analytic
//! latency (Theorem 1).

use eva_obs::NoopRecorder;
use eva_sched::{StreamId, StreamTiming, Ticks, TICKS_PER_SEC};
use eva_sim::des::{simulate, SimConfig, SimStream, Uplinks};
use eva_workload::{Outcome, Scenario, VideoConfig};

/// A baseline scheduler's decision: per-camera configuration plus a
/// per-camera server assignment (baselines do not split streams).
#[derive(Debug, Clone)]
pub struct Decision {
    /// One configuration per camera.
    pub configs: Vec<VideoConfig>,
    /// One server index per camera.
    pub server_of: Vec<usize>,
}

/// Default measurement horizon (simulated seconds).
pub const MEASURE_HORIZON_SECS: f64 = 12.0;

/// Evaluate a decision on the scenario: analytic resource aggregates +
/// DES-measured latency. Always succeeds (overload shows up as latency,
/// not as an error).
pub fn measure_decision(scenario: &Scenario, decision: &Decision) -> Outcome {
    let n = scenario.n_videos();
    assert_eq!(decision.configs.len(), n, "measure: configs length");
    assert_eq!(decision.server_of.len(), n, "measure: placement length");
    assert!(
        decision.server_of.iter().all(|&s| s < scenario.n_servers()),
        "measure: server index out of range"
    );

    // Analytic aggregates (Eq. 2-4).
    let mut acc = 0.0;
    let mut net = 0.0;
    let mut com = 0.0;
    let mut eng = 0.0;
    for (i, c) in decision.configs.iter().enumerate() {
        let s = scenario.surfaces(i);
        acc += s.accuracy(c);
        net += s.bandwidth_bps(c);
        com += s.compute_tflops(c);
        eng += s.power_w(c);
    }

    // Measured latency (DES with naive phases, no splitting).
    let sim_streams: Vec<SimStream> = decision
        .configs
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let surf = scenario.surfaces(i);
            let server = decision.server_of[i];
            let trans_secs = surf.bits_per_frame(c.resolution) / scenario.uplinks()[server];
            let timing = StreamTiming::from_rate(
                StreamId::source(i),
                c.fps,
                surf.proc_time_secs(c.resolution),
            );
            // Uncoordinated start: a deterministic pseudo-random phase
            // inside the stream's own period (Knuth multiplicative hash).
            let phase = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % timing.period;
            SimStream {
                id: timing.id,
                period: timing.period,
                proc: timing.proc,
                trans: (trans_secs * TICKS_PER_SEC as f64).round().max(0.0) as Ticks,
                server,
                phase,
            }
        })
        .collect();
    let cfg = SimConfig {
        horizon: (MEASURE_HORIZON_SECS * TICKS_PER_SEC as f64) as Ticks,
        warmup: TICKS_PER_SEC,
        deadline: 0,
    };
    let report = simulate(
        &sim_streams,
        Uplinks::Fixed,
        scenario.n_servers(),
        &cfg,
        &NoopRecorder,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    let measured: Vec<f64> = report
        .streams
        .iter()
        .filter(|s| s.frames > 0)
        .map(|s| s.latency.mean())
        .collect();
    let latency = if measured.is_empty() {
        // Total starvation (pathological overload): charge the horizon.
        MEASURE_HORIZON_SECS
    } else {
        measured.iter().sum::<f64>() / measured.len() as f64
    };

    Outcome {
        latency_s: latency,
        accuracy: acc / n as f64,
        network_bps: net,
        compute_tflops: com,
        power_w: eng,
    }
}

/// Greedy First-Fit placement by utilization (JCAB's allocator): place
/// streams in decreasing-utilization order into the first server whose
/// load stays ≤ 1; spill to the least-loaded server when none fits.
pub fn first_fit_by_utilization(utilizations: &[f64], n_servers: usize) -> Vec<usize> {
    assert!(n_servers > 0, "first_fit: no servers");
    let mut order: Vec<usize> = (0..utilizations.len()).collect();
    order.sort_by(|&a, &b| utilizations[b].total_cmp(&utilizations[a]));
    let mut load = vec![0.0f64; n_servers];
    let mut placement = vec![0usize; utilizations.len()];
    for &i in &order {
        let u = utilizations[i];
        let fit = (0..n_servers).find(|&s| load[s] + u <= 1.0 + 1e-12);
        let target = fit.unwrap_or_else(|| {
            // Spill: least-loaded server.
            (0..n_servers)
                .min_by(|&a, &b| load[a].total_cmp(&load[b]))
                .unwrap_or(0)
        });
        load[target] += u;
        placement[i] = target;
    }
    placement
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::uniform(3, 2, 20e6, 3)
    }

    #[test]
    fn light_decision_measures_near_analytic_latency() {
        let sc = scenario();
        let configs = vec![VideoConfig::new(480.0, 5.0); 3];
        // Spread across servers: no contention.
        let decision = Decision {
            configs: configs.clone(),
            server_of: vec![0, 1, 0],
        };
        let out = measure_decision(&sc, &decision);
        let analytic: f64 = (0..3)
            .map(|i| sc.surfaces(i).e2e_latency_secs(&configs[i], 20e6))
            .sum::<f64>()
            / 3.0;
        // Streams on server 0 may collide occasionally (same phase) but
        // the load is tiny; allow a loose band.
        assert!(
            out.latency_s < analytic * 3.0,
            "{} vs {analytic}",
            out.latency_s
        );
        assert!(out.latency_s >= analytic * 0.9);
    }

    #[test]
    fn overloading_one_server_is_punished() {
        let sc = scenario();
        let configs = vec![VideoConfig::new(1440.0, 15.0); 3]; // heavy
        let all_on_one = Decision {
            configs: configs.clone(),
            server_of: vec![0, 0, 0],
        };
        let spread = Decision {
            configs,
            server_of: vec![0, 1, 0],
        };
        let bad = measure_decision(&sc, &all_on_one);
        let good = measure_decision(&sc, &spread);
        assert!(
            bad.latency_s > good.latency_s,
            "overload {} vs spread {}",
            bad.latency_s,
            good.latency_s
        );
        // Resource aggregates are placement-independent.
        assert!((bad.power_w - good.power_w).abs() < 1e-9);
        assert!((bad.accuracy - good.accuracy).abs() < 1e-12);
    }

    #[test]
    fn first_fit_respects_capacity_when_possible() {
        let placement = first_fit_by_utilization(&[0.6, 0.5, 0.4, 0.3], 2);
        let mut load = vec![0.0; 2];
        for (i, &s) in placement.iter().enumerate() {
            load[s] += [0.6, 0.5, 0.4, 0.3][i];
        }
        assert!(load.iter().all(|&l| l <= 1.0 + 1e-9), "{load:?}");
    }

    #[test]
    fn first_fit_spills_to_least_loaded() {
        // Three streams of 0.8 on two servers: one server must take two.
        let placement = first_fit_by_utilization(&[0.8, 0.8, 0.8], 2);
        let mut counts = vec![0; 2];
        for &s in &placement {
            counts[s] += 1;
        }
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2]);
    }

    #[test]
    fn first_fit_handles_empty_input() {
        assert!(first_fit_by_utilization(&[], 3).is_empty());
    }
}
