//! FACT: block coordinate descent on latency + accuracy.
//!
//! Liu et al. (INFOCOM'18) orchestrate mobile-AR analytics by
//! alternating two blocks until a fixed point: (1) per-stream
//! *resolution* selection minimizing `w_lct·latency + w_acc·(1−accuracy)`
//! with the allocation fixed, and (2) server allocation minimizing
//! latency with the configurations fixed. Frame rate is not a FACT knob
//! (it stays at a fixed operating point), and energy/bandwidth are not
//! modeled — the limitation the paper's Fig. 6 bars surface.

use eva_workload::{Scenario, VideoConfig};

use crate::measure::Decision;

/// FACT tuning knobs.
#[derive(Debug, Clone)]
pub struct FactConfig {
    /// Latency weight.
    pub w_lct: f64,
    /// Accuracy weight (applied to `1 − accuracy`).
    pub w_acc: f64,
    /// Fixed frame rate (fps) used for every stream; snapped to the grid.
    pub fixed_fps: f64,
    /// Maximum BCD rounds.
    pub max_rounds: usize,
    /// Per-server utilization cap enforced during allocation.
    pub util_cap: f64,
    /// Termination threshold: stop BCD once the relative improvement of
    /// the scalarized cost falls below this (0 = run to fixed point).
    /// The Fig. 10(b) sensitivity knob.
    pub delta: f64,
}

impl Default for FactConfig {
    fn default() -> Self {
        FactConfig {
            w_lct: 1.0,
            w_acc: 1.0,
            fixed_fps: 10.0,
            max_rounds: 20,
            util_cap: 1.0,
            delta: 0.0,
        }
    }
}

/// The FACT scheduler.
#[derive(Debug, Clone, Default)]
pub struct Fact {
    config: FactConfig,
}

impl Fact {
    /// With explicit tuning.
    pub fn new(config: FactConfig) -> Self {
        Fact { config }
    }

    /// Run block coordinate descent and return the decision.
    pub fn decide(&self, scenario: &Scenario) -> Decision {
        let cfg = &self.config;
        let space = scenario.config_space();
        let n = scenario.n_videos();
        let n_servers = scenario.n_servers();

        // Snap the fixed fps to the grid.
        let fps = space
            .frame_rates()
            .iter()
            .copied()
            .min_by(|a, b| {
                (a - cfg.fixed_fps)
                    .abs()
                    .total_cmp(&(b - cfg.fixed_fps).abs())
            })
            .unwrap_or(cfg.fixed_fps);

        // Start at the lowest resolution, everything on the best uplink.
        let mut resolutions: Vec<f64> = vec![space.resolutions()[0]; n];
        let best_server = eva_linalg::vecops::argmax(scenario.planning_uplinks()).unwrap_or(0);
        let mut server_of: Vec<usize> = vec![best_server; n];
        let mut prev_cost = f64::INFINITY;

        for _round in 0..cfg.max_rounds {
            let mut changed = false;

            // Block 1: per-stream resolution, allocation fixed. Latency
            // is congestion-aware — FACT models server processing
            // congestion, so the processing term is inflated by the
            // utilization the co-located streams induce (M/D/1-style
            // `p/(1−ρ)` growth; effectively infinite past saturation).
            for i in 0..n {
                let s = scenario.surfaces(i);
                let uplink = scenario.planning_uplinks()[server_of[i]];
                let other_load: f64 = (0..n)
                    .filter(|&j| j != i && server_of[j] == server_of[i])
                    .map(|j| scenario.surfaces(j).proc_time_secs(resolutions[j]) * fps)
                    .sum();
                let mut best_r = resolutions[i];
                let mut best_cost = f64::INFINITY;
                for &r in space.resolutions() {
                    let c = VideoConfig::new(r, fps);
                    let util = s.proc_time_secs(r) * fps;
                    let rho = (other_load + util).min(0.999);
                    let headroom = (1.0 - rho).max(1e-3);
                    let lat = if other_load + util >= 1.0 {
                        // Saturated: unbounded queueing in steady state.
                        1e6
                    } else {
                        s.proc_time_secs(r) / headroom + s.bits_per_frame(r) / uplink
                    };
                    let cost = cfg.w_lct * lat + cfg.w_acc * (1.0 - s.accuracy(&c));
                    if cost < best_cost {
                        best_cost = cost;
                        best_r = r;
                    }
                }
                if best_r != resolutions[i] {
                    resolutions[i] = best_r;
                    changed = true;
                }
            }

            // Block 2: allocation, resolutions fixed. Greedy in
            // decreasing-utilization order: cheapest-latency server whose
            // load stays under the cap; spill to least-loaded.
            let utils: Vec<f64> = (0..n)
                .map(|i| scenario.surfaces(i).proc_time_secs(resolutions[i]) * fps)
                .collect();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| utils[b].total_cmp(&utils[a]));
            let mut load = vec![0.0f64; n_servers];
            let mut new_alloc = vec![0usize; n];
            for &i in &order {
                let bits = scenario.surfaces(i).bits_per_frame(resolutions[i]);
                let mut target = None;
                let mut best_lat = f64::INFINITY;
                for (sv, &b) in scenario.planning_uplinks().iter().enumerate() {
                    if load[sv] + utils[i] > cfg.util_cap + 1e-12 {
                        continue;
                    }
                    let lat = bits / b;
                    if lat < best_lat {
                        best_lat = lat;
                        target = Some(sv);
                    }
                }
                let sv = target.unwrap_or_else(|| {
                    (0..n_servers)
                        .min_by(|&a, &b| load[a].total_cmp(&load[b]))
                        .unwrap_or(0)
                });
                load[sv] += utils[i];
                new_alloc[i] = sv;
            }
            if new_alloc != server_of {
                server_of = new_alloc;
                changed = true;
            }

            // δ-termination: stop once the scalarized cost stops
            // improving by more than `delta` relative (Fig. 10(b)).
            let cost: f64 = (0..n)
                .map(|i| {
                    let s = scenario.surfaces(i);
                    let c = VideoConfig::new(resolutions[i], fps);
                    cfg.w_lct * s.e2e_latency_secs(&c, scenario.planning_uplinks()[server_of[i]])
                        + cfg.w_acc * (1.0 - s.accuracy(&c))
                })
                .sum();
            let improved_enough = prev_cost - cost > cfg.delta * prev_cost.abs().max(1e-12);
            let settled = cfg.delta > 0.0 && !improved_enough;
            prev_cost = cost;

            if !changed || settled {
                break;
            }
        }

        Decision {
            configs: resolutions
                .into_iter()
                .map(|r| VideoConfig::new(r, fps))
                .collect(),
            server_of,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_decision;

    fn scenario() -> Scenario {
        Scenario::uniform(6, 4, 20e6, 13)
    }

    #[test]
    fn decision_uses_fixed_fps() {
        let sc = scenario();
        let d = Fact::default().decide(&sc);
        assert!(d.configs.iter().all(|c| c.fps == 10.0));
        assert!(d
            .configs
            .iter()
            .all(|c| sc.config_space().resolutions().contains(&c.resolution)));
    }

    #[test]
    fn latency_weight_shrinks_latency() {
        let sc = scenario();
        let lat_heavy = Fact::new(FactConfig {
            w_lct: 10.0,
            w_acc: 0.1,
            ..Default::default()
        })
        .decide(&sc);
        let acc_heavy = Fact::new(FactConfig {
            w_lct: 0.1,
            w_acc: 10.0,
            ..Default::default()
        })
        .decide(&sc);
        let o_lat = measure_decision(&sc, &lat_heavy).unwrap();
        let o_acc = measure_decision(&sc, &acc_heavy).unwrap();
        assert!(o_lat.latency_s <= o_acc.latency_s + 1e-9);
        assert!(o_acc.accuracy >= o_lat.accuracy - 1e-9);
    }

    #[test]
    fn allocation_respects_cap_when_feasible() {
        let sc = scenario();
        let d = Fact::default().decide(&sc);
        let mut load = vec![0.0f64; sc.n_servers()];
        for (i, c) in d.configs.iter().enumerate() {
            load[d.server_of[i]] += sc.surfaces(i).proc_time_secs(c.resolution) * c.fps;
        }
        assert!(
            load.iter().all(|&l| l <= 1.0 + 1e-9),
            "server loads {load:?}"
        );
    }

    #[test]
    fn bcd_is_deterministic_and_terminates() {
        let sc = scenario();
        let a = Fact::default().decide(&sc);
        let b = Fact::default().decide(&sc);
        assert_eq!(a.configs, b.configs);
        assert_eq!(a.server_of, b.server_of);
    }

    #[test]
    fn heterogeneous_uplinks_steer_heavy_streams() {
        // One fast, one slow server: the scheduler should use the fast one.
        let sc = Scenario::new(
            eva_workload::clip::clip_set(2, 1),
            vec![2e6, 50e6],
            eva_workload::ConfigSpace::default(),
        );
        let d = Fact::default().decide(&sc);
        // At least one stream must land on the fast server (index 1).
        assert!(d.server_of.contains(&1), "{:?}", d.server_of);
    }
}
