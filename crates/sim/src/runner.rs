//! Glue: simulate a full workload scenario under a scheduling decision.

use eva_net::LinkTrace;
use eva_obs::{emit_warn, ObsEvent, Recorder};
use eva_sched::theory::zero_jitter_offsets;
use eva_sched::{Assignment, StreamTiming, Ticks, TICKS_PER_SEC};
use eva_workload::{Cameras, Scenario, VideoConfig};

use crate::des::{simulate, SimConfig, SimReport, SimStream, StreamBundle, StreamLink, Uplinks};
use crate::fault::SimFaults;

/// How stream arrival phases are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhasePolicy {
    /// Theorem-1 static offsets per server (`o(τ_k) = Σ_{i<k} p_i`):
    /// guaranteed zero jitter when the assignment satisfies `Const2`.
    ZeroJitter,
    /// Every stream starts at phase 0 — the naive policy that produces
    /// the delay jitter of the paper's Fig. 4.
    AllZero,
}

/// Simulation results tied back to the scenario's analytic model.
#[derive(Debug, Clone)]
pub struct ScenarioSimReport {
    /// Raw DES measurements.
    pub report: SimReport,
    /// Mean e2e latency measured by the DES (seconds).
    pub measured_mean_latency_s: f64,
    /// Mean e2e latency predicted by Eq. 5 (uncontended analytic model).
    pub analytic_mean_latency_s: f64,
}

/// Simulate `scenario` under the given configs and Algorithm-1
/// `assignment` for `horizon_secs` of simulated time, with a per-frame
/// end-to-end deadline (`deadline_secs = 0` disables miss counting).
///
/// When the scenario carries per-camera link models
/// (`Scenario::with_link_models`), each stream's frames are transmitted
/// over its camera's materialized `B(t)` trace; with bonded uplinks
/// (`Scenario::with_link_bundles`) they are striped over the camera's
/// bundle; otherwise transmission is the fixed Eq. 5 `bits / B` delay.
/// Telemetry goes to `rec` (see [`crate::des::simulate`]); a
/// [`NoopRecorder`](eva_obs::NoopRecorder) run is bit-identical to a
/// recorded one.
///
/// # Panics
///
/// If `configs` does not hold one config per camera, if
/// `horizon_secs` is not positive, or if the DES rejects the derived
/// streams (for example an `assignment` server outside the scenario's
/// servers); the last panics with the [`crate::des::SimError`]
/// message.
pub fn simulate_scenario_with_deadline_recorded(
    scenario: &Scenario,
    configs: &[VideoConfig],
    assignment: &Assignment,
    policy: PhasePolicy,
    horizon_secs: f64,
    deadline_secs: f64,
    rec: &dyn Recorder,
) -> ScenarioSimReport {
    simulate_scenario_inner(
        scenario,
        configs,
        assignment,
        policy,
        horizon_secs,
        deadline_secs,
        false,
        rec,
    )
}

/// [`simulate_scenario_with_deadline_recorded`] with the scenario's
/// attached [`eva_workload::Scenario::fault_plan`] injected: camera
/// dropout and per-frame loss (with bounded retry) shape arrivals,
/// server crashes pause processing, stragglers dilate it. Without a
/// plan — or with a zero plan — this is bit-identical to the
/// fault-oblivious path.
///
/// # Panics
///
/// As [`simulate_scenario_with_deadline_recorded`]; also when the
/// scenario combines a fault plan with bonded uplinks, or when its
/// fault plan covers fewer servers or cameras than the placement uses.
pub fn simulate_scenario_faulted_recorded(
    scenario: &Scenario,
    configs: &[VideoConfig],
    assignment: &Assignment,
    policy: PhasePolicy,
    horizon_secs: f64,
    deadline_secs: f64,
    rec: &dyn Recorder,
) -> ScenarioSimReport {
    simulate_scenario_inner(
        scenario,
        configs,
        assignment,
        policy,
        horizon_secs,
        deadline_secs,
        true,
        rec,
    )
}

#[allow(clippy::too_many_arguments)]
fn simulate_scenario_inner(
    scenario: &Scenario,
    configs: &[VideoConfig],
    assignment: &Assignment,
    policy: PhasePolicy,
    horizon_secs: f64,
    deadline_secs: f64,
    with_faults: bool,
    rec: &dyn Recorder,
) -> ScenarioSimReport {
    assert_eq!(
        configs.len(),
        scenario.n_videos(),
        "simulate_scenario: one config per camera"
    );
    assert!(horizon_secs > 0.0, "simulate_scenario: empty horizon");

    // Per-server Theorem-1 offsets.
    let n_servers = scenario.n_servers();
    let mut phase_of = vec![0 as Ticks; assignment.streams.len()];
    if policy == PhasePolicy::ZeroJitter {
        for server in 0..n_servers {
            let members = assignment.streams_on(server);
            let timings: Vec<StreamTiming> =
                members.iter().map(|&i| assignment.streams[i]).collect();
            // Algorithm 1 must not produce Const2-violating placements;
            // if a caller hands us one anyway, degrade to all-zero
            // phases on that server (measured jitter will expose it)
            // instead of tearing the simulation down.
            let Some(offsets) = zero_jitter_offsets(&timings) else {
                emit_warn(
                    rec,
                    ObsEvent::warn(
                        "const2_fallback",
                        format!(
                            "simulate_scenario: server {server} violates Const2 — \
                             falling back to zero phases"
                        ),
                    )
                    .with("server", server),
                );
                continue;
            };
            for (&idx, &off) in members.iter().zip(&offsets) {
                phase_of[idx] = off;
            }
        }
    }

    let sim_streams: Vec<SimStream> = assignment
        .streams
        .iter()
        .enumerate()
        .map(|(idx, st)| {
            let src = st.id.source;
            let server = assignment.server_of[idx];
            let bits = scenario
                .surfaces(src)
                .bits_per_frame(configs[src].resolution);
            let trans_secs = bits / scenario.uplinks()[server];
            SimStream {
                id: st.id,
                period: st.period,
                proc: st.proc,
                trans: (trans_secs * TICKS_PER_SEC as f64).round() as Ticks,
                server,
                phase: phase_of[idx],
            }
        })
        .collect();

    let cfg = SimConfig {
        horizon: (horizon_secs * TICKS_PER_SEC as f64) as Ticks,
        warmup: TICKS_PER_SEC,
        deadline: (deadline_secs * TICKS_PER_SEC as f64).round().max(0.0) as Ticks,
    };

    // One materialized trace per camera (split parts of one camera
    // share its radio and therefore its trace).
    let links: Option<Vec<StreamLink>> = scenario.link_models().map(|models| {
        let traces: Vec<LinkTrace> = models.iter().map(|m| m.trace(cfg.horizon)).collect();
        assignment
            .streams
            .iter()
            .map(|st| {
                let src = st.id.source;
                StreamLink {
                    bits_per_frame: scenario
                        .surfaces(src)
                        .bits_per_frame(configs[src].resolution),
                    trace: traces[src].clone(),
                }
            })
            .collect()
    });
    // One bundle simulator per camera (split parts of one camera share
    // its radios), materialized once and cloned per part so every part
    // sees the same underlying link traces.
    let mut bundles: Option<Vec<StreamBundle>> = scenario.link_bundles().map(|bs| {
        let sims: Vec<_> = bs
            .iter()
            .map(|b| b.simulator(cfg.horizon, scenario.bond_policy()))
            .collect();
        assignment
            .streams
            .iter()
            .map(|st| {
                let src = st.id.source;
                StreamBundle {
                    bits_per_frame: scenario
                        .surfaces(src)
                        .bits_per_frame(configs[src].resolution),
                    sim: sims[src].clone(),
                }
            })
            .collect()
    });
    let faults = if with_faults {
        scenario
            .fault_plan()
            .map(|plan| SimFaults::materialize(plan, cfg.horizon + 1))
    } else {
        None
    };
    assert!(
        !(faults.is_some() && bundles.is_some()),
        "simulate_scenario: faults and bonded uplinks cannot be combined — \
         degrade a bundle member via LinkBundle::scaled_link instead"
    );
    let uplinks = match (&faults, links.as_deref(), bundles.as_deref_mut()) {
        (Some(faults), links, _) => Uplinks::Faulted { links, faults },
        (None, _, Some(bundles)) => Uplinks::Bundles(bundles),
        (None, Some(links), None) => Uplinks::Links(links),
        (None, None, None) => Uplinks::Fixed,
    };
    let report = match simulate(&sim_streams, uplinks, n_servers, &cfg, rec) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    };

    // Eq. 5 analytic prediction over the same (post-split) stream set.
    let analytic = scenario.outcome_over(configs, assignment.placement(), Cameras::All);
    let analytic = analytic.unwrap_or_else(|e| panic!("{e}")).latency_s;

    // Stream-weighted mean (Eq. 5 averages over streams, not frames —
    // the DES's `mean_latency_s` would overweight high-fps streams).
    let measured = report
        .streams
        .iter()
        .filter(|s| s.frames > 0)
        .map(|s| s.latency.mean())
        .sum::<f64>()
        / report
            .streams
            .iter()
            .filter(|s| s.frames > 0)
            .count()
            .max(1) as f64;

    ScenarioSimReport {
        measured_mean_latency_s: measured,
        analytic_mean_latency_s: analytic,
        report,
    }
}

#[cfg(test)]
mod tests {
    use eva_obs::NoopRecorder;

    use super::*;

    fn run_scenario(
        scenario: &Scenario,
        configs: &[VideoConfig],
        assignment: &Assignment,
        policy: PhasePolicy,
        horizon_secs: f64,
    ) -> ScenarioSimReport {
        simulate_scenario_with_deadline_recorded(
            scenario,
            configs,
            assignment,
            policy,
            horizon_secs,
            0.0,
            &NoopRecorder,
        )
    }

    fn scenario_and_configs() -> (Scenario, Vec<VideoConfig>) {
        let sc = Scenario::uniform(4, 3, 20e6, 7);
        let cfgs = vec![
            VideoConfig::new(480.0, 10.0),
            VideoConfig::new(720.0, 5.0),
            VideoConfig::new(600.0, 10.0),
            VideoConfig::new(480.0, 5.0),
        ];
        (sc, cfgs)
    }

    #[test]
    fn zero_jitter_policy_measures_zero_jitter() {
        let (sc, cfgs) = scenario_and_configs();
        let assignment = sc
            .schedule(&cfgs)
            .expect("test scenario admits a zero-jitter placement");
        let r = run_scenario(&sc, &cfgs, &assignment, PhasePolicy::ZeroJitter, 20.0);
        assert_eq!(
            r.report.max_jitter_s, 0.0,
            "Theorem 1 violated in simulation: {:?}",
            r.report.streams
        );
    }

    #[test]
    fn measured_latency_matches_analytic_under_zero_jitter() {
        let (sc, cfgs) = scenario_and_configs();
        let assignment = sc
            .schedule(&cfgs)
            .expect("test scenario admits a zero-jitter placement");
        let r = run_scenario(&sc, &cfgs, &assignment, PhasePolicy::ZeroJitter, 20.0);
        // Tick rounding gives ~µs-scale discrepancies.
        let rel = (r.measured_mean_latency_s - r.analytic_mean_latency_s).abs()
            / r.analytic_mean_latency_s;
        assert!(
            rel < 0.01,
            "measured {} vs analytic {}",
            r.measured_mean_latency_s,
            r.analytic_mean_latency_s
        );
    }

    #[test]
    fn naive_phasing_is_never_better() {
        let (sc, cfgs) = scenario_and_configs();
        let assignment = sc
            .schedule(&cfgs)
            .expect("test scenario admits a zero-jitter placement");
        let zj = run_scenario(&sc, &cfgs, &assignment, PhasePolicy::ZeroJitter, 20.0);
        let naive = run_scenario(&sc, &cfgs, &assignment, PhasePolicy::AllZero, 20.0);
        assert!(naive.measured_mean_latency_s >= zj.measured_mean_latency_s - 1e-9);
        assert!(naive.report.max_jitter_s >= zj.report.max_jitter_s);
    }

    #[test]
    fn all_streams_produce_frames() {
        let (sc, cfgs) = scenario_and_configs();
        let assignment = sc
            .schedule(&cfgs)
            .expect("test scenario admits a zero-jitter placement");
        let r = run_scenario(&sc, &cfgs, &assignment, PhasePolicy::ZeroJitter, 20.0);
        for s in &r.report.streams {
            assert!(
                s.frames > 10,
                "stream {} starved: {} frames",
                s.id,
                s.frames
            );
        }
    }
}
