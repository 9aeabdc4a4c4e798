//! Quickstart: schedule a small camera fleet with PaMO.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pamo::obs::NoopRecorder;
use pamo::prelude::*;
use pamo::stats::rng::seeded;

fn main() {
    // A deployment: 4 cameras streaming to 3 edge servers on a shared
    // 20 Mbps uplink each.
    let scenario = Scenario::uniform(4, 3, 20e6, 2024);

    // The operator's (hidden) pricing preference over
    // [latency, accuracy, network, computation, energy]:
    // accuracy is worth twice the rest.
    let pref = TruePreference::new(&scenario, [1.0, 2.0, 1.0, 1.0, 1.0]);

    // PaMO with a modest budget. `.plus()` would use the preference
    // directly; the default learns it from pairwise comparisons.
    let mut cfg = PamoConfig::default();
    cfg.bo.max_iters = 5;
    cfg.n_comparisons = 12;
    let mut pamo = Pamo::new(cfg);

    let mut rng = seeded(7);
    let decision = pamo
        .decide(&scenario, &pref, &mut rng)
        .expect("scenario is schedulable");

    println!(
        "PaMO decision ({} comparisons asked):",
        decision.comparisons_used
    );
    for (i, c) in decision.configs.iter().enumerate() {
        println!(
            "  camera {i} ({}): {}p @ {} fps",
            scenario.clip(i).name,
            c.resolution,
            c.fps
        );
    }
    let o = &decision.outcome;
    println!("aggregate outcome:");
    println!("  mean latency   {:.3} s", o.latency_s);
    println!("  mean accuracy  {:.3} mAP", o.accuracy);
    println!("  bandwidth      {:.2} Mbps", o.network_bps / 1e6);
    println!("  computation    {:.2} TFLOP/s", o.compute_tflops);
    println!("  power          {:.1} W", o.power_w);
    println!("true benefit U = {:.4} (0 = utopia)", decision.true_benefit);

    // The placement is zero-jitter by construction — verify in the DES.
    let assignment = scenario.schedule(&decision.configs).unwrap();
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
        "simulated 20 s: measured jitter = {:.6} s (Theorem 1 says 0), \
         measured mean latency = {:.4} s vs analytic {:.4} s",
        sim.report.max_jitter_s, sim.measured_mean_latency_s, sim.analytic_mean_latency_s
    );
}
