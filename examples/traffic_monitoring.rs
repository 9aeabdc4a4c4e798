//! Road-condition monitoring for map navigation (the paper's first
//! motivating application): latency-critical analytics on heterogeneous
//! uplinks, comparing PaMO against JCAB and FACT.
//!
//! ```text
//! cargo run --release --example traffic_monitoring
//! ```

use pamo::baselines::measure_decision;
use pamo::core::PreferenceSource;
use pamo::prelude::*;
use pamo::stats::rng::seeded;
use pamo::workload::ClipProfile;

fn main() {
    // Six intersections with distinct scene content: downtown junctions
    // are dense and high-motion, arterials calmer. Uplinks differ by
    // site (cellular vs fixed wireless).
    let clips = vec![
        ClipProfile::new("downtown-5th&main", 0.90, 1.15, 1.20, 1.5),
        ClipProfile::new("downtown-station", 0.92, 1.10, 1.15, 1.4),
        ClipProfile::new("arterial-north", 1.00, 0.95, 0.95, 1.0),
        ClipProfile::new("arterial-south", 1.00, 0.95, 0.95, 1.0),
        ClipProfile::new("suburb-east", 1.05, 0.90, 0.85, 0.7),
        ClipProfile::new("highway-cam", 0.95, 1.00, 1.05, 1.6),
    ];
    let uplinks = vec![10e6, 10e6, 20e6, 20e6, 30e6]; // 5 edge servers
    let scenario = Scenario::new(clips, uplinks, ConfigSpace::default());

    // Navigation pricing: stale road conditions are worthless and the
    // cellular bill is metered — latency and network dominate.
    let pref = TruePreference::new(&scenario, [3.0, 1.0, 2.0, 0.5, 0.5]);

    // Baselines with their best-faith weight settings.
    let jcab = Jcab::new(JcabConfig {
        w_acc: 1.0,
        w_eng: 0.5,
        ..Default::default()
    });
    let fact = Fact::new(FactConfig {
        w_lct: 3.0,
        w_acc: 1.0,
        ..Default::default()
    });
    let u_jcab =
        pref.benefit(&measure_decision(&scenario, &jcab.decide(&scenario)).expect("valid"));
    let u_fact =
        pref.benefit(&measure_decision(&scenario, &fact.decide(&scenario)).expect("valid"));

    // PaMO learns the pricing preference from 15 comparisons.
    let mut cfg = PamoConfig::default();
    cfg.bo.max_iters = 6;
    cfg.n_comparisons = 15;
    cfg.preference = PreferenceSource::Learned;
    let decision = Pamo::new(cfg)
        .decide(&scenario, &pref, &mut seeded(11))
        .expect("schedulable");

    println!("Traffic monitoring — true benefit U (higher is better, 0 = utopia):");
    println!("  JCAB  {u_jcab:.4}");
    println!("  FACT  {u_fact:.4}");
    println!("  PaMO  {:.4}", decision.true_benefit);
    println!();
    println!("PaMO per-intersection configurations:");
    for (i, c) in decision.configs.iter().enumerate() {
        println!(
            "  {:<20} {:>5}p @ {:>2} fps",
            scenario.clip(i).name,
            c.resolution,
            c.fps
        );
    }
    println!();
    println!(
        "PaMO outcome: {:.0} ms mean latency, {:.2} mAP, {:.1} Mbps uplink, {:.1} W",
        decision.outcome.latency_s * 1000.0,
        decision.outcome.accuracy,
        decision.outcome.network_bps / 1e6,
        decision.outcome.power_w
    );
    assert!(
        decision.true_benefit >= u_jcab.min(u_fact),
        "PaMO should not lose to both baselines"
    );
}
