//! Continuous serving: cameras arrive and depart mid-run, a server
//! crashes and rejoins, and the scheduler reacts at event time.
//!
//! Prints every admission decision (accept / queue / reject, with the
//! feasibility probe's incumbent-impact evidence) and every replan
//! (incremental row repair vs full Algorithm-1 re-solve) as the run
//! unfolds, then the run-level serving metrics.
//!
//! ```text
//! cargo run --release --example serving_demo
//! ```

use pamo::core::{run_serving, PamoConfig, PreferenceSource, ServingConfig};
use pamo::fault::FaultPlan;
use pamo::obs::NoopRecorder;
use pamo::prelude::*;
use pamo::serve::ArrivalModel;

fn main() {
    // Four resident cameras on three servers; tenants arrive as a
    // Poisson storm (one every ~4 s against 20 s epochs) and hold the
    // system for ~30 s; one server crashes and recovers mid-run.
    let base = Scenario::uniform(4, 3, 20e6, 99);
    let plan = FaultPlan::none(3, 4).with_server_crashes(90.0, 25.0, 42);
    let mut cfg = PamoConfig {
        preference: PreferenceSource::Oracle,
        ..Default::default()
    };
    cfg.bo.max_iters = 3;
    cfg.pool_size = 20;
    cfg.profiling_per_camera = 20;
    let serving = ServingConfig {
        epoch_s: 20.0,
        n_epochs: 4,
        event_driven: true,
        arrivals: ArrivalModel::Poisson { rate_hz: 0.25 },
        mean_hold_s: 30.0,
        churn_seed: 7,
        ..ServingConfig::default()
    };

    println!("Continuous serving: 4 resident cameras / 3 servers, Poisson arrivals");
    println!(
        "epoch {:.0} s, admission floor {:.2} benefit units, queue capacity {}\n",
        serving.epoch_s, serving.admission.max_benefit_drop, serving.admission.queue_capacity
    );

    let run = run_serving(
        &base,
        0.05,
        &cfg,
        [1.0, 3.0, 1.0, 1.0, 1.0],
        Some(&plan),
        &serving,
        17,
        &NoopRecorder,
    )
    .expect("valid inputs");

    for e in &run.events {
        let who = match e.tenant {
            Some(t) => format!("tenant {t}"),
            None => "server".to_string(),
        };
        let scope = match e.scope {
            Some(s) => format!(", {s} replan"),
            None => String::new(),
        };
        println!(
            "[{:7.2}s] {:<9} {:<9} -> {}{} (reaction {:.2} ms, {} live tenants)",
            e.time_s,
            e.kind,
            who,
            e.outcome,
            scope,
            e.reaction_s * 1e3,
            e.live_tenants
        );
    }

    println!("\n-- run summary --");
    println!(
        "accepted {} / rejected {} (rejection rate {:.0}%), peak queue {}",
        run.accepted,
        run.rejected,
        run.rejection_rate() * 100.0,
        run.queued_peak
    );
    println!(
        "replans: {} incremental, {} full re-solves",
        run.replan_incremental, run.replan_full
    );
    println!(
        "benefit per server: {:.3} (quality-weighted camera-seconds / server-second)",
        run.benefit_per_server()
    );
    println!(
        "p99 reaction: {:.2} ms overall (arrival {:.2} ms, failure {:.2} ms)",
        run.reaction_p99_s() * 1e3,
        run.reaction_p99_for("arrival") * 1e3,
        run.reaction_p99_for("failure") * 1e3
    );
    if run.min_floor_margin.is_finite() {
        println!(
            "incumbent floor margin (min over accepts): {:+.4} — {}",
            run.min_floor_margin,
            if run.min_floor_margin >= 0.0 {
                "floor held for every admission"
            } else {
                "floor violated!"
            }
        );
    }
}
