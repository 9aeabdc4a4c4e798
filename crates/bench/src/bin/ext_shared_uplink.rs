//! Extension experiment: shared-uplink sensitivity of the zero-jitter
//! guarantee.
//!
//! The paper (and Eq. 5) assumes a dedicated per-camera pipe: frames
//! never serialize on the radio. When several cameras share one uplink
//! per server, transmission queueing appears *before* the compute
//! queue, and Theorem 1's offsets no longer guarantee zero jitter. This
//! binary quantifies the degradation for a PaMO decision as a function
//! of how heavily the uplink is shared.
//!
//! ```text
//! cargo run --release -p eva-bench --bin ext_shared_uplink
//! ```

use eva_bench::Table;
use eva_obs::NoopRecorder;
use eva_sched::{Ticks, TICKS_PER_SEC};
use eva_sim::des::{simulate, SimConfig, SimStream, Uplinks};
use eva_stats::rng::seeded;
use eva_workload::Scenario;
use pamo_core::{Pamo, PamoConfig, TruePreference};

fn main() {
    let scenario = Scenario::uniform(8, 4, 20e6, 515);
    let pref = TruePreference::uniform(&scenario);
    let mut cfg = PamoConfig::default().plus();
    cfg.bo.max_iters = 5;
    cfg.pool_size = 40;
    let decision = Pamo::new(cfg)
        .decide(&scenario, &pref, &mut seeded(3))
        .expect("feasible");
    let assignment = scenario.schedule(&decision.configs).unwrap();

    // Build the simulator streams once; sweep a transmission-inflation
    // factor emulating progressively slower shared radios.
    let base_streams: Vec<SimStream> = assignment
        .streams
        .iter()
        .enumerate()
        .map(|(idx, st)| {
            let src = st.id.source;
            let server = assignment.server_of[idx];
            let bits = scenario
                .surfaces(src)
                .bits_per_frame(decision.configs[src].resolution);
            let trans_secs = bits / scenario.uplinks()[server];
            SimStream {
                id: st.id,
                period: st.period,
                proc: st.proc,
                trans: ((trans_secs * TICKS_PER_SEC as f64).round() as Ticks).max(1),
                server,
                phase: 0,
            }
        })
        .collect();
    let sim_cfg = SimConfig {
        horizon: 20 * TICKS_PER_SEC,
        warmup: TICKS_PER_SEC,
        deadline: 0,
    };
    let n_servers = scenario.n_servers();

    let mut table = Table::new(vec![
        "link_slowdown",
        "dedicated_mean_lat_s",
        "shared_mean_lat_s",
        "shared_max_jitter_s",
    ]);
    let mut results = Vec::new();
    for slowdown in [1u64, 2, 4, 8, 16, 32, 64] {
        let streams: Vec<SimStream> = base_streams
            .iter()
            .map(|s| SimStream {
                trans: s.trans * slowdown,
                ..*s
            })
            .collect();
        // Both runs capture frame `k` at `k·T − trans`.
        let run = |uplinks| {
            simulate(&streams, uplinks, n_servers, &sim_cfg, &NoopRecorder)
                .expect("valid DES input")
        };
        let dedicated = run(Uplinks::Fixed);
        let shared = run(Uplinks::Shared(None));
        table.row(vec![
            format!("{slowdown}x"),
            format!("{:.4}", dedicated.mean_latency_s),
            format!("{:.4}", shared.mean_latency_s),
            format!("{:.4}", shared.max_jitter_s),
        ]);
        results.push(serde_json::json!({
            "slowdown": slowdown,
            "dedicated_mean_latency_s": dedicated.mean_latency_s,
            "shared_mean_latency_s": shared.mean_latency_s,
            "shared_max_jitter_s": shared.max_jitter_s,
        }));
    }

    println!("== Extension: shared-uplink sensitivity of a PaMO schedule ==");
    println!("{table}");
    println!(
        "Reading: while the link is fast, the harmonic grouping of Algorithm 1\n\
         protects even a *shared* uplink — serialization adds a constant delay\n\
         but the periodic pattern repeats exactly, so jitter stays zero. Once\n\
         the per-window transmission load outgrows the gcd window, queueing\n\
         becomes state-dependent and jitter reappears — a concrete boundary of\n\
         Eq. 5's dedicated-pipe assumption and a natural future-work hook."
    );

    std::fs::create_dir_all("results").ok();
    std::fs::write(
        "results/ext_shared_uplink.json",
        serde_json::to_string_pretty(&results).unwrap(),
    )
    .expect("write results/ext_shared_uplink.json");
    println!("(wrote results/ext_shared_uplink.json)");
}
