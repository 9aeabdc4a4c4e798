//! Extension experiment: what does the scheduler's *belief* about
//! bandwidth cost when the link actually varies?
//!
//! Eq. 5 prices transmission as `θ_bit(r) / B` with a fixed provisioned
//! `B`. Real uplinks fade: here every camera rides a Gilbert-Elliott
//! Markov link toggling between a good and a degraded state. We compare
//! three planning beliefs feeding the same scheduler (JCAB's
//! drift-plus-penalty + first-fit, whose latency-deadline admissibility
//! consumes `Scenario::planning_uplinks`):
//!
//! * **oracle-B** — plans on the true long-run mean rate of the link
//!   process (the best any stationary estimate can do),
//! * **estimated-B** — plans on a per-server online estimate (EWMA over
//!   per-frame delivery samples from a measurement window) divided by a
//!   safety headroom,
//! * **stale-B** — plans on the good-state rate, i.e. a measurement
//!   taken during a good period and never refreshed.
//!
//! Realized quality is then measured against the *true* dynamics: the
//! analytic benefit charges the true mean uplink, and the DES transmits
//! every frame over the materialized `B(t)` trace with an end-to-end
//! deadline equal to the deadline JCAB believes it is meeting.
//!
//! ```text
//! cargo run --release -p eva-bench --bin ext_link_dynamics
//! ```

use eva_baselines::jcab::Jcab;
use eva_bench::Table;
use eva_net::{EwmaEstimator, LinkEstimator, LinkModel};
use eva_obs::NoopRecorder;
use eva_sched::{Ticks, TICKS_PER_SEC};
use eva_sim::{simulate, SimConfig, SimStream, StreamLink, Uplinks};
use eva_workload::{Outcome, Scenario};
use pamo_core::TruePreference;

const N_CAMS: usize = 6;
const N_SERVERS: usize = 3;
/// Good-state rate (also the provisioned/stale belief). Low enough that
/// transmission is a first-order term in Eq. 5 — the regime where the
/// bandwidth belief actually steers the decision.
const GOOD_BPS: f64 = 8e6;
/// Degraded-state rate.
const BAD_BPS: f64 = 2e6;
const GOOD_DWELL_S: f64 = 3.0;
const BAD_DWELL_S: f64 = 2.0;
/// Safety margin applied under the online estimate.
const HEADROOM: f64 = 1.2;
/// Per-frame e2e deadline (s): JCAB's admissibility deadline, and the
/// DES miss counter's target.
const DEADLINE_S: f64 = 0.17;
const HORIZON_S: u64 = 30;
/// Measurement window feeding the estimators (seconds, 10 fps probes).
const WARMUP_S: usize = 10;
/// Probe frame size (bits) — ~a 720p frame.
const PROBE_BITS: f64 = 5e5;

fn main() {
    let models: Vec<LinkModel> = (0..N_CAMS)
        .map(|i| {
            LinkModel::gilbert_elliott(
                GOOD_BPS,
                BAD_BPS,
                GOOD_DWELL_S,
                BAD_DWELL_S,
                1000 + i as u64,
            )
        })
        .collect();
    let nominal = models[0].nominal_bps();

    // Ground truth: servers deliver the link's long-run mean on average.
    let truth = Scenario::uniform(N_CAMS, N_SERVERS, nominal, 99);
    let pref = TruePreference::uniform(&truth);

    // Warm one estimator per server on per-frame delivery samples from
    // a measurement window (cameras round-robined onto servers).
    let mut estimators: Vec<EwmaEstimator> =
        (0..N_SERVERS).map(|_| EwmaEstimator::default()).collect();
    for (cam, model) in models.iter().enumerate() {
        let trace = model.trace((WARMUP_S as u64) * TICKS_PER_SEC);
        for k in 0..(WARMUP_S * 10) {
            let t = (k as u64) * TICKS_PER_SEC / 10;
            let duration_s = PROBE_BITS / trace.rate_at(t);
            estimators[cam % N_SERVERS].observe(PROBE_BITS / 8.0, duration_s);
        }
    }
    let estimates: Vec<f64> = estimators
        .iter()
        .map(|e| e.estimate_bps().expect("warmed"))
        .collect();

    let modes: Vec<(&str, Scenario)> = vec![
        ("oracle-B", truth.clone()),
        (
            "estimated-B",
            truth
                .clone()
                .with_planning_uplinks(estimates.clone(), HEADROOM)
                .expect("warmed estimates are positive rates"),
        ),
        (
            "stale-B",
            truth
                .clone()
                .with_planning_uplinks(vec![GOOD_BPS; N_SERVERS], 1.0)
                .expect("one positive rate per server"),
        ),
    ];

    let mut table = Table::new(vec![
        "belief",
        "planning_mbps",
        "benefit",
        "miss_rate",
        "max_jitter_s",
        "mean_lat_s",
    ]);
    let mut results = Vec::new();
    let jcab = Jcab::new(eva_baselines::jcab::JcabConfig {
        latency_deadline_s: DEADLINE_S,
        ..Default::default()
    });
    for (name, sc) in &modes {
        let d = jcab.decide(sc);

        // Realized analytic outcome: JCAB's placement, charged at the
        // TRUE mean uplinks (same formula as Scenario::evaluate, minus
        // the Algorithm-1 placement JCAB does not use).
        let mut acc = 0.0;
        let mut net = 0.0;
        let mut com = 0.0;
        let mut eng = 0.0;
        let mut lat = 0.0;
        for i in 0..N_CAMS {
            let s = sc.surfaces(i);
            let c = &d.configs[i];
            acc += s.accuracy(c);
            net += s.bandwidth_bps(c);
            com += s.compute_tflops(c);
            eng += s.power_w(c);
            lat += s.e2e_latency_secs(c, truth.uplinks()[d.server_of[i]]);
        }
        let outcome = Outcome {
            latency_s: lat / N_CAMS as f64,
            accuracy: acc / N_CAMS as f64,
            network_bps: net,
            compute_tflops: com,
            power_w: eng,
        };
        let benefit = pref.benefit(&outcome);

        // DES under the true link dynamics with JCAB's own placement
        // (phase 0 — JCAB predates zero-jitter phasing).
        let timings = sc.stream_timings(&d.configs);
        let streams: Vec<SimStream> = timings
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let bits = sc.surfaces(i).bits_per_frame(d.configs[i].resolution);
                SimStream {
                    id: t.id,
                    period: t.period,
                    proc: t.proc,
                    trans: ((bits / nominal * TICKS_PER_SEC as f64).round() as Ticks).max(1),
                    server: d.server_of[i],
                    phase: 0,
                }
            })
            .collect();
        let cfg = SimConfig {
            horizon: HORIZON_S * TICKS_PER_SEC,
            warmup: TICKS_PER_SEC,
            deadline: (DEADLINE_S * TICKS_PER_SEC as f64).round() as Ticks,
        };
        let links: Vec<StreamLink> = (0..N_CAMS)
            .map(|i| StreamLink {
                bits_per_frame: sc.surfaces(i).bits_per_frame(d.configs[i].resolution),
                trace: models[i].trace(cfg.horizon),
            })
            .collect();
        let r = simulate(
            &streams,
            Uplinks::Links(&links),
            N_SERVERS,
            &cfg,
            &NoopRecorder,
        )
        .expect("valid DES input");
        let (misses, frames) = r.streams.iter().fold((0u64, 0u64), |(m, f), s| {
            (m + s.deadline_misses, f + s.frames)
        });
        let miss_rate = misses as f64 / frames.max(1) as f64;
        let planning_mean =
            sc.planning_uplinks().iter().sum::<f64>() / sc.planning_uplinks().len() as f64;
        table.row(vec![
            name.to_string(),
            format!("{:.2}", planning_mean / 1e6),
            format!("{benefit:.4}"),
            format!("{miss_rate:.4}"),
            format!("{:.4}", r.max_jitter_s),
            format!("{:.4}", r.mean_latency_s),
        ]);
        results.push(serde_json::json!({
            "belief": name,
            "planning_mean_bps": planning_mean,
            "benefit": benefit,
            "deadline_miss_rate": miss_rate,
            "max_jitter_s": r.max_jitter_s,
            "mean_latency_s": r.mean_latency_s,
        }));
    }

    println!("== Extension: link dynamics & the price of a bandwidth belief ==");
    println!(
        "link: Gilbert-Elliott {:.0}/{:.0} Mb/s, dwell {GOOD_DWELL_S}/{BAD_DWELL_S} s, \
         long-run mean {:.2} Mb/s; deadline {DEADLINE_S} s",
        GOOD_BPS / 1e6,
        BAD_BPS / 1e6,
        nominal / 1e6
    );
    println!("{table}");
    println!(
        "Reading: the stale good-state belief overcommits — it admits\n\
         configurations whose transmission time balloons whenever the link\n\
         fades, so deadline misses and latency spike. The online estimate\n\
         lands near the oracle's long-run mean (EWMA over delivery samples),\n\
         and the headroom trades a little benefit for fewer misses. This is\n\
         the oracle-B → estimated-B story: the schedulers need only *a* B,\n\
         and a measured B̂/headroom is a drop-in, deployable substitute."
    );

    std::fs::create_dir_all("results").ok();
    std::fs::write(
        "results/ext_link_dynamics.json",
        serde_json::to_string_pretty(&results).unwrap(),
    )
    .expect("write results/ext_link_dynamics.json");
    println!("(wrote results/ext_link_dynamics.json)");
}
