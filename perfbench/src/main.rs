//! perfbench: the repository's benchmark. One seeded workload per run,
//! a closed loop of calls into the scheduler's public entry points, with
//! every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced pass.
//! `--trace 1` runs the same inputs untraced and then traced, asserts
//! both produce the same output digest, prints the per-layer metrics of
//! the traced pass and writes its spans to `perfbench/out/`. The last
//! line of standard output is the result object; the line before it
//! records seed, sizes, op and sample counts. See `perfbench/README.md`.

mod check;
mod decide;
mod des;
mod harness;
mod host;
mod layers;
mod procfs;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use harness::{Plan, Run};
use trace::Tracer;

/// The workloads, with the fixed op count each one times (the serving
/// session times every step to the end of its horizon).
const WORKLOADS: [(&str, usize); 4] = [
    ("decide_2000x200", 6),
    ("decide_8x5_learned", 100),
    ("serve_100x10", 0),
    ("des_uplinks_200x50", 10),
];

/// Name and unit of every end-to-end metric, in report order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
];

/// Set-ups per untraced run; `setup_s` is their median. A traced run
/// reports no set-up time and sets each of its two passes up once.
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Run one pass of the workload `name`.
fn run_workload(name: &str, plan: &Plan) -> Run {
    match name {
        "decide_2000x200" => decide::fleet(plan),
        "decide_8x5_learned" => decide::paper_learned(plan),
        "serve_100x10" => serve::run(plan),
        "des_uplinks_200x50" => des::run(plan),
        other => unreachable!("workload {other} was validated"),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(workload, ops)) = WORKLOADS.iter().find(|(w, _)| *w == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };

    // Before the sampler pins the process to one CPU.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sampler = host::Sampler::start();
    let plan = |tracer| Plan {
        seed: args.seed,
        ops,
        setup_reps: if args.trace { 1 } else { SETUP_REPS },
        tracer,
    };
    let untraced = run_workload(workload, &plan(None));
    let tracer = args.trace.then(Tracer::new);
    let traced = tracer
        .as_ref()
        .map(|t| run_workload(workload, &plan(Some(t))));
    let passes = [Some(&untraced), traced.as_ref()];
    let passes = passes.iter().flatten();
    let mut failures: Vec<String> = passes.clone().flat_map(|r| r.failures.clone()).collect();
    let mut failed: u64 = passes.clone().map(|r| r.failed_ops).sum();
    let attempted: u64 = passes.map(|r| (r.ops.len() + r.setups.len()) as u64).sum();
    // Read while the sampler still runs: the workload's threads plus it.
    let threads = procfs::threads();
    let speed = sampler.finish();
    let ref_s = |r: &Run| -> Vec<f64> {
        r.ops
            .iter()
            .map(|o| speed.reference_s(o.start, o.secs))
            .collect()
    };

    let report = traced.as_ref().unwrap_or(&untraced);
    let n_ops = report.ops.len();
    let op_s = report.op_secs();
    let op_ref_s = ref_s(report);
    let primary: Vec<f64> = report
        .ops
        .iter()
        .zip(&op_ref_s)
        .filter(|(o, _)| o.kind == report.primary)
        .map(|(_, &r)| r)
        .collect();
    let setup_s: Vec<f64> = report.setups.iter().map(|s| s.1).collect();
    let setup_ref_s: Vec<f64> = report
        .setups
        .iter()
        .map(|&(start, secs)| speed.reference_s(start, secs))
        .collect();
    // The loop's host-speed correction, applied to its CPU time after
    // removing the sampler's own probes.
    let net_wall: f64 = report
        .ops
        .iter()
        .map(|o| o.secs - speed.stolen_s(o.start, o.secs))
        .sum();
    let host_factor = op_ref_s.iter().sum::<f64>() / net_wall.max(1e-12);
    let sampler_cpu_s = report.window.map_or(0.0, |(start, end)| {
        speed.stolen_s(start, end.duration_since(start).as_secs_f64())
    });
    let cpu_s = report.cpu_s.map(|c| c - sampler_cpu_s);

    let mut auto_side = String::from("see the traced run");
    let metrics: Vec<(&str, f64, &str)> = match (&tracer, &traced) {
        (Some(tracer), Some(traced)) => {
            if traced.digest != untraced.digest {
                failures.push(format!(
                    "traced digest {:016x} != untraced {:016x}: telemetry changed the outputs",
                    traced.digest.0, untraced.digest.0
                ));
                failed += 1;
            }
            let spans = tracer.spans();
            let snap = tracer.snapshot();
            let hungarian = snap.metrics.counter("sched.hungarian_solves");
            let auction = snap.metrics.counter("sched.auction_solves");
            auto_side = format!("{hungarian} hungarian / {auction} auction solves");
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{workload}-seed{}.jsonl", args.seed));
            match tracer.write(&path) {
                Ok(()) => eprintln!(
                    "perfbench: wrote {} spans to {}",
                    spans.len(),
                    path.display()
                ),
                Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
            }
            eprintln!("perfbench: traced phases (count, total s):");
            for (name, (n, secs)) in trace::totals_by_name(&spans) {
                eprintln!("  {name:<14} {n:>9} {secs:>12.6}");
            }
            // Both passes in reference seconds, so host drift between
            // them does not read as tracing cost.
            let overhead = op_ref_s.iter().sum::<f64>()
                / ref_s(&untraced).iter().sum::<f64>().max(1e-12)
                - 1.0;
            layers::per_layer(traced, &spans, &snap, overhead)
        }
        _ => {
            let (Some(cpu_s), Some(rss_mb)) = (cpu_s, procfs::peak_rss_mb()) else {
                eprintln!("perfbench: process CPU time or VmHWM unavailable in /proc");
                return ExitCode::from(1);
            };
            let values = [
                stats::median(&setup_ref_s).unwrap_or(0.0),
                stats::median(&primary).unwrap_or(0.0),
                cpu_s * host_factor / n_ops.max(1) as f64,
                rss_mb,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, v, unit))
                .collect()
        }
    };
    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        failures.push(format!("metric {name} is {v}"));
        failed += 1;
    }
    let correct = failed == 0 && failures.is_empty() && n_ops > 0;

    // The record line: what was measured, on what, from how many samples.
    let mut kinds: Vec<(&str, Vec<f64>)> = Vec::new();
    for (o, &r) in report.ops.iter().zip(&op_ref_s) {
        match kinds.iter_mut().find(|(k, _)| *k == o.kind) {
            Some((_, v)) => v.push(r),
            None => kinds.push((o.kind, vec![r])),
        }
    }
    let kinds_json: Vec<String> = kinds
        .iter()
        .map(|(k, v)| {
            format!(
                "{}:{{\"n\":{},\"p50\":{},\"mean\":{}}}",
                json_str(k),
                v.len(),
                stats::median(v).unwrap_or(0.0),
                stats::mean(v)
            )
        })
        .collect();
    let tail = stats::tail_percentile(primary.len())
        .and_then(|p| stats::percentile(&primary, p).map(|v| (p, v)))
        .map_or("null".to_string(), |(p, v)| {
            format!(
                "{{\"percentile\":{p},\"value\":{v},\"n\":{}}}",
                primary.len()
            )
        });
    let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| x.to_string());
    let failures_json: Vec<String> = failures.iter().map(|f| json_str(f)).collect();
    println!(
        "{{\"info\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"sizes\":{},\"nproc\":{nproc},\"threads\":{},\"ops\":{n_ops},\
         \"op_kinds\":{{{}}},\"samples\":{{\"setup_s\":{},\"op_s_p50\":{},\
         \"cpu_s_per_op\":{n_ops}}},\"op_s_tail\":{tail},\
         \"wall\":{{\"op_s_p50\":{},\"setup_s_p50\":{},\"process_cpu_s\":{},\
         \"thread_cpu_s\":{}}},\"host\":{{\"probe_ref_s\":{},\"probe_s_p50\":{},\
         \"probes\":{},\"factor\":{host_factor}}},\"auto_side\":{},\
         \"digest\":\"{:016x}\",\"attempted\":{attempted},\"failed\":{failed},\
         \"failed_frac\":{},\"failures\":[{}]}}}}",
        json_str(workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&report.sizes),
        opt(threads.map(|t| t as f64)),
        kinds_json.join(","),
        setup_s.len(),
        primary.len(),
        stats::median(&op_s).unwrap_or(0.0),
        stats::median(&setup_s).unwrap_or(0.0),
        opt(cpu_s),
        opt(report.thread_cpu_s),
        host::PROBE_REF_S,
        speed.median_s(),
        speed.count(),
        json_str(&auto_side),
        report.digest.0,
        failed as f64 / attempted.max(1) as f64,
        failures_json.join(",")
    );
    for f in &failures {
        eprintln!("perfbench: FAILED {f}");
    }
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<26} {value:>16.9} {unit}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| {
                    fields
                        .iter()
                        .map(|f| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string())
                        .collect()
                })
                .collect()
        };
        let owned = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let workloads: Vec<Vec<String>> = WORKLOADS.iter().map(|(w, _)| owned(&[w])).collect();
        assert_eq!(list("workloads", &["name"]), workloads);
        let e2e: Vec<Vec<String>> = END_TO_END.iter().map(|(n, u)| owned(&[n, u])).collect();
        assert_eq!(list("end_to_end", &["name", "unit"]), e2e);
        let layers: Vec<Vec<String>> = layers::PER_LAYER
            .iter()
            .map(|(n, u, b)| owned(&[n, u, b]))
            .collect();
        assert_eq!(list("per_layer", &["name", "unit", "better"]), layers);
    }
}
