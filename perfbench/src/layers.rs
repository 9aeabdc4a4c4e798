//! The per-layer table of a traced run. Every workload reports every
//! metric; a layer the workload does not reach reads 0.
//!
//! "Per op" divides by the workload's timed ops: an epoch decide, a
//! session step, or a pass over the three uplink paths.

use eva_obs::ObsSnapshot;

use crate::harness::Run;
use crate::trace::{count, self_time_s, total_s, Span};

/// Name, unit and better direction of every per-layer metric, in
/// report order.
pub const PER_LAYER: [(&str, &str, &str); 45] = [
    ("core.decide_self_s", "s", "lower"),
    ("core.objective_evals", "count", "lower"),
    ("core.benefit_above_floor", "U", "higher"),
    ("bo.search_s", "s", "lower"),
    ("bo.search_self_s", "s", "lower"),
    ("bo.observations", "count", "lower"),
    ("gp.outcome_fit_s", "s", "lower"),
    ("gp.fit_s", "s", "lower"),
    ("gp.fits", "count", "lower"),
    ("gp.warm_frac", "ratio", "higher"),
    ("gp.cholesky_dim_p50", "count", "lower"),
    ("prefgp.pref_model_s", "s", "lower"),
    ("prefgp.comparisons", "count", "lower"),
    ("sched.grouping_s", "s", "lower"),
    ("sched.grouping_calls", "count", "lower"),
    ("sched.assignment_s", "s", "lower"),
    ("sched.assignments", "count", "lower"),
    ("sched.infeasible_frac", "ratio", "lower"),
    ("sched.hungarian_solves", "count", "lower"),
    ("sched.auction_solves", "count", "lower"),
    ("serve.admission_s", "s", "lower"),
    ("serve.admission_probes", "count", "lower"),
    ("serve.replan_s", "s", "lower"),
    ("serve.incremental_frac", "ratio", "higher"),
    ("serve.replan_failure_frac", "ratio", "lower"),
    ("serve.accept_frac", "ratio", "higher"),
    ("serve.react_s_p50", "s", "lower"),
    ("serve.react_s_p90", "s", "lower"),
    ("serve.react_s_p99", "s", "lower"),
    ("serve.react_n", "count", "higher"),
    ("serve.decide_s_p50", "s", "lower"),
    ("serve.benefit_per_server", "cam/server", "higher"),
    ("sim.des_markov_s", "s", "lower"),
    ("sim.des_bonded_s", "s", "lower"),
    ("sim.des_faulted_s", "s", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.frames", "count", "higher"),
    ("sim.retries", "count", "lower"),
    ("sim.dropped", "count", "lower"),
    ("sim.frames_per_s", "1/s", "higher"),
    ("bond.stripe_s", "s", "lower"),
    ("bond.packets", "count", "lower"),
    ("bond.hol_wait_s", "s", "lower"),
    ("net.trace_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer values of a traced run, in [`PER_LAYER`] order.
/// `overhead` is the traced pass's op time over the untraced pass's on
/// the same inputs, less one.
pub fn per_layer(
    run: &Run,
    spans: &[Span],
    snap: &ObsSnapshot,
    overhead: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let n = run.ops.len().max(1) as f64;
    let counter = |name: &str| snap.metrics.counter(name) as f64;
    let hist_sum = |name: &str| snap.metrics.histogram(name).map_or(0.0, |h| h.sum());
    let per_op = |total: f64| total / n;
    let value = |name: &str| -> f64 {
        match name {
            "core.decide_self_s" => per_op(self_time_s(
                spans,
                "decide",
                &["outcome_fit", "pref_model", "bo_search"],
            )),
            "core.objective_evals" => per_op(counter("core.objective_evals")),
            "bo.search_s" => per_op(total_s(spans, "bo_search")),
            "bo.search_self_s" => {
                per_op(self_time_s(spans, "bo_search", &["grouping", "assignment"]))
            }
            "bo.observations" => per_op(hist_sum("core.bo_observations")),
            "gp.outcome_fit_s" => per_op(total_s(spans, "outcome_fit")),
            "gp.fit_s" => ratio(total_s(spans, "gp_fit"), count(spans, "gp_fit") as f64),
            "gp.fits" => per_op(counter("gp.fits")),
            "gp.warm_frac" => ratio(counter("gp.fit.warm_starts"), counter("gp.fits")),
            "gp.cholesky_dim_p50" => snap
                .metrics
                .histogram("gp.cholesky.dim")
                .and_then(|h| h.quantile(0.5))
                .unwrap_or(0.0),
            "prefgp.pref_model_s" => per_op(total_s(spans, "pref_model")),
            "prefgp.comparisons" => per_op(hist_sum("core.comparisons_used")),
            "sched.grouping_s" => per_op(total_s(spans, "grouping")),
            "sched.grouping_calls" => per_op(count(spans, "grouping") as f64),
            "sched.assignment_s" => per_op(total_s(spans, "assignment")),
            "sched.assignments" => per_op(counter("sched.assignments")),
            "sched.infeasible_frac" => ratio(
                counter("sched.infeasible"),
                counter("sched.assignments") + counter("sched.infeasible"),
            ),
            "sched.hungarian_solves" => per_op(counter("sched.hungarian_solves")),
            "sched.auction_solves" => per_op(counter("sched.auction_solves")),
            "serve.admission_s" => per_op(total_s(spans, "admission")),
            "serve.admission_probes" => per_op(counter("serve.admission_probes")),
            "serve.replan_s" => per_op(total_s(spans, "replan")),
            "sim.events_per_s" => ratio(counter("des.events"), total_s(spans, "des")),
            "sim.frames" => per_op(counter("des.frames")),
            "sim.retries" => per_op(counter("des.retries")),
            "sim.dropped" => per_op(counter("des.dropped")),
            "bond.stripe_s" => per_op(total_s(spans, "bond_stripe")),
            "bond.packets" => per_op(counter("bond.packets")),
            "bond.hol_wait_s" => per_op(hist_sum("bond.hol_wait_s")),
            "trace.overhead_frac" => overhead,
            // Figures the workload measured itself (0 where it has none).
            other => run.figure(other),
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, value(name), unit))
        .collect()
}
