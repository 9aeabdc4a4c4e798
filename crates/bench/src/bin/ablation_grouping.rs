//! Grouping-heuristic ablation (the design choices behind Algorithm 1):
//!
//! 1. how close Algorithm 1's group count gets to the exact minimum
//!    (exhaustive oracle, small instances),
//! 2. what the sort + priority ordering buys over unordered first-fit
//!    under the same Theorem-3 admission rule,
//! 3. what Theorem 3's harmonic admission costs versus admitting by the
//!    raw `Const2` gcd test.
//!
//! ```text
//! cargo run --release -p eva-bench --bin ablation_grouping
//! ```

use eva_bench::Table;
use eva_sched::reference::{
    const2_first_fit_groups, heuristic_groups, min_groups_const2, unordered_first_fit_groups,
};
use eva_sched::{StreamId, StreamTiming};
use eva_stats::rng::seeded;
use rand::Rng;

fn random_streams(rng: &mut impl Rng, n: usize) -> Vec<StreamTiming> {
    (0..n)
        .map(|i| {
            let period = 50_000 * rng.gen_range(1u64..=10);
            let proc = rng.gen_range(5_000..=45_000).min(period);
            StreamTiming::new(StreamId::source(i), period, proc)
        })
        .collect()
}

fn main() {
    let trials = 300;
    let mut rng = seeded(4096);

    let mut oracle_total = 0usize;
    let mut alg1_total = 0usize;
    let mut unordered_total = 0usize;
    let mut const2_total = 0usize;
    let mut alg1_optimal = 0usize;

    for _ in 0..trials {
        let n = rng.gen_range(3..=9);
        let streams = random_streams(&mut rng, n);
        let oracle = min_groups_const2(&streams).expect("feasible by construction");
        let alg1 = heuristic_groups(&streams, n).expect("cap = n");
        let unordered = unordered_first_fit_groups(&streams, n).expect("cap = n");
        let const2 = const2_first_fit_groups(&streams, n).expect("cap = n");
        oracle_total += oracle;
        alg1_total += alg1;
        unordered_total += unordered;
        const2_total += const2;
        if alg1 == oracle {
            alg1_optimal += 1;
        }
    }

    let mut table = Table::new(vec!["variant", "total_groups", "vs_oracle"]);
    let vs = |total: usize| {
        format!(
            "{:+.1}%",
            100.0 * (total as f64 / oracle_total as f64 - 1.0)
        )
    };
    table.row(vec![
        "exact oracle (min Const2 groups)".to_string(),
        oracle_total.to_string(),
        "+0.0%".to_string(),
    ]);
    table.row(vec![
        "Algorithm 1 (sort + priority, Theorem-3)".to_string(),
        alg1_total.to_string(),
        vs(alg1_total),
    ]);
    table.row(vec![
        "unordered first-fit, Theorem-3".to_string(),
        unordered_total.to_string(),
        vs(unordered_total),
    ]);
    table.row(vec![
        "unordered first-fit, raw Const2 admission".to_string(),
        const2_total.to_string(),
        vs(const2_total),
    ]);

    println!("== Grouping ablation ({trials} random instances, 3-9 streams) ==");
    println!("{table}");
    println!(
        "Algorithm 1 hits the exact minimum on {alg1_optimal}/{trials} instances \
         ({:.1}%).",
        100.0 * alg1_optimal as f64 / trials as f64
    );
    println!(
        "Reading: the ordering heuristics recover most of first-fit's loss; the\n\
         remaining gap to the oracle is the price of Theorem 3's harmonic\n\
         admission rule, which the raw-Const2 variant closes at the cost of a\n\
         more brittle schedule structure."
    );

    std::fs::create_dir_all("results").ok();
    std::fs::write(
        "results/ablation_grouping.json",
        serde_json::to_string_pretty(&serde_json::json!({
            "trials": trials,
            "oracle_total": oracle_total,
            "algorithm1_total": alg1_total,
            "unordered_theorem3_total": unordered_total,
            "unordered_const2_total": const2_total,
            "algorithm1_optimal_count": alg1_optimal,
        }))
        .unwrap(),
    )
    .expect("write results/ablation_grouping.json");
    println!("(wrote results/ablation_grouping.json)");
}
