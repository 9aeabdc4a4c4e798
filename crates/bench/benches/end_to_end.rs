//! End-to-end pieces of one PaMO iteration: scheduling a joint config,
//! composite-surrogate sampling, and a full (tiny) Algorithm-2 run.

use criterion::{criterion_group, criterion_main, Criterion};
use eva_bo::{AcqKind, BoConfig, SurrogateSampler};
use eva_stats::rng::seeded;
use eva_workload::{Scenario, VideoConfig};
use pamo_core::{
    build_pool, CompositeSampler, OutcomeModelBank, OutcomeNormalizer, Pamo, PamoConfig,
    PreferenceEval, TruePreference,
};

fn bench_schedule(c: &mut Criterion) {
    let scenario = Scenario::uniform(8, 5, 20e6, 81);
    let configs = vec![VideoConfig::new(600.0, 10.0); 8];
    c.bench_function("scenario_schedule_8x5", |bench| {
        bench.iter(|| scenario.schedule(std::hint::black_box(&configs)).unwrap())
    });
    c.bench_function("scenario_evaluate_8x5", |bench| {
        bench.iter(|| scenario.evaluate(std::hint::black_box(&configs)).unwrap())
    });
}

fn bench_composite_sampler(c: &mut Criterion) {
    let scenario = Scenario::uniform(5, 4, 20e6, 82);
    let mut rng = seeded(1);
    let bank = OutcomeModelBank::fit_initial(&scenario, 30, 0.02, &mut rng).unwrap();
    let pref = TruePreference::uniform(&scenario);
    let normalizer = OutcomeNormalizer::for_scenario(&scenario);
    let pool = build_pool(&scenario, 20, &mut rng, &Default::default()).unwrap();
    c.bench_function("composite_joint_samples_20pts", |bench| {
        let mut seed = 0u64;
        bench.iter(|| {
            // Fresh sampler per iteration so the memo cache doesn't turn
            // the benchmark into a hash lookup.
            let sampler = CompositeSampler::new(
                &scenario,
                bank.clone(),
                PreferenceEval::Oracle(pref.clone()),
                normalizer.clone(),
            );
            seed += 1;
            sampler.joint_samples(&pool, 32, seed)
        })
    });
}

fn bench_tiny_pamo(c: &mut Criterion) {
    let mut group = c.benchmark_group("pamo_end_to_end");
    group.sample_size(10);
    let scenario = Scenario::uniform(4, 3, 20e6, 83);
    let pref = TruePreference::uniform(&scenario);
    let cfg = PamoConfig {
        bo: BoConfig {
            n_init: 4,
            batch: 2,
            mc_samples: 16,
            max_iters: 2,
            delta: 0.05,
            kind: AcqKind::QNei,
        },
        pool_size: 15,
        profiling_per_camera: 20,
        profile_noise: 0.02,
        n_comparisons: 6,
        elicit_candidates: 12,
        preference: pamo_core::PreferenceSource::Oracle,
    };
    group.bench_function("tiny_pamo_plus_4x3", |bench| {
        bench.iter(|| {
            Pamo::new(cfg.clone())
                .decide(&scenario, &pref, &mut seeded(3))
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_schedule,
    bench_composite_sampler,
    bench_tiny_pamo
);
criterion_main!(benches);
