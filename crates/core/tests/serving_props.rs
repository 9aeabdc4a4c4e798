//! Differential test of the two reaction disciplines: with a silent
//! arrival process and no fault plan, the event-driven `ServingSession`
//! behind `run_serving` and the epoch-synchronous one `run_online`
//! steps must decide bit-identical epochs, epoch for epoch — the
//! serving machinery changes nothing when nothing churns.

use eva_bo::{AcqKind, BoConfig};
use eva_obs::NoopRecorder;
use eva_serve::ArrivalModel;
use eva_workload::Scenario;
use pamo_core::{run_online, run_serving, PamoConfig, PreferenceSource, ServingConfig};
use proptest::prelude::*;

fn tiny_config() -> PamoConfig {
    PamoConfig {
        bo: BoConfig {
            n_init: 4,
            batch: 2,
            mc_samples: 16,
            max_iters: 2,
            delta: 0.02,
            kind: AcqKind::QNei,
        },
        pool_size: 15,
        profiling_per_camera: 15,
        profile_noise: 0.02,
        n_comparisons: 6,
        elicit_candidates: 15,
        preference: PreferenceSource::Oracle,
    }
}

proptest! {
    // Each case runs the full BO pipeline twice: 64 cases take about
    // 8 s in a debug build on a 2-core host.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn zero_rate_session_is_bit_identical_to_the_epoch_loop(
        scenario_seed in 0u64..100,
        rng_seed in 0u64..100,
        drift in 0.0f64..0.15,
        n_epochs in 2usize..=3,
    ) {
        let base = Scenario::uniform(3, 2, 20e6, scenario_seed);
        let plain = {
            run_online(&base, drift, &tiny_config(),
                [1.0; 5],
                n_epochs,
                None, rng_seed,
                &NoopRecorder,
            )
            .expect("valid inputs")
        };
        let serving = ServingConfig {
            n_epochs,
            arrivals: ArrivalModel::Poisson { rate_hz: 0.0 },
            ..ServingConfig::default()
        };
        let served = run_serving(
            &base,
            drift,
            &tiny_config(),
            [1.0; 5],
            None,
            &serving,
            rng_seed,
            &NoopRecorder,
        )
        .expect("valid inputs");
        prop_assert!(served.events.is_empty());
        prop_assert_eq!(served.epochs.len(), plain.epochs.len());
        prop_assert_eq!(served.degraded, plain.degraded);
        for (s, p) in served.epochs.iter().zip(&plain.epochs) {
            prop_assert_eq!(s.epoch, p.epoch);
            prop_assert_eq!(
                s.online_benefit.to_bits(),
                p.online_benefit.to_bits(),
                "epoch {} online benefit diverged",
                s.epoch
            );
            prop_assert_eq!(&s.configs, &p.configs, "epoch {} configs diverged", s.epoch);
            prop_assert_eq!(
                s.divergence.to_bits(),
                p.divergence.to_bits(),
                "epoch {} divergence diverged",
                s.epoch
            );
            prop_assert_eq!(&s.alive, &p.alive);
        }
    }
}
