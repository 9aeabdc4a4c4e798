//! End-to-end integration: PaMO against the baselines on small
//! scenarios — the Fig. 6/7 comparison in miniature.

use pamo::baselines::{measure_decision, FixedWeight, FixedWeightScheme};
use pamo::bo::{AcqKind, BoConfig};
use pamo::core::{CoreError, PamoConfig, PreferenceSource};
use pamo::prelude::*;
use pamo::stats::rng::seeded;
use rand::Rng;

fn tiny_pamo(preference: PreferenceSource) -> Pamo {
    Pamo::new(PamoConfig {
        bo: BoConfig {
            n_init: 5,
            batch: 2,
            mc_samples: 16,
            max_iters: 5,
            delta: 0.01,
            kind: AcqKind::QNei,
        },
        pool_size: 30,
        profiling_per_camera: 25,
        profile_noise: 0.02,
        n_comparisons: 10,
        elicit_candidates: 20,
        preference,
    })
}

#[test]
fn pamo_plus_beats_or_matches_baselines() {
    let mut wins = 0;
    let trials = 3;
    for seed in 0..trials {
        let scenario = Scenario::uniform(5, 3, 20e6, 100 + seed);
        let pref = TruePreference::uniform(&scenario);

        let u_jcab = pref.benefit(&measure_decision(
            &scenario,
            &Jcab::default().decide(&scenario),
        ));
        let u_fact = pref.benefit(&measure_decision(
            &scenario,
            &Fact::default().decide(&scenario),
        ));
        let plus = tiny_pamo(PreferenceSource::Oracle)
            .decide(&scenario, &pref, &mut seeded(seed))
            .unwrap();

        if plus.true_benefit >= u_jcab && plus.true_benefit >= u_fact {
            wins += 1;
        }
    }
    // With tiny budgets allow one unlucky trial, but not a majority.
    assert!(wins >= trials - 1, "PaMO+ won only {wins}/{trials} trials");
}

#[test]
fn learned_preference_tracks_oracle() {
    let scenario = Scenario::uniform(4, 3, 20e6, 55);
    // A sharply skewed preference: latency is everything.
    let pref = TruePreference::new(&scenario, [3.2, 1.0, 1.0, 1.0, 1.0]);
    let plus = tiny_pamo(PreferenceSource::Oracle)
        .decide(&scenario, &pref, &mut seeded(1))
        .unwrap();
    let learned = tiny_pamo(PreferenceSource::Learned)
        .decide(&scenario, &pref, &mut seeded(1))
        .unwrap();
    // Gap bounded by a fraction of the benefit scale Σw = 7.2.
    let gap = plus.true_benefit - learned.true_benefit;
    assert!(
        gap < 0.25 * 7.2,
        "learned preference too far from oracle: gap {gap}"
    );
}

#[test]
fn all_methods_produce_valid_decisions() {
    let scenario = Scenario::uniform(5, 4, 20e6, 77);
    let pref = TruePreference::uniform(&scenario);

    let jcab = Jcab::default().decide(&scenario);
    let fact = Fact::default().decide(&scenario);
    for (name, d) in [("jcab", &jcab), ("fact", &fact)] {
        assert_eq!(d.configs.len(), 5, "{name}");
        assert!(d.server_of.iter().all(|&s| s < 4), "{name}");
        let out = measure_decision(&scenario, d);
        assert!(out.accuracy > 0.0 && out.accuracy <= 1.0, "{name}");
        assert!(out.latency_s > 0.0, "{name}");
    }

    let pamo = tiny_pamo(PreferenceSource::Oracle)
        .decide(&scenario, &pref, &mut seeded(5))
        .unwrap();
    assert!(scenario.schedule(&pamo.configs).is_ok());
    assert!(pamo.bo.best_trace.len() >= 2);
    // The trace never decreases (best-so-far).
    assert!(pamo.bo.best_trace.windows(2).all(|w| w[1] >= w[0] - 1e-12));
}

/// Per acquisition, in the order qNEI, qEI, qUCB(β = 2), qSR: the
/// decide's `true_benefit` bits and an FNV-1a hash of its per-camera
/// configs and of the BO observations in evaluation order. Each kind's
/// scoring picks the BO batches, so drift in any of the four scorers
/// moves its hash even where the decided configs agree. On this scenario qNEI and qEI observe the same points, and so do
/// qUCB and qSR.
const PINNED_ACQ_DECISIONS: [(u64, u64); 4] = [
    (13828204423815964161, 17175338265585768023),
    (13828204423815964161, 17175338265585768023),
    (13828204423815964161, 17292553341563069888),
    (13828204423815964161, 17292553341563069888),
];

fn decision_hash(d: &PamoDecision) -> u64 {
    let fnv = |h: u64, v: f64| (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
    let h = d.configs.iter().fold(0xcbf2_9ce4_8422_2325, |h, c| {
        fnv(fnv(h, c.resolution), c.fps)
    });
    d.bo.observations
        .iter()
        .fold(h, |h, (x, y)| x.iter().fold(fnv(h, *y), |h, &v| fnv(h, v)))
}

#[test]
fn acquisition_variants_all_work_end_to_end() {
    let scenario = Scenario::uniform(4, 3, 20e6, 88);
    let pref = TruePreference::uniform(&scenario);
    let floor = pref.benefit(
        &scenario
            .evaluate(&[VideoConfig::new(360.0, 1.0); 4])
            .unwrap()
            .outcome,
    );
    let mut decisions = Vec::new();
    for kind in [
        AcqKind::QNei,
        AcqKind::QEi,
        AcqKind::QUcb { beta: 2.0 },
        AcqKind::QSr,
    ] {
        let mut cfg = PamoConfig {
            preference: PreferenceSource::Oracle,
            ..PamoConfig::default()
        };
        cfg.bo = BoConfig {
            n_init: 4,
            batch: 2,
            mc_samples: 16,
            max_iters: 3,
            delta: 0.01,
            kind,
        };
        cfg.pool_size = 20;
        cfg.profiling_per_camera = 20;
        let d = Pamo::new(cfg)
            .decide(&scenario, &pref, &mut seeded(3))
            .unwrap();
        assert!(
            d.true_benefit >= floor - 1e-9,
            "{kind:?} under floor: {} vs {floor}",
            d.true_benefit
        );
        decisions.push((d.true_benefit.to_bits(), decision_hash(&d)));
    }
    println!("acquisition decisions {decisions:?}");
    assert_eq!(
        decisions, PINNED_ACQ_DECISIONS,
        "an acquisition's decide drifted"
    );
}

#[test]
fn impossible_decides_are_errors_not_panics() {
    // 200 cameras on one 5 Mb/s server: no joint configuration, not even
    // every camera at the cheapest knobs, has a zero-jitter placement.
    let packed = Scenario::uniform(200, 1, 5e6, 5);
    let pref = TruePreference::uniform(&packed);
    let mut cfg = PamoConfig {
        profiling_per_camera: 8,
        pool_size: 2,
        preference: PreferenceSource::Oracle,
        ..PamoConfig::default()
    };
    let err = Pamo::new(cfg.clone())
        .decide(&packed, &pref, &mut seeded(1))
        .unwrap_err();
    assert!(matches!(err, CoreError::NoFeasibleConfig { .. }), "{err}");

    // An empty candidate pool is a caller error.
    let sc = Scenario::uniform(3, 2, 20e6, 47);
    cfg.pool_size = 0;
    let err = Pamo::new(cfg)
        .decide(&sc, &TruePreference::uniform(&sc), &mut seeded(2))
        .unwrap_err();
    assert!(matches!(err, CoreError::InvalidInput { .. }), "{err}");
}

#[test]
fn zero_bo_counts_are_errors_not_panics() {
    // The BO driver asserts positive counts; the decide refuses a config
    // without them up front, before drawing from the caller's RNG.
    let sc = Scenario::uniform(3, 2, 20e6, 47);
    let pref = TruePreference::uniform(&sc);
    for field in ["n_init", "batch", "mc_samples"] {
        let mut cfg = PamoConfig {
            profiling_per_camera: 8,
            pool_size: 4,
            preference: PreferenceSource::Oracle,
            ..PamoConfig::default()
        };
        match field {
            "n_init" => cfg.bo.n_init = 0,
            "batch" => cfg.bo.batch = 0,
            _ => cfg.bo.mc_samples = 0,
        }
        let mut rng = seeded(3);
        let err = Pamo::new(cfg).decide(&sc, &pref, &mut rng).unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidInput { .. }),
            "{field}: {err}"
        );
        assert_eq!(
            rng.gen::<u64>(),
            seeded(3).gen::<u64>(),
            "{field}: the refused decide drew from the RNG"
        );
    }
}

/// FNV-1a hash, per fixed-weight scheme (Equal, ROC, Rank-Sum), of the
/// decided per-camera configs and servers and of the decision's true
/// benefit bits under each of `ext_fixed_weights`' four hidden
/// preferences, on that binary's `--quick` scenario.
const PINNED_FIXED_WEIGHT_DECISIONS: [u64; 3] =
    [81870833706943485, 17287651789884440037, 5256912619782042059];

#[test]
fn fixed_weight_decisions_are_bit_pinned() {
    let fnv = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    let scenario = Scenario::uniform(5, 4, 20e6, 4711);
    let prefs = [
        [1.0; 5],
        [3.2, 1.0, 1.0, 1.0, 1.0],
        [1.0, 3.2, 1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0, 1.0, 3.2],
    ]
    .map(|w| TruePreference::new(&scenario, w));
    let hashes = [
        FixedWeightScheme::Equal,
        FixedWeightScheme::RankOrderCentroid,
        FixedWeightScheme::RankSum,
    ]
    .map(|scheme| {
        let d = FixedWeight::new(scheme).decide(&scenario);
        let h = d.configs.iter().fold(0xcbf2_9ce4_8422_2325, |h, c| {
            fnv(fnv(h, c.resolution.to_bits()), c.fps.to_bits())
        });
        let h = d.server_of.iter().fold(h, |h, &s| fnv(h, s as u64));
        let outcome = measure_decision(&scenario, &d);
        prefs
            .iter()
            .fold(h, |h, p| fnv(h, p.benefit(&outcome).to_bits()))
    });
    println!("fixed-weight decisions {hashes:?}");
    assert_eq!(
        hashes, PINNED_FIXED_WEIGHT_DECISIONS,
        "a fixed-weight decision drifted"
    );
}
