//! Tier-1 guards for the outcome-model bank, pinned bit for bit.
//!
//! Every camera's GPs start from the same profiling design, and the BO
//! loop conditions them on one measurement per camera per objective
//! evaluation and queries them for every candidate. Any numeric drift in
//! that bank (conditioning, batched posteriors, the design-row solves
//! shared across cameras, the factors shared by cameras with one
//! observation history) moves the pinned posteriors, the BO loop's
//! choices, or the decided configurations. The same seeded decides must
//! also come out bit-identical with a flight recorder attached
//! (telemetry is observationally free), and that recorder pins the
//! exact work they did: objective evaluations, GP conditionings and
//! posterior queries, sample draws, placements and span counts.

use pamo::core::{OutcomeModelBank, PamoConfig, PreferenceSource, ProfilingDesign};
use pamo::obs::{FlightRecorder, NoopRecorder, Recorder};
use pamo::prelude::*;
use pamo::stats::rng::seeded;
use pamo::workload::{Profiler, N_OBJECTIVES};

/// `true_benefit` bits of the cold decide and of the warm-started one.
const PINNED_BENEFIT_BITS: [u64; 2] = [13829155640526625027, 13829155640526625027];
/// FNV-1a hash of both decides' BO observations and per-camera configs.
const PINNED_DECIDE_HASH: u64 = 0x3586_f081_2651_d3cc;
/// FNV-1a hash of the conditioned bank's posterior means and variances.
const PINNED_BANK_HASH: u64 = 0x778a_9ba7_cba9_c2c6;
/// FNV-1a hash of a 60-camera bank's posteriors after six rounds in
/// which groups of cameras share observation histories and split.
const PINNED_SHARED_HISTORY_HASH: u64 = 0xbf2e_994c_e4bc_4abe;
/// Exact work of `decide_bits`' two decides under a flight recorder:
/// counter values, then span counts per phase. Any change means the
/// algorithm did more or less work, even if every decided bit held.
const PINNED_WORK: [(&str, u64); 16] = [
    ("core.objective_evals", 8),
    ("gp.fits", 10),
    ("gp.conditionings", 1600),
    ("gp.factor_extensions", 190),
    ("gp.posterior_queries", 4800),
    ("gp.tail_solves", 685),
    ("gp.prefix_solves", 350),
    ("bo.mc_draws", 1152),
    ("bo.clip_moments", 3061),
    ("sched.assignments", 10),
    // Span counts.
    ("decide", 2),
    ("bo_prepare", 4),
    ("bank_update", 8),
    ("gp_fit", 10),
    ("grouping", 10),
    ("assignment", 10),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, v: f64) -> u64 {
    (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
}

fn scenario() -> Scenario {
    Scenario::standard(40, 6, &mut seeded(17))
}

fn cfg() -> PamoConfig {
    let mut cfg = PamoConfig::default();
    cfg.bo.n_init = 2;
    cfg.bo.batch = 1;
    cfg.bo.max_iters = 2;
    cfg.bo.mc_samples = 8;
    cfg.bo.delta = 0.0;
    cfg.pool_size = 6;
    cfg.profiling_per_camera = 25;
    cfg.preference = PreferenceSource::Oracle;
    cfg
}

#[test]
fn shared_design_decide_is_bit_pinned() {
    let scenario = scenario();
    let pref = TruePreference::uniform(&scenario);
    let pamo = Pamo::new(cfg());
    let mut rng = seeded(23);
    let mut bits = Vec::new();
    let mut hash = FNV_OFFSET;
    for _ in 0..2 {
        let d = pamo.decide(&scenario, &pref, &mut rng).unwrap();
        assert!(scenario.schedule(&d.configs).is_ok());
        bits.push(d.true_benefit.to_bits());
        for (x, y) in &d.bo.observations {
            hash = x.iter().fold(fnv(hash, *y), |h, &v| fnv(h, v));
        }
        for c in &d.configs {
            hash = fnv(fnv(hash, c.resolution), c.fps);
        }
    }
    println!("benefit bits {bits:?}, decide hash {hash:#x}");
    assert_eq!(bits, PINNED_BENEFIT_BITS, "true_benefit drifted");
    assert_eq!(
        hash, PINNED_DECIDE_HASH,
        "BO choices or decided configs drifted"
    );
}

/// Bits of the cold and warm-started decides' `true_benefit`, BO
/// observations and per-camera configs, decided under `rec`.
fn decide_bits(rec: &dyn Recorder) -> Vec<u64> {
    let scenario = scenario();
    let pref = TruePreference::uniform(&scenario);
    let pamo = Pamo::new(cfg());
    let mut rng = seeded(23);
    let mut bits = Vec::new();
    for _ in 0..2 {
        let d = pamo
            .decide_surviving_recorded(&scenario, &pref, None, &mut rng, rec)
            .unwrap();
        bits.push(d.true_benefit.to_bits());
        for (x, y) in &d.bo.observations {
            bits.push(y.to_bits());
            bits.extend(x.iter().map(|v| v.to_bits()));
        }
        for c in &d.configs {
            bits.extend([c.resolution.to_bits(), c.fps.to_bits()]);
        }
    }
    bits
}

#[test]
fn telemetry_is_observationally_free() {
    let flight = FlightRecorder::new();
    assert_eq!(
        decide_bits(&NoopRecorder),
        decide_bits(&flight),
        "a flight recorder changed the decides"
    );
    let snap = flight.snapshot();
    let spans = snap.phase_stats();
    let work: Vec<(&str, u64)> = PINNED_WORK
        .iter()
        .map(|&(name, _)| {
            let count = spans
                .iter()
                .find(|(p, _)| p.as_str() == name)
                .map_or_else(|| snap.metrics.counter(name), |(_, s)| s.count);
            (name, count)
        })
        .collect();
    assert_eq!(work, PINNED_WORK, "the decides' work drifted");
}

#[test]
fn conditioned_bank_posteriors_are_bit_pinned() {
    let scenario = scenario();
    let mut rng = seeded(29);
    let design = ProfilingDesign::draw(&scenario, 25, &mut rng);
    let mut bank =
        OutcomeModelBank::fit_designed(&scenario, &design, 0.02, None, &mut rng, &NoopRecorder)
            .unwrap();
    let space = scenario.config_space();
    let uplinks = scenario.uplinks();
    // Six measured rounds; cameras repeat (config, uplink) pairs so the
    // shared design-row solves are exercised.
    for round in 0..6 {
        let samples: Vec<_> = (0..scenario.n_videos())
            .map(|cam| {
                let config = space.at((cam % 5 + 3 * round) % space.len());
                let uplink = uplinks[(cam + round) % uplinks.len()];
                Profiler::new(scenario.surfaces(cam).clone())
                    .with_noise(0.02, 0.02)
                    .measure(&config, uplink, &mut rng)
            })
            .collect();
        let report = bank.update_all(&samples).unwrap();
        assert_eq!(report.skipped, 0);
    }
    let mut hash = FNV_OFFSET;
    for cam in 0..scenario.n_videos() {
        for obj in 0..N_OBJECTIVES {
            for q in [0, space.len() / 2, space.len() - 1] {
                let (mu, var) =
                    bank.predict_objective(cam, obj, &space.at(q), uplinks[q % uplinks.len()]);
                hash = fnv(fnv(hash, mu), var);
            }
        }
    }
    println!("bank hash {hash:#x}");
    assert_eq!(hash, PINNED_BANK_HASH, "bank posteriors drifted");
}

/// Round `round`'s (config index, uplink index) for camera `cam`: the
/// camera's uplink group is `cam / 20`, and its config class `cam % 2^r`
/// doubles the number of classes each round up to eight, so groups of
/// cameras observe identical histories and split as rounds pass.
fn shared_history_input(cam: usize, round: usize) -> (usize, usize) {
    let classes = 1 << round.min(3);
    ((cam % classes) * 5 + round, (cam / 20 + round) % 3)
}

#[test]
fn shared_history_bank_posteriors_are_bit_pinned() {
    let scenario = Scenario::new(
        pamo::workload::clip::clip_set(60, 41),
        vec![6e6, 12e6, 24e6],
        ConfigSpace::default(),
    );
    let mut rng = seeded(43);
    let design = ProfilingDesign::draw(&scenario, 25, &mut rng);
    let mut bank =
        OutcomeModelBank::fit_designed(&scenario, &design, 0.02, None, &mut rng, &NoopRecorder)
            .unwrap();
    let space = scenario.config_space();
    let uplinks = scenario.uplinks();
    let rounds = 6;
    for round in 0..rounds {
        let samples: Vec<_> = (0..scenario.n_videos())
            .map(|cam| {
                let (config, uplink) = shared_history_input(cam, round);
                Profiler::new(scenario.surfaces(cam).clone())
                    .with_noise(0.02, 0.02)
                    .measure(&space.at(config % space.len()), uplinks[uplink], &mut rng)
            })
            .collect();
        let report = bank.update_all(&samples).unwrap();
        assert_eq!(report.skipped, 0);
        assert!(report.factor_extensions < samples.len() * N_OBJECTIVES);
    }
    let mut hash = FNV_OFFSET;
    for cam in 0..scenario.n_videos() {
        for obj in 0..N_OBJECTIVES {
            for q in [0, space.len() / 3, space.len() - 1] {
                for &uplink in uplinks {
                    let (mu, var) = bank.predict_objective(cam, obj, &space.at(q), uplink);
                    hash = fnv(fnv(hash, mu), var);
                }
            }
        }
    }
    println!("shared-history bank hash {hash:#x}");
    assert_eq!(hash, PINNED_SHARED_HISTORY_HASH, "bank posteriors drifted");

    // Cameras share a GP factor exactly when they observed the same
    // inputs in every round.
    let history = |cam: usize| -> Vec<(usize, usize)> {
        (0..rounds).map(|r| shared_history_input(cam, r)).collect()
    };
    for a in 0..scenario.n_videos() {
        for b in 0..scenario.n_videos() {
            for obj in 0..N_OBJECTIVES {
                assert_eq!(
                    bank.model(a, obj).shares_factor(bank.model(b, obj)),
                    history(a) == history(b),
                    "cameras {a} and {b}, objective {obj}"
                );
            }
        }
    }
}
