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
//! posterior queries, sample draws, placements and span counts. One
//! more pin covers the learned preference: elicitation, the preference
//! GP's fits and its posteriors inside the BO loop.

use pamo::core::{OutcomeModelBank, PamoConfig, PreferenceSource, ProfilingDesign};
use pamo::obs::{FlightRecorder, NoopRecorder, Recorder};
use pamo::prelude::*;
use pamo::stats::rng::seeded;
use pamo::workload::{Profiler, N_OBJECTIVES};

/// `true_benefit` bits of the cold decide and of the warm-started one.
const PINNED_BENEFIT_BITS: [u64; 2] = [13829155640526625027, 13829155640526625027];
/// FNV-1a hash of both decides' BO observations and per-camera configs.
const PINNED_DECIDE_HASH: u64 = 0x3586_f081_2651_d3cc;
/// FNV-1a hash of two learned-preference decides: their `true_benefit`
/// bits, BO observations, per-camera configs and the elicited model's
/// MAP utilities.
const PINNED_LEARNED_DECIDE_HASH: u64 = 0x9d1b_6daa_09e0_1344;
/// FNV-1a hash of the conditioned bank's posterior means and variances.
const PINNED_BANK_HASH: u64 = 0x778a_9ba7_cba9_c2c6;
/// FNV-1a hash of a 60-camera bank's posteriors after six rounds in
/// which groups of cameras share observation histories and split.
const PINNED_SHARED_HISTORY_HASH: u64 = 0xbf2e_994c_e4bc_4abe;
/// Exact work of `decide_bits`' two decides under a flight recorder:
/// counter values, then span counts per phase. Any change means the
/// algorithm did more or less work, even if every decided bit held.
const PINNED_WORK: [(&str, u64); 20] = [
    ("core.objective_evals", 8),
    // The BO driver drops each surrogate's bank clone before the batch
    // is observed, so every row is conditioned in place.
    ("core.bank_rows_copied", 0),
    ("gp.fits", 10),
    ("gp.conditionings", 1600),
    ("gp.factor_extensions", 190),
    ("gp.posterior_queries", 4800),
    ("gp.tail_solves", 685),
    // Tail rows forward-solved for those slots.
    ("gp.tail_rows", 1750),
    // Design-row solves, computed once per decide and read by every
    // scan and bank update after.
    ("gp.prefix_solves", 130),
    // Weights back-substituted on first read: the 200 models each of
    // the four `bo_prepare` passes reads, not one per conditioning.
    ("gp.weight_solves", 800),
    ("bo.mc_draws", 1152),
    ("bo.clip_moments", 3061),
    ("sched.assignments", 10),
    // Span counts.
    ("decide", 2),
    ("bo_prepare", 4),
    ("bo_acquisition", 4),
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
    let mut pamo = Pamo::new(cfg());
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

/// The oracle-preference pins cannot see the preference GP. These two
/// decides elicit it (EUBO pair selection, Laplace fits) and score every
/// BO sample and observation with its posterior, so drift in any of
/// those moves the hash.
#[test]
fn learned_decide_is_bit_pinned() {
    let scenario = scenario();
    let pref = TruePreference::uniform(&scenario);
    let mut cfg = cfg();
    cfg.preference = PreferenceSource::Learned;
    cfg.n_comparisons = 6;
    cfg.elicit_candidates = 15;
    cfg.pool_size = 24;
    let mut pamo = Pamo::new(cfg);
    let mut rng = seeded(31);
    let mut hash = FNV_OFFSET;
    for _ in 0..2 {
        let d = pamo.decide(&scenario, &pref, &mut rng).unwrap();
        hash = fnv(hash, d.true_benefit);
        for (x, y) in &d.bo.observations {
            hash = x.iter().fold(fnv(hash, *y), |h, &v| fnv(h, v));
        }
        for c in &d.configs {
            hash = fnv(fnv(hash, c.resolution), c.fps);
        }
        let model = d
            .preference_model
            .expect("a learned decide elicits a model");
        hash = model.map_utilities().iter().fold(hash, |h, &g| fnv(h, g));
    }
    println!("learned decide hash {hash:#x}");
    assert_eq!(
        hash, PINNED_LEARNED_DECIDE_HASH,
        "elicitation, preference posteriors or learned BO choices drifted"
    );
}

/// Bits of the cold and warm-started decides' `true_benefit`, BO
/// observations and per-camera configs, decided under `rec`.
fn decide_bits(rec: &dyn Recorder) -> Vec<u64> {
    let scenario = scenario();
    let pref = TruePreference::uniform(&scenario);
    let mut pamo = Pamo::new(cfg());
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

/// FNV-1a hash of `bank`'s posterior means and variances at three
/// configurations per camera and objective.
fn bank_hash(bank: &OutcomeModelBank, scenario: &Scenario) -> u64 {
    let space = scenario.config_space();
    let uplinks = scenario.uplinks();
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
    hash
}

/// Six rounds of `update_all` on a seeded 40-camera bank; cameras
/// repeat (config, uplink) pairs so the shared design-row solves are
/// exercised. With `hold_clones`, a clone of the bank is held across
/// each round and must still hash to its pre-update posteriors.
fn conditioned_bank(hold_clones: bool) -> (OutcomeModelBank, Scenario) {
    let scenario = scenario();
    let mut rng = seeded(29);
    let design = ProfilingDesign::draw(&scenario, 25, &mut rng);
    let mut bank =
        OutcomeModelBank::fit_designed(&scenario, &design, 0.02, None, &mut rng, &NoopRecorder)
            .unwrap();
    let space = scenario.config_space();
    let uplinks = scenario.uplinks();
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
        let held = hold_clones.then(|| {
            let clone = bank.clone();
            let before = bank_hash(&clone, &scenario);
            (clone, before)
        });
        let report = bank.update_all(&samples).unwrap();
        assert_eq!(report.skipped, 0);
        match held {
            Some((clone, before)) => {
                assert_eq!(report.copied, scenario.n_videos(), "round {round}");
                assert_eq!(
                    bank_hash(&clone, &scenario),
                    before,
                    "round {round}: the held clone moved"
                );
            }
            None => assert_eq!(report.copied, 0, "round {round}"),
        }
    }
    (bank, scenario)
}

#[test]
fn conditioned_bank_posteriors_are_bit_pinned() {
    let (bank, scenario) = conditioned_bank(false);
    let hash = bank_hash(&bank, &scenario);
    println!("bank hash {hash:#x}");
    assert_eq!(hash, PINNED_BANK_HASH, "bank posteriors drifted");
}

/// A row that a held clone shares is copied before it is conditioned:
/// the copy path gives the in-place path's bits, and the clone keeps
/// its snapshot.
#[test]
fn held_bank_clone_keeps_its_snapshot() {
    let (bank, scenario) = conditioned_bank(true);
    assert_eq!(
        bank_hash(&bank, &scenario),
        PINNED_BANK_HASH,
        "the copy path drifted from the in-place path"
    );
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

/// FNV-1a hash of an overloaded scenario's candidate pool, then of the
/// RNG's next draw after `build_pool` returned.
const PINNED_OVERLOADED_POOL_HASH: u64 = 0xbdd2_78a3_04aa_fcef;

/// The serving regime: 100 cameras on 10 servers with a pool of 20. No
/// Latin-hypercube draw fits the servers' utilisation capacity, so the
/// pool is the schedulable uniform diagonal and all `60 · 20` mixed
/// draws are refused. Refusing them earlier must not move the pool, nor
/// the RNG stream the draws consumed.
#[test]
fn overloaded_pool_is_bit_pinned() {
    use pamo::core::pool::{build_pool, Placements};
    use rand::RngCore;

    let scenario = Scenario::standard(100, 10, &mut seeded(2024));
    let mut rng = seeded(5);
    let pool = build_pool(&scenario, 20, &mut rng, &Placements::default()).unwrap();
    let m = scenario.n_videos();
    for x in &pool {
        assert!(
            x.chunks(2).all(|knobs| knobs == &x[..2]),
            "a mixed configuration was admitted"
        );
    }
    assert!(pool.len() < 20, "the diagonal alone filled the pool");
    let mut hash = FNV_OFFSET;
    for x in &pool {
        assert_eq!(x.len(), 2 * m);
        hash = x.iter().fold(hash, |h, &v| fnv(h, v));
    }
    hash = (hash ^ rng.next_u64()).wrapping_mul(0x0000_0100_0000_01B3);
    println!("overloaded pool: {} entries, hash {hash:#x}", pool.len());
    assert_eq!(
        hash, PINNED_OVERLOADED_POOL_HASH,
        "pool or RNG stream drifted"
    );
}
