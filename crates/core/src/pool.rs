//! The joint-configuration candidate pool.
//!
//! The raw decision space is `(N · C_r · C_f)^M`; Algorithm 1 absorbs
//! the placement dimension and the BO loop then searches joint
//! configurations `(r_i, s_i)_{i=1..M}`. We encode a joint config as a
//! flat `2M` vector of normalized knobs (the GP-friendly encoding) and
//! search over a *feasible* candidate pool: the uniform "diagonal"
//! configs (all cameras share one knob pair) plus Latin-hypercube mixed
//! configs, all pre-filtered by Algorithm-1 schedulability.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use eva_sched::{exceeds_capacity, Assignment};
use eva_workload::{Scenario, VideoConfig};
use rand::Rng;

use crate::error::{require, CoreError};

/// Encode per-camera configs as a flat normalized vector
/// `[r₀/2160, s₀/30, r₁/2160, …]`. A config count other than the
/// scenario's camera count is [`CoreError::InvalidInput`].
pub(crate) fn encode_joint(
    scenario: &Scenario,
    configs: &[VideoConfig],
) -> Result<Vec<f64>, CoreError> {
    require(
        configs.len() == scenario.n_videos(),
        "encode_joint needs one config per camera",
    )?;
    let space = scenario.config_space();
    Ok(configs.iter().flat_map(|c| space.normalize(c)).collect())
}

/// Decode a flat vector back to per-camera configs (snapping to the
/// knob grid, so arbitrary values are legal input). A length other than
/// two entries per camera is [`CoreError::InvalidInput`].
pub fn decode_joint(scenario: &Scenario, x: &[f64]) -> Result<Vec<VideoConfig>, CoreError> {
    let m = scenario.n_videos();
    require(
        x.len() == 2 * m,
        "decode_joint needs two entries per camera",
    )?;
    let space = scenario.config_space();
    Ok((0..m)
        .map(|i| space.denormalize_snap(&x[2 * i..2 * i + 2]))
        .collect())
}

/// Algorithm-1 placements of joint configurations, computed once per
/// distinct configuration and shared for the life of one decide.
///
/// The candidate pool places every entry it admits, and every BO scan
/// scores entries of that same pool, so the surrogates read the pool's
/// placements instead of re-running [`Scenario::schedule`]. Placements
/// are `schedule`'s: on *all* servers of the one scenario the cache is
/// used with.
#[derive(Debug, Default)]
pub struct Placements {
    memo: RefCell<HashMap<Vec<u64>, Option<Rc<Assignment>>>>,
}

impl Placements {
    /// The placement of `configs` (`None` when unschedulable),
    /// scheduled on first sight.
    pub(crate) fn schedule(
        &self,
        scenario: &Scenario,
        configs: &[VideoConfig],
    ) -> Option<Rc<Assignment>> {
        let key = config_key(configs);
        if let Some(hit) = self.memo.borrow().get(&key) {
            return hit.clone();
        }
        let placed = scenario.schedule(configs).ok().map(Rc::new);
        self.memo.borrow_mut().insert(key, placed.clone());
        placed
    }

    fn insert(&self, configs: &[VideoConfig], assignment: Assignment) {
        self.memo
            .borrow_mut()
            .insert(config_key(configs), Some(Rc::new(assignment)));
    }
}

fn config_key(configs: &[VideoConfig]) -> Vec<u64> {
    configs
        .iter()
        .flat_map(|c| [c.resolution.to_bits(), c.fps.to_bits()])
        .collect()
}

/// True when `utilizations`, the cameras' `p/T` in camera order, reach
/// a partial sum that [`exceeds_capacity`] of `n_servers`. Algorithm 1
/// then cannot place the configuration on that many servers, so
/// [`Scenario::schedule`] fails: a partial sum of positive terms is at
/// most the full sum, and a placeable stream set's full sum is at most
/// the server count (DESIGN §12, "Capacity bound").
fn over_capacity(utilizations: impl IntoIterator<Item = f64>, n_servers: usize) -> bool {
    let mut sum = 0.0;
    for u in utilizations {
        sum += u;
        if exceeds_capacity(sum, n_servers) {
            return true;
        }
    }
    false
}

/// Every camera's utilisation at every grid configuration:
/// entry `i · C + k` is camera `i` at [`eva_workload::ConfigSpace::at`]`(k)`,
/// for `C` configurations.
fn utilization_table(scenario: &Scenario) -> Vec<f64> {
    let space = scenario.config_space();
    (0..scenario.n_videos())
        .flat_map(|i| {
            space
                .iter()
                .map(move |c| scenario.stream_timing(i, &c).utilization())
        })
        .collect()
}

/// [`over_capacity`] of a flat joint vector `u` (two knobs per camera,
/// as [`decode_joint`] reads it), each camera's utilisation read from
/// `util` ([`utilization_table`]) at the configuration `u` snaps to.
fn draw_over_capacity(scenario: &Scenario, util: &[f64], u: &[f64], n_servers: usize) -> bool {
    let space = scenario.config_space();
    let utilizations = u
        .chunks_exact(2)
        .enumerate()
        .map(|(i, knobs)| util[i * space.len() + space.snap_index(knobs)]);
    over_capacity(utilizations, n_servers)
}

/// Build a feasible candidate pool of roughly `target_size` joint
/// configurations, recording each admitted entry's placement in
/// `placements`.
///
/// Composition:
/// 1. every *uniform* config (all cameras at the same knob pair) that is
///    zero-jitter schedulable — these anchor the low-cost corner and the
///    Pareto "diagonal",
/// 2. Latin-hypercube mixed configs (independent knobs per camera),
///    kept only if schedulable, until the target is reached.
///
/// A candidate whose utilisation sum is over the servers' capacity is
/// refused before it is decoded or placed; Algorithm 1 would refuse it
/// too, so the pool is the same as when every candidate is scheduled.
///
/// A zero `target_size` is [`CoreError::InvalidInput`]; a scenario in
/// which no tried configuration can be placed is
/// [`CoreError::NoFeasibleConfig`].
pub fn build_pool<R: Rng + ?Sized>(
    scenario: &Scenario,
    target_size: usize,
    rng: &mut R,
    placements: &Placements,
) -> Result<Vec<Vec<f64>>, CoreError> {
    require(
        target_size >= 1,
        "build_pool needs a pool size of at least 1",
    )?;
    let space = scenario.config_space();
    let m = scenario.n_videos();
    let n_servers = scenario.planning_uplinks().len();
    let mut pool: Vec<Vec<f64>> = Vec::new();

    // (1) Uniform diagonals.
    for c in space.iter() {
        let utilizations = (0..m).map(|i| scenario.stream_timing(i, &c).utilization());
        if !over_capacity(utilizations, n_servers) {
            let configs = vec![c; m];
            if let Ok(assignment) = scenario.schedule(&configs) {
                pool.push(encode_joint(scenario, &configs)?);
                placements.insert(&configs, assignment);
            }
        }
        if pool.len() >= target_size {
            return Ok(pool);
        }
    }

    // (2) LHS mixed configs; oversample since many draws are infeasible.
    // Only they read the table, so a pool the diagonal fills builds none.
    let util = utilization_table(scenario);
    let mut attempts = 0usize;
    let max_attempts = 60 * target_size;
    while pool.len() < target_size && attempts < max_attempts {
        let batch = eva_stats::design::latin_hypercube(rng, 16, 2 * m);
        for u in batch {
            attempts += 1;
            if draw_over_capacity(scenario, &util, &u, n_servers) {
                continue;
            }
            let configs = decode_joint(scenario, &u)?;
            if let Ok(assignment) = scenario.schedule(&configs) {
                let enc = encode_joint(scenario, &configs)?;
                if !pool.contains(&enc) {
                    pool.push(enc);
                    placements.insert(&configs, assignment);
                }
                if pool.len() >= target_size {
                    break;
                }
            }
        }
    }
    if pool.is_empty() {
        return Err(CoreError::NoFeasibleConfig {
            tried: space.len() + attempts,
        });
    }
    Ok(pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_stats::rng::seeded;
    use rand::RngCore;

    fn scenario() -> Scenario {
        Scenario::uniform(4, 3, 20e6, 37)
    }

    #[test]
    fn encode_decode_roundtrip_on_grid() {
        let sc = scenario();
        let configs = vec![
            VideoConfig::new(480.0, 5.0),
            VideoConfig::new(1080.0, 10.0),
            VideoConfig::new(720.0, 1.0),
            VideoConfig::new(2160.0, 30.0),
        ];
        let x = encode_joint(&sc, &configs).unwrap();
        assert_eq!(x.len(), 8);
        let back = decode_joint(&sc, &x).unwrap();
        assert_eq!(back, configs);
    }

    #[test]
    fn joint_length_mismatches_are_errors_not_panics() {
        let sc = scenario();
        let three = vec![VideoConfig::new(480.0, 5.0); 3];
        let err = encode_joint(&sc, &three).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput { .. }), "{err}");
        for len in [0, 7, 9] {
            let err = decode_joint(&sc, &vec![0.5; len]).unwrap_err();
            assert!(matches!(err, CoreError::InvalidInput { .. }), "{err}");
        }
    }

    #[test]
    fn pool_entries_are_feasible_and_distinct() {
        let sc = scenario();
        let pool = build_pool(&sc, 40, &mut seeded(1), &Placements::default()).unwrap();
        assert!(pool.len() >= 20, "pool too small: {}", pool.len());
        for x in &pool {
            let configs = decode_joint(&sc, x).unwrap();
            assert!(sc.schedule(&configs).is_ok(), "infeasible pool entry");
        }
        let mut keys: Vec<String> = pool.iter().map(|p| format!("{p:?}")).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), pool.len(), "duplicate pool entries");
    }

    #[test]
    fn pool_contains_cheap_diagonal() {
        let sc = scenario();
        let pool = build_pool(&sc, 30, &mut seeded(2), &Placements::default()).unwrap();
        let cheapest = encode_joint(&sc, &[VideoConfig::new(360.0, 1.0); 4]).unwrap();
        assert!(pool.contains(&cheapest));
    }

    #[test]
    fn overconstrained_scenario_still_yields_some_pool() {
        // 6 cameras, 1 server: only frugal configs are feasible.
        let sc = Scenario::uniform(6, 1, 20e6, 5);
        let pool = build_pool(&sc, 25, &mut seeded(3), &Placements::default()).unwrap();
        assert!(!pool.is_empty());
        for x in &pool {
            assert!(sc.schedule(&decode_joint(&sc, x).unwrap()).is_ok());
        }
    }

    #[test]
    fn pool_records_the_placements_it_admits() {
        let sc = scenario();
        let placements = Placements::default();
        let pool = build_pool(&sc, 30, &mut seeded(4), &placements).unwrap();
        assert_eq!(placements.memo.borrow().len(), pool.len());
        for x in &pool {
            let configs = decode_joint(&sc, x).unwrap();
            let cached = placements.schedule(&sc, &configs).unwrap();
            assert_eq!(*cached, sc.schedule(&configs).unwrap());
        }
        // Nothing new was scheduled: every lookup hit an admitted entry.
        assert_eq!(placements.memo.borrow().len(), pool.len());
    }

    /// `build_pool` as it was before the capacity pre-check: every
    /// candidate is decoded and scheduled.
    fn build_pool_reference<R: Rng + ?Sized>(
        scenario: &Scenario,
        target_size: usize,
        rng: &mut R,
        placements: &Placements,
    ) -> Result<Vec<Vec<f64>>, CoreError> {
        require(
            target_size >= 1,
            "build_pool needs a pool size of at least 1",
        )?;
        let space = scenario.config_space();
        let m = scenario.n_videos();
        let mut pool: Vec<Vec<f64>> = Vec::new();
        for c in space.iter() {
            let configs = vec![c; m];
            if let Ok(assignment) = scenario.schedule(&configs) {
                pool.push(encode_joint(scenario, &configs)?);
                placements.insert(&configs, assignment);
            }
            if pool.len() >= target_size {
                return Ok(pool);
            }
        }
        let mut attempts = 0usize;
        let max_attempts = 60 * target_size;
        while pool.len() < target_size && attempts < max_attempts {
            let batch = eva_stats::design::latin_hypercube(rng, 16, 2 * m);
            for u in batch {
                attempts += 1;
                let configs = decode_joint(scenario, &u)?;
                if let Ok(assignment) = scenario.schedule(&configs) {
                    let enc = encode_joint(scenario, &configs)?;
                    if !pool.contains(&enc) {
                        pool.push(enc);
                        placements.insert(&configs, assignment);
                    }
                    if pool.len() >= target_size {
                        break;
                    }
                }
            }
        }
        if pool.is_empty() {
            return Err(CoreError::NoFeasibleConfig {
                tried: space.len() + attempts,
            });
        }
        Ok(pool)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// On random scenarios, from one camera on six servers to forty
        /// on one, over tight and loose uplinks: (a) every uniform or
        /// Latin-hypercube candidate the capacity check refuses is one
        /// Algorithm 1 cannot place, high-rate (split) streams included,
        /// and (b) `build_pool` returns the reference loop's pool,
        /// records the same placements and leaves the RNG where the
        /// reference leaves it.
        #[test]
        fn capacity_refusals_are_sound_and_leave_the_pool_unchanged(
            seed in 0u64..1_000,
            cameras in 1usize..=40,
            servers in 1usize..=6,
            uplink_exp in 5.0f64..9.0,
            target in 1usize..=30,
        ) {
            let sc = Scenario::uniform(cameras, servers, 10f64.powf(uplink_exp), seed);
            let space = sc.config_space();
            let util = utilization_table(&sc);
            let mut candidates: Vec<Vec<f64>> = space
                .iter()
                .map(|c| encode_joint(&sc, &vec![c; cameras]).unwrap())
                .collect();
            candidates.extend(eva_stats::design::latin_hypercube(
                &mut seeded(seed + 1),
                64,
                2 * cameras,
            ));
            let mut saw_high_rate = false;
            for u in &candidates {
                let configs = decode_joint(&sc, u).unwrap();
                saw_high_rate |= sc.stream_timings(&configs).iter().any(|t| t.is_high_rate());
                if draw_over_capacity(&sc, &util, u, servers) {
                    proptest::prop_assert!(sc.schedule(&configs).is_err(), "{configs:?}");
                }
            }
            proptest::prop_assert!(saw_high_rate);

            let (fast, slow) = (Placements::default(), Placements::default());
            let (mut fast_rng, mut slow_rng) = (seeded(seed + 2), seeded(seed + 2));
            let got = build_pool(&sc, target, &mut fast_rng, &fast);
            let want = build_pool_reference(&sc, target, &mut slow_rng, &slow);
            match (got, want) {
                (Ok(got), Ok(want)) => proptest::prop_assert_eq!(got, want),
                (Err(got), Err(want)) => {
                    proptest::prop_assert_eq!(got.to_string(), want.to_string())
                }
                (got, want) => proptest::prop_assert!(false, "{got:?} against {want:?}"),
            }
            proptest::prop_assert!(*fast.memo.borrow() == *slow.memo.borrow());
            proptest::prop_assert_eq!(fast_rng.next_u64(), slow_rng.next_u64());
        }
    }

    #[test]
    fn impossible_pools_are_errors_not_panics() {
        let sc = scenario();
        let err = build_pool(&sc, 0, &mut seeded(5), &Placements::default()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput { .. }), "{err}");
        // 200 cameras on one 5 Mb/s server: not even the cheapest
        // uniform config can be placed.
        let packed = Scenario::uniform(200, 1, 5e6, 5);
        let err = build_pool(&packed, 8, &mut seeded(6), &Placements::default()).unwrap_err();
        assert!(matches!(err, CoreError::NoFeasibleConfig { .. }), "{err}");
    }
}
