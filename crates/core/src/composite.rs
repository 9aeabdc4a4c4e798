//! The composite surrogate `g(f(x))`: outcome-GP samples pushed through
//! the preference model.
//!
//! qNEI (Eq. 12) integrates the acquisition over the *posterior of the
//! benefit*, which in PaMO is the composition of two learned models.
//! Sampling that composition jointly across candidates would require a
//! preference-GP joint posterior over `n_mc × n_points` outcome vectors
//! — cubic and prohibitive. We instead sample **marginally per point**.
//!
//! A point's aggregate outcome is a sum (accuracy and latency: a mean)
//! of independent per-camera GP posteriors, each clipped to its valid
//! range (accuracy to [0, 1], the other outcomes ≥ 0). Each camera's
//! term contributes the mean and variance of its clipped value
//! ([`eva_stats::normal::clipped_moments`]); the clip matters because
//! its small per-camera bias adds up over cameras while the aggregate
//! spread grows only as √M. Each of the five aggregate objectives is
//! then drawn once per MC row from the normal with the summed moments
//! and clipped at the aggregate, so a point costs O(M) posterior
//! lookups plus `5 · n_mc` draws instead of O(M · n_mc) draws.
//!
//! Common random numbers: every draw stream (one per aggregate
//! objective, plus the preference-layer noise) is seeded from the
//! acquisition seed and the point's content hash. The same point
//! therefore receives identical samples in every candidate batch,
//! while distinct points get independent streams — cross-point
//! correlation is approximated as independence. BoTorch's qNEI makes
//! the analogous MC-with-CRN trade, just with full joint GP sampling.

use std::collections::HashMap;
use std::sync::Arc;

use eva_bo::SurrogateSampler;
use eva_linalg::Mat;
use eva_obs::{span, NoopRecorder, Phase, Recorder};
use eva_stats::normal::{clip_is_far, clipped_moments};
use eva_stats::rng::{child_seed, standard_normal, standard_normal_vec};
use eva_workload::outcome::idx;
use eva_workload::profiler::{features_of, N_FEATURES};
use eva_workload::{Outcome, Scenario, N_OBJECTIVES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::benefit::{OutcomeNormalizer, TruePreference};
use crate::gp::FactorSolve;
use crate::models::{OutcomeModelBank, SharedWork, SolveMemo};
use crate::pool::{decode_joint, Placements};
use crate::prefgp::PreferenceModel;

/// Benefit assigned to joint configs with no zero-jitter placement.
/// Far below any reachable utility on either the learned (GP-prior
/// scale ~1) or oracle (≥ −Σw) benefit scale.
pub(crate) const INFEASIBLE_BENEFIT: f64 = -1.0e3;

/// GP posterior `(mean, sd)` for `(camera, objective, config, uplink,
/// part)`; `part` is the split part's index within the assignment, used
/// only by the batched latency lookup.
type PredictFn<'p> =
    dyn Fn(usize, usize, &eva_workload::VideoConfig, f64, usize) -> (f64, f64) + 'p;

/// The preference layer: learned GP or the oracle truth (PaMO+).
#[derive(Clone)]
pub enum PreferenceEval {
    /// The Laplace preference GP of Sec. 4.2.
    Learned(PreferenceModel),
    /// The hidden true preference (Eq. 13) — the PaMO+ upper bound.
    Oracle(TruePreference),
}

impl PreferenceEval {
    /// Posterior mean and standard deviation of the utility of a
    /// normalized outcome vector (oracle: exact value, zero spread).
    pub(crate) fn mean_and_std(&self, y_norm: &[f64]) -> (f64, f64) {
        match self {
            PreferenceEval::Learned(model) => {
                let (mu, var) = model.predict_utility(y_norm);
                (mu, var.max(0.0).sqrt())
            }
            PreferenceEval::Oracle(pref) => (pref.benefit_of_normalized(y_norm), 0.0),
        }
    }

    /// [`Self::mean_and_std`] of every row of `ys_norm`, bit-identical
    /// to the per-row calls; the learned model answers the whole batch
    /// in one column-batched posterior pass.
    pub(crate) fn mean_and_std_many(&self, ys_norm: &[Vec<f64>]) -> Vec<(f64, f64)> {
        match self {
            PreferenceEval::Learned(model) => model
                .predict_utility_many(ys_norm)
                .into_iter()
                .map(|(mu, var)| (mu, var.max(0.0).sqrt()))
                .collect(),
            PreferenceEval::Oracle(_) => ys_norm.iter().map(|y| self.mean_and_std(y)).collect(),
        }
    }
}

/// The composite `g(f(x))` sampler over joint-configuration encodings.
pub struct CompositeSampler<'a> {
    scenario: &'a Scenario,
    bank: OutcomeModelBank,
    pref: PreferenceEval,
    normalizer: OutcomeNormalizer,
    /// Algorithm-1 placements, shared with the candidate pool and the
    /// other samplers of one decide.
    placements: Arc<Placements>,
    /// Telemetry for batched posteriors (`bo_prepare` spans, the
    /// `gp.posterior_queries` / `gp.prefix_solves` / `gp.tail_solves`
    /// counters and `prefgp.posterior_points`).
    rec: &'a dyn Recorder,
}

impl<'a> CompositeSampler<'a> {
    /// Assemble the surrogate from its fitted parts.
    pub fn new(
        scenario: &'a Scenario,
        bank: OutcomeModelBank,
        pref: PreferenceEval,
        normalizer: OutcomeNormalizer,
    ) -> Self {
        CompositeSampler {
            scenario,
            bank,
            pref,
            normalizer,
            placements: Arc::default(),
            rec: &NoopRecorder,
        }
    }

    /// Read and record placements in `placements` (the decide's shared
    /// cache) instead of a cache of this sampler's own.
    pub(crate) fn with_placements(mut self, placements: Arc<Placements>) -> Self {
        self.placements = placements;
        self
    }

    /// Report batched-posterior work to `rec`.
    pub(crate) fn recorded(mut self, rec: &'a dyn Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Predictive mean aggregate outcome of a joint config (Eq. 2-5
    /// assembled from the outcome-GP means under the Algorithm-1
    /// placement); `None` if unschedulable.
    pub fn predict_outcome(&self, x: &[f64]) -> Option<Outcome> {
        let configs = decode_joint(self.scenario, x).ok()?;
        let assignment = self.placements.schedule(self.scenario, &configs)?;
        let m = self.scenario.n_videos() as f64;

        let uplinks = self.uplink_map(&assignment);
        let mut acc = 0.0;
        let mut net = 0.0;
        let mut com = 0.0;
        let mut eng = 0.0;
        #[allow(clippy::needless_range_loop)]
        for cam in 0..self.scenario.n_videos() {
            let o = self.bank.predict(cam, &configs[cam], uplinks[cam]);
            acc += o.accuracy;
            net += o.network_bps;
            com += o.compute_tflops;
            eng += o.power_w;
        }
        let mut lat = 0.0;
        for (i, st) in assignment.streams.iter().enumerate() {
            let cam = st.id.source;
            let uplink = self.scenario.planning_uplinks()[assignment.server_of[i]];
            let (mu, _) = self
                .bank
                .predict_objective(cam, idx::LATENCY, &configs[cam], uplink);
            lat += mu;
        }
        lat /= assignment.streams.len().max(1) as f64;

        Some(Outcome {
            latency_s: lat,
            accuracy: acc / m,
            network_bps: net,
            compute_tflops: com,
            power_w: eng,
        })
    }

    /// Planning uplink seen by each camera under an assignment: the
    /// server hosting the camera's first split part, falling back to
    /// server 0 for cameras absent from the assignment. One pass over
    /// the streams — the per-camera `position()` scan this replaces was
    /// O(M²) per evaluated point.
    fn uplink_map(&self, assignment: &eva_sched::Assignment) -> Vec<f64> {
        let ups = self.scenario.planning_uplinks();
        let mut map: Vec<Option<f64>> = vec![None; self.scenario.n_videos()];
        for (i, st) in assignment.streams.iter().enumerate() {
            let slot = &mut map[st.id.source];
            if slot.is_none() {
                *slot = Some(ups[assignment.server_of[i]]);
            }
        }
        map.into_iter().map(|u| u.unwrap_or(ups[0])).collect()
    }

    /// Posteriors of one (camera, objective) model at `xs`, given each
    /// query's memoized factor solve.
    fn predict_batch(
        &self,
        cam: usize,
        obj: usize,
        xs: &[[f64; N_FEATURES]],
        slots: &[usize],
        solves: &SharedWork<FactorSolve>,
    ) -> Vec<(f64, f64)> {
        let model = self.bank.read(cam, obj);
        xs.iter()
            .zip(slots)
            .map(|(x, &slot)| {
                let (pre, solve) = solves.get(slot, |pre| model.factor_solve(x, pre));
                model.predict_with(x, pre, solve)
            })
            .collect()
    }

    /// Samples at one point assembled from the scalar bank calls: the
    /// reference the batched [`SurrogateSampler::joint_samples`] must
    /// match bit for bit.
    #[cfg(test)]
    pub(crate) fn per_point_samples(&self, x: &[f64], n_mc: usize, seed: u64) -> Vec<f64> {
        let Ok(configs) = decode_joint(self.scenario, x) else {
            return vec![INFEASIBLE_BENEFIT; n_mc];
        };
        let Some(assignment) = self.placements.schedule(self.scenario, &configs) else {
            return vec![INFEASIBLE_BENEFIT; n_mc];
        };
        let uplinks = self.uplink_map(&assignment);
        self.assemble_point_samples(
            hash_bits(x),
            &configs,
            &assignment,
            &uplinks,
            n_mc,
            seed,
            &|cam, obj, cfg, uplink, _part| self.bank.predict_objective(cam, obj, cfg, uplink),
        )
        .0
    }

    /// The sample-assembly path of the point with content hash `point`:
    /// per-objective aggregate moments from the clipped per-camera
    /// posteriors, one normal draw per objective per MC row, and all
    /// rows pushed through the preference layer in one batched call.
    /// `predict` supplies the GP posterior for each (camera, objective,
    /// config, uplink) — a lookup into batched results (`part` is the
    /// split part's index within the assignment, used only by the
    /// latency lookup), or in tests the bit-identical scalar bank call.
    /// Returns the samples and the number of camera-objective terms
    /// whose clip bound was near enough to need `Phi`/`phi`.
    #[allow(clippy::too_many_arguments)]
    fn assemble_point_samples(
        &self,
        point: u64,
        configs: &[eva_workload::VideoConfig],
        assignment: &eva_sched::Assignment,
        uplinks: &[f64],
        n_mc: usize,
        seed: u64,
        predict: &PredictFn<'_>,
    ) -> (Vec<f64>, usize) {
        let (moments, clipped) = self.aggregate_moments(configs, assignment, uplinks, predict);
        let zeta = crn_draws(seed, point ^ 0x5eed_c0de, n_mc);
        let ys: Vec<Vec<f64>> = aggregate_draws(&moments, seed, point, n_mc)
            .iter()
            .map(|outcome| self.normalizer.normalize(outcome))
            .collect();
        let samples = self
            .pref
            .mean_and_std_many(&ys)
            .into_iter()
            .zip(zeta)
            .map(|((mu_g, sd_g), zeta)| mu_g + sd_g * zeta)
            .collect();
        (samples, clipped)
    }

    /// Mean and variance of each aggregate objective at one point
    /// (indexed by `idx::*`), and the number of camera-objective terms
    /// within [`eva_stats::normal::CLIP_FAR_SDS`] σ of a clip bound.
    ///
    /// Every camera's posterior `N(μ, σ²)` contributes the moments of
    /// its *clipped* value — accuracy in [0, 1], the other outcomes
    /// ≥ 0 — and the per-camera posteriors are independent, so the
    /// aggregate's moments are the sums. Accuracy is the mean over
    /// cameras, latency the mean over split parts at each part's uplink.
    fn aggregate_moments(
        &self,
        configs: &[eva_workload::VideoConfig],
        assignment: &eva_sched::Assignment,
        uplinks: &[f64],
        predict: &PredictFn<'_>,
    ) -> ([(f64, f64); N_OBJECTIVES], usize) {
        let mut sums = [(0.0f64, 0.0f64); N_OBJECTIVES];
        let mut clipped = 0;
        let mut add = |obj: usize, (mu, var): (f64, f64), hi: f64| {
            let sd = var.max(0.0).sqrt();
            if !clip_is_far(mu, sd, 0.0, hi) {
                clipped += 1;
            }
            let (m, v) = clipped_moments(mu, sd, 0.0, hi);
            sums[obj].0 += m;
            sums[obj].1 += v;
        };
        for (cam, (cfg, &uplink)) in configs.iter().zip(uplinks).enumerate() {
            for obj in AGG_OBJS {
                let hi = if obj == idx::ACCURACY {
                    1.0
                } else {
                    f64::INFINITY
                };
                add(obj, predict(cam, obj, cfg, uplink, 0), hi);
            }
        }
        for (i, st) in assignment.streams.iter().enumerate() {
            let cam = st.id.source;
            let uplink = self.scenario.planning_uplinks()[assignment.server_of[i]];
            let post = predict(cam, idx::LATENCY, &configs[cam], uplink, i);
            add(idx::LATENCY, post, f64::INFINITY);
        }
        let mut scale = [1.0; N_OBJECTIVES];
        scale[idx::ACCURACY] = configs.len() as f64;
        scale[idx::LATENCY] = assignment.streams.len().max(1) as f64;
        for (sum, s) in sums.iter_mut().zip(scale) {
            *sum = (sum.0 / s, sum.1 / (s * s));
        }
        (sums, clipped)
    }
}

/// Objectives summed over cameras; latency is summed over split parts.
const AGG_OBJS: [usize; 4] = [idx::ACCURACY, idx::NETWORK, idx::COMPUTATION, idx::ENERGY];

/// `n_mc` aggregate outcomes from per-objective `(mean, variance)`
/// moments: objective `k` of row `r` is `mean + sd · z_k[r]`, clipped
/// like the per-camera values (accuracy to [0, 1], the rest ≥ 0), with
/// `z_k` one CRN stream per (seed, point, objective). Keying per point
/// rather than sharing one `z_k` across a scan keeps distinct
/// candidates independent instead of perfectly correlated.
fn aggregate_draws(
    moments: &[(f64, f64); N_OBJECTIVES],
    seed: u64,
    point: u64,
    n_mc: usize,
) -> Vec<Outcome> {
    let mut streams: [StdRng; N_OBJECTIVES] =
        std::array::from_fn(|obj| crn_stream(seed, point ^ AGG_KEY ^ obj as u64));
    (0..n_mc)
        .map(|_| {
            let row: [f64; N_OBJECTIVES] = std::array::from_fn(|obj| {
                let (mean, var) = moments[obj];
                let v = mean + var.max(0.0).sqrt() * standard_normal(&mut streams[obj]);
                if obj == idx::ACCURACY {
                    v.clamp(0.0, 1.0)
                } else {
                    v.max(0.0)
                }
            });
            Outcome::from_vec(&row)
        })
        .collect()
}

/// Salt of the aggregate-objective CRN keys (the preference noise uses
/// `0x5eed_c0de`); the objective index fills the low bits.
const AGG_KEY: u64 = 0xa66e_0000;

impl SurrogateSampler for CompositeSampler<'_> {
    /// Samples at every point of `xs`, assembled from batched
    /// posteriors. Points are deduplicated by content hash (the BO
    /// driver's baselines repeat pool points), and query positions are
    /// pure indices — aggregate objectives query exactly once per
    /// (point, camera), and latency once per (point, split part).
    /// Cameras with the same observation history share one GP factor,
    /// so a first sequential pass registers every query in a
    /// `SolveMemo`: each distinct (prefix, query) design-row solve and
    /// each distinct (factor, query) tail cross-kernel vector and latent
    /// variance is computed once, by the first camera that needs it,
    /// and every camera then only takes its model's mean dot
    /// (`GpModel::predict_with`). Bit-identical to assembling
    /// each point from the scalar bank calls.
    fn joint_samples(&self, xs: &[Vec<f64>], n_mc: usize, seed: u64) -> Mat {
        let _prepare_span = span(self.rec, Phase::BoPrepare);
        // Distinct points by content hash; column `c` of the result
        // holds the samples of distinct point `col_of[c]`.
        let mut distinct: Vec<(u64, &[f64])> = Vec::new();
        let mut first: HashMap<u64, usize> = HashMap::new();
        let col_of: Vec<usize> = xs
            .iter()
            .map(|x| {
                let h = hash_bits(x);
                *first.entry(h).or_insert_with(|| {
                    distinct.push((h, x));
                    distinct.len() - 1
                })
            })
            .collect();

        struct Feasible {
            point: usize,
            hash: u64,
            configs: Vec<eva_workload::VideoConfig>,
            assignment: Arc<eva_sched::Assignment>,
            uplinks: Vec<f64>,
        }
        let mut feasible: Vec<Feasible> = Vec::new();
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); distinct.len()];
        for (point, &(hash, x)) in distinct.iter().enumerate() {
            let placed = decode_joint(self.scenario, x).ok().and_then(|configs| {
                let assignment = self.placements.schedule(self.scenario, &configs)?;
                Some((configs, assignment))
            });
            match placed {
                Some((configs, assignment)) => {
                    let uplinks = self.uplink_map(&assignment);
                    feasible.push(Feasible {
                        point,
                        hash,
                        configs,
                        assignment,
                        uplinks,
                    });
                }
                None => samples[point] = vec![INFEASIBLE_BENEFIT; n_mc],
            }
        }

        let mut agg_slot = [usize::MAX; N_OBJECTIVES];
        for (k, &obj) in AGG_OBJS.iter().enumerate() {
            agg_slot[obj] = k;
        }
        let n_videos = self.scenario.n_videos();
        let planning = self.scenario.planning_uplinks();

        let posterior_span = span(self.rec, Phase::BoPosterior);
        // Queries per camera: point `p` queries the aggregate objectives
        // at `(configs[cam], uplinks[cam])`, and the latency model once
        // per split part at the part's server; `lat_slot[p][part]` is
        // the part's position in its camera's latency batch.
        let agg_xs: Vec<Vec<[f64; N_FEATURES]>> = (0..n_videos)
            .map(|cam| {
                feasible
                    .iter()
                    .map(|f| features_of(&f.configs[cam], f.uplinks[cam]))
                    .collect()
            })
            .collect();
        let mut lat_xs: Vec<Vec<[f64; N_FEATURES]>> = vec![Vec::new(); n_videos];
        let mut lat_slot: Vec<Vec<usize>> = Vec::with_capacity(feasible.len());
        for f in &feasible {
            let mut slots = Vec::with_capacity(f.assignment.streams.len());
            for (i, st) in f.assignment.streams.iter().enumerate() {
                let cam = st.id.source;
                let batch = &mut lat_xs[cam];
                slots.push(batch.len());
                batch.push(features_of(
                    &f.configs[cam],
                    planning[f.assignment.server_of[i]],
                ));
            }
            lat_slot.push(slots);
        }

        // First pass (sequential): the memo slot of every query, laid
        // out like the posteriors below.
        let mut memo = SolveMemo::default();
        let agg_memo: Vec<Vec<usize>> = (0..n_videos)
            .flat_map(|cam| AGG_OBJS.iter().map(move |&obj| (cam, obj)))
            .map(|(cam, obj)| {
                let model = self.bank.model(cam, obj);
                agg_xs[cam].iter().map(|x| memo.slot(model, x)).collect()
            })
            .collect();
        let lat_memo: Vec<Vec<usize>> = (0..n_videos)
            .map(|cam| {
                let model = self.bank.model(cam, idx::LATENCY);
                lat_xs[cam].iter().map(|x| memo.slot(model, x)).collect()
            })
            .collect();
        let solves = memo.finish();

        // Second pass: per-camera posteriors, `agg_post[cam * 4 +
        // slot][p]` and `lat_post[cam][part slot]`. Cameras are
        // independent (a shared slot holds the same value whichever
        // camera fills it), so they run in parallel; ordered collect
        // keeps the layout.
        let agg_post: Vec<Vec<(f64, f64)>> = (0..n_videos * AGG_OBJS.len())
            .into_par_iter()
            .map(|b| {
                let (cam, obj) = (b / AGG_OBJS.len(), AGG_OBJS[b % AGG_OBJS.len()]);
                self.predict_batch(cam, obj, &agg_xs[cam], &agg_memo[b], &solves)
            })
            .collect();
        let lat_post: Vec<Vec<(f64, f64)>> = (0..n_videos)
            .into_par_iter()
            .map(|cam| self.predict_batch(cam, idx::LATENCY, &lat_xs[cam], &lat_memo[cam], &solves))
            .collect();
        if self.rec.enabled() {
            let queries = agg_memo
                .iter()
                .chain(&lat_memo)
                .map(Vec::len)
                .sum::<usize>();
            self.rec.add("gp.posterior_queries", queries as u64);
            self.rec
                .add("gp.prefix_solves", solves.prefix_solves() as u64);
            self.rec
                .add("gp.tail_solves", solves.computed().count() as u64);
        }
        drop(posterior_span);

        // Points are independent too: every CRN stream is seeded by its
        // own (seed, point, objective) key and accumulation stays
        // sequential *within* a point, so the samples are bit-identical
        // to the sequential per-point loop.
        let _assemble_span = span(self.rec, Phase::BoAssemble);
        let assembled: Vec<(usize, Vec<f64>, usize)> = feasible
            .par_iter()
            .enumerate()
            .map(|(p, f)| {
                let slots = &lat_slot[p];
                let predict = |cam: usize,
                               obj: usize,
                               _cfg: &eva_workload::VideoConfig,
                               _uplink: f64,
                               part: usize|
                 -> (f64, f64) {
                    if obj == idx::LATENCY {
                        lat_post[cam][slots[part]]
                    } else {
                        agg_post[cam * AGG_OBJS.len() + agg_slot[obj]][p]
                    }
                };
                let (samples, clipped) = self.assemble_point_samples(
                    f.hash,
                    &f.configs,
                    &f.assignment,
                    &f.uplinks,
                    n_mc,
                    seed,
                    &predict,
                );
                (f.point, samples, clipped)
            })
            .collect();
        if self.rec.enabled() {
            // One draw per objective and one preference-noise draw per
            // MC row of each assembled point.
            let draws = assembled.len() * (N_OBJECTIVES + 1) * n_mc;
            self.rec.add("bo.mc_draws", draws as u64);
            let clipped = assembled.iter().map(|a| a.2).sum::<usize>();
            self.rec.add("bo.clip_moments", clipped as u64);
            if let PreferenceEval::Learned(_) = self.pref {
                // Every MC row of every assembled point is one column of
                // a learned preference posterior.
                let rows = assembled.len() * n_mc;
                self.rec.add("prefgp.posterior_points", rows as u64);
            }
        }
        for (point, point_samples, _) in assembled {
            samples[point] = point_samples;
        }
        Mat::from_fn(n_mc, xs.len(), |r, c| samples[col_of[c]][r])
    }

    fn posterior_mean(&self, x: &[f64]) -> f64 {
        match self.predict_outcome(x) {
            Some(outcome) => {
                let y = self.normalizer.normalize(&outcome);
                self.pref.mean_and_std(&y).0
            }
            None => INFEASIBLE_BENEFIT,
        }
    }
}

/// Deterministic generator for one sub-point's CRN stream.
fn crn_stream(seed: u64, key: u64) -> StdRng {
    StdRng::seed_from_u64(child_seed(seed, key))
}

/// Deterministic per-sub-point standard-normal draws (the CRN streams).
fn crn_draws(seed: u64, key: u64, n: usize) -> Vec<f64> {
    standard_normal_vec(&mut crn_stream(seed, key), n)
}

fn hash_bits(x: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in x {
        h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benefit::TruePreference;
    use crate::models::OutcomeModelBank;
    use crate::pool::encode_joint;
    use eva_stats::rng::seeded;
    use eva_workload::VideoConfig;

    fn setup() -> (Scenario, OutcomeModelBank, TruePreference) {
        let sc = Scenario::uniform(3, 2, 20e6, 41);
        let mut rng = seeded(9);
        let bank =
            OutcomeModelBank::fit_initial(&sc, 40, 0.01, None, &mut rng, &NoopRecorder).unwrap();
        let pref = TruePreference::uniform(&sc);
        (sc, bank, pref)
    }

    fn sub_key(cam: usize, obj: usize, config: &VideoConfig, uplink: f64) -> u64 {
        let mut h = (cam as u64) << 48 | (obj as u64) << 40;
        h ^= config.resolution.to_bits().rotate_left(17);
        h ^= config.fps.to_bits().rotate_left(31);
        h ^= uplink.to_bits().rotate_left(7);
        h
    }

    /// The per-camera sampler the aggregate draws replaced: one CRN
    /// stream per (camera, objective, config, uplink) sub-point, `n_mc`
    /// clipped draws from each, summed per row.
    fn per_camera_outcomes(
        sampler: &CompositeSampler,
        x: &[f64],
        n_mc: usize,
        seed: u64,
    ) -> Vec<Outcome> {
        let sc = sampler.scenario;
        let configs = decode_joint(sc, x).unwrap();
        let assignment = sampler.placements.schedule(sc, &configs).unwrap();
        let uplinks = sampler.uplink_map(&assignment);
        let mut agg = vec![[0.0f64; N_OBJECTIVES]; n_mc];
        for cam in 0..sc.n_videos() {
            let uplink = uplinks[cam];
            for obj in AGG_OBJS {
                let (mu, var) = sampler
                    .bank
                    .predict_objective(cam, obj, &configs[cam], uplink);
                let sd = var.max(0.0).sqrt();
                let mut rng = crn_stream(seed, sub_key(cam, obj, &configs[cam], uplink));
                for row in agg.iter_mut() {
                    let v = mu + sd * standard_normal(&mut rng);
                    row[obj] += if obj == idx::ACCURACY {
                        v.clamp(0.0, 1.0)
                    } else {
                        v.max(0.0)
                    };
                }
            }
        }
        let n_parts = assignment.streams.len().max(1);
        for (i, st) in assignment.streams.iter().enumerate() {
            let cam = st.id.source;
            let uplink = sc.planning_uplinks()[assignment.server_of[i]];
            let (mu, var) =
                sampler
                    .bank
                    .predict_objective(cam, idx::LATENCY, &configs[cam], uplink);
            let sd = var.max(0.0).sqrt();
            let key = sub_key(cam, idx::LATENCY, &configs[cam], uplink) ^ (i as u64) << 32;
            let mut rng = crn_stream(seed, key);
            for row in agg.iter_mut() {
                row[idx::LATENCY] +=
                    (mu + sd * standard_normal(&mut rng)).max(0.0) / n_parts as f64;
            }
        }
        for row in agg.iter_mut() {
            row[idx::ACCURACY] /= sc.n_videos() as f64;
        }
        agg.iter().map(|row| Outcome::from_vec(row)).collect()
    }

    /// The production aggregate draws at `x`, and the number of
    /// camera-objective terms that needed the clip correction.
    fn aggregate_outcomes(
        sampler: &CompositeSampler,
        x: &[f64],
        n_mc: usize,
        seed: u64,
    ) -> (Vec<Outcome>, usize) {
        let sc = sampler.scenario;
        let configs = decode_joint(sc, x).unwrap();
        let assignment = sampler.placements.schedule(sc, &configs).unwrap();
        let uplinks = sampler.uplink_map(&assignment);
        let predict = |cam: usize, obj: usize, cfg: &VideoConfig, uplink: f64, _part: usize| {
            sampler.bank.predict_objective(cam, obj, cfg, uplink)
        };
        let (moments, clipped) =
            sampler.aggregate_moments(&configs, &assignment, &uplinks, &predict);
        (aggregate_draws(&moments, seed, hash_bits(x), n_mc), clipped)
    }

    fn mean_var_m4(xs: &[f64]) -> (f64, f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        (mean, var, m4)
    }

    /// Two-sample Kolmogorov–Smirnov statistic.
    fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
        let mut a = a.to_vec();
        let mut b = b.to_vec();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < a.len() && j < b.len() {
            let v = a[i].min(b[j]);
            while i < a.len() && a[i] <= v {
                i += 1;
            }
            while j < b.len() && b[j] <= v {
                j += 1;
            }
            d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
        }
        d
    }

    /// Compare the aggregate sampler against the per-camera oracle at one
    /// feasible point of a seeded `m`-camera bank; returns the clip count.
    fn check_against_per_camera_oracle(m: usize, n_servers: usize, ks: bool) -> usize {
        let sc = Scenario::uniform(m, n_servers, 20e6, 41);
        // Few profiling samples keep the posteriors wide enough for the
        // clip bounds to matter.
        let bank = OutcomeModelBank::fit_initial(&sc, 6, 0.05, None, &mut seeded(9), &NoopRecorder)
            .unwrap();
        let pref = TruePreference::uniform(&sc);
        let normalizer = OutcomeNormalizer::for_scenario(&sc);
        let sampler = CompositeSampler::new(&sc, bank, PreferenceEval::Oracle(pref), normalizer);
        let x = encode_joint(&sc, &vec![VideoConfig::new(480.0, 2.0); m]).unwrap();
        let n_mc = 4000;
        let (fast, clipped) = aggregate_outcomes(&sampler, &x, n_mc, 13);
        let slow = per_camera_outcomes(&sampler, &x, n_mc, 13);
        for obj in 0..N_OBJECTIVES {
            let a: Vec<f64> = fast.iter().map(|o| o.to_array()[obj]).collect();
            let b: Vec<f64> = slow.iter().map(|o| o.to_array()[obj]).collect();
            let (ma, va, qa) = mean_var_m4(&a);
            let (mb, vb, qb) = mean_var_m4(&b);
            let n = n_mc as f64;
            // Five standard errors of the difference of the two sample
            // means, and of the two sample variances.
            let se_mean = (va / n + vb / n).sqrt();
            let se_var = ((qa - va * va) / n + (qb - vb * vb) / n).sqrt();
            assert!(
                (ma - mb).abs() < 5.0 * se_mean,
                "M={m} obj {obj}: mean {ma} vs {mb}"
            );
            assert!(
                (va - vb).abs() < 5.0 * se_var,
                "M={m} obj {obj}: var {va} vs {vb}"
            );
            if ks {
                // α = 0.01 critical value of the two-sample KS statistic.
                let crit = 1.628 * (2.0 / n).sqrt();
                let d = ks_statistic(&a, &b);
                assert!(d < crit, "M={m} obj {obj}: KS {d} >= {crit}");
            }
        }
        clipped
    }

    #[test]
    fn aggregate_sampler_matches_per_camera_oracle_at_paper_scale() {
        let clipped = check_against_per_camera_oracle(8, 5, false);
        assert!(clipped > 0, "no camera term exercised the clip correction");
    }

    #[test]
    fn aggregate_sampler_matches_per_camera_oracle_in_distribution() {
        check_against_per_camera_oracle(200, 40, true);
    }

    #[test]
    fn oracle_sampler_is_deterministic_with_zero_spread() {
        let (sc, bank, pref) = setup();
        let normalizer = OutcomeNormalizer::for_scenario(&sc);
        let sampler =
            CompositeSampler::new(&sc, bank, PreferenceEval::Oracle(pref.clone()), normalizer);
        let x = encode_joint(&sc, &[VideoConfig::new(600.0, 5.0); 3]).unwrap();
        let s = sampler.joint_samples(std::slice::from_ref(&x), 16, 3);
        // Oracle preference has zero spread in g, but outcome GPs still
        // inject spread; samples vary across rows yet share the mean.
        let mean: f64 = (0..16).map(|r| s[(r, 0)]).sum::<f64>() / 16.0;
        let pm = sampler.posterior_mean(&x);
        assert!((mean - pm).abs() < 0.1, "MC mean {mean} vs analytic {pm}");
    }

    #[test]
    fn crn_makes_same_seed_identical() {
        let (sc, bank, pref) = setup();
        let normalizer = OutcomeNormalizer::for_scenario(&sc);
        let sampler = CompositeSampler::new(&sc, bank, PreferenceEval::Oracle(pref), normalizer);
        let a = encode_joint(&sc, &[VideoConfig::new(600.0, 5.0); 3]).unwrap();
        let b = encode_joint(&sc, &[VideoConfig::new(900.0, 10.0); 3]).unwrap();
        // Same point in two different batches, same seed: identical column.
        let s1 = sampler.joint_samples(&[a.clone(), b.clone()], 8, 77);
        let s2 = sampler.joint_samples(&[b, a.clone()], 8, 77);
        for r in 0..8 {
            assert_eq!(s1[(r, 0)], s2[(r, 1)], "CRN violated at row {r}");
        }
        // Different seed: different draws.
        let s3 = sampler.joint_samples(&[a], 8, 78);
        assert!((0..8).any(|r| s3[(r, 0)] != s1[(r, 0)]));
    }

    #[test]
    fn better_configs_get_higher_posterior_mean() {
        let (sc, bank, pref) = setup();
        let normalizer = OutcomeNormalizer::for_scenario(&sc);
        let sampler =
            CompositeSampler::new(&sc, bank, PreferenceEval::Oracle(pref.clone()), normalizer);
        // Under uniform weights, an extreme config (huge resource burn)
        // should score below a balanced mid config.
        let balanced = encode_joint(&sc, &[VideoConfig::new(720.0, 5.0); 3]).unwrap();
        let extreme = encode_joint(&sc, &[VideoConfig::new(360.0, 1.0); 3]).unwrap();
        let mu_b = sampler.posterior_mean(&balanced);
        // True benefits for reference.
        let tb = pref.benefit(
            &sc.evaluate(&decode_joint(&sc, &balanced).unwrap())
                .unwrap()
                .outcome,
        );
        let te = pref.benefit(
            &sc.evaluate(&decode_joint(&sc, &extreme).unwrap())
                .unwrap()
                .outcome,
        );
        let mu_e = sampler.posterior_mean(&extreme);
        // Surrogate ordering matches the truth ordering.
        assert_eq!(mu_b > mu_e, tb > te, "b: {mu_b}/{tb}, e: {mu_e}/{te}");
    }

    #[test]
    fn batched_samples_are_bit_identical_to_per_point_path() {
        let (sc, bank, pref) = setup();
        let normalizer = OutcomeNormalizer::for_scenario(&sc);
        let sampler = CompositeSampler::new(&sc, bank, PreferenceEval::Oracle(pref), normalizer);
        // A mixed pool: distinct feasible points, one duplicate, one
        // infeasible point.
        let xs = vec![
            encode_joint(&sc, &[VideoConfig::new(600.0, 5.0); 3]).unwrap(),
            encode_joint(&sc, &[VideoConfig::new(900.0, 10.0); 3]).unwrap(),
            encode_joint(&sc, &[VideoConfig::new(600.0, 5.0); 3]).unwrap(),
            encode_joint(&sc, &[VideoConfig::new(2160.0, 30.0); 3]).unwrap(),
            encode_joint(&sc, &[VideoConfig::new(1440.0, 20.0); 3]).unwrap(),
        ];
        let batched = sampler.joint_samples(&xs, 12, 77);
        for (c, x) in xs.iter().enumerate() {
            let reference = sampler.per_point_samples(x, 12, 77);
            for (r, want) in reference.iter().enumerate() {
                assert_eq!(
                    batched[(r, c)].to_bits(),
                    want.to_bits(),
                    "mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn infeasible_point_gets_penalty() {
        let (sc, bank, pref) = setup();
        let normalizer = OutcomeNormalizer::for_scenario(&sc);
        let sampler = CompositeSampler::new(&sc, bank, PreferenceEval::Oracle(pref), normalizer);
        // 3 maxed-out cameras on 2 servers: unschedulable.
        let x = encode_joint(&sc, &[VideoConfig::new(2160.0, 30.0); 3]).unwrap();
        let s = sampler.joint_samples(std::slice::from_ref(&x), 4, 1);
        for r in 0..4 {
            assert_eq!(s[(r, 0)], INFEASIBLE_BENEFIT);
        }
        assert_eq!(sampler.posterior_mean(&x), INFEASIBLE_BENEFIT);
    }

    #[test]
    fn misshapen_point_gets_penalty() {
        let (sc, bank, pref) = setup();
        let normalizer = OutcomeNormalizer::for_scenario(&sc);
        let sampler = CompositeSampler::new(&sc, bank, PreferenceEval::Oracle(pref), normalizer);
        // Five knobs for three cameras: no joint config to decode.
        let short = vec![0.5; 5];
        let good = encode_joint(&sc, &[VideoConfig::new(600.0, 5.0); 3]).unwrap();
        let s = sampler.joint_samples(&[short.clone(), short.clone(), good], 4, 1);
        for r in 0..4 {
            assert_eq!(s[(r, 0)], INFEASIBLE_BENEFIT);
            assert_eq!(s[(r, 1)], INFEASIBLE_BENEFIT);
            assert!(s[(r, 2)] > INFEASIBLE_BENEFIT);
        }
        assert_eq!(sampler.posterior_mean(&short), INFEASIBLE_BENEFIT);
        assert!(sampler.predict_outcome(&short).is_none());
    }

    #[test]
    fn bonded_planning_belief_drives_latency_prediction() {
        use eva_workload::{BondPolicy, BondedLink, LinkBundle, LinkModel};

        let (sc, bank, pref) = setup();
        let normalizer = OutcomeNormalizer::for_scenario(&sc);
        // The trio bundle stripes to ~10 Mbps effective — half the
        // 20 Mbps provisioned rate the sampler would otherwise plan on.
        let frame_bits = 5e5;
        let trio = || {
            LinkBundle::new(vec![
                BondedLink::new(LinkModel::constant(12e6), 0.030),
                BondedLink::new(LinkModel::constant(8e6), 0.080),
                BondedLink::new(LinkModel::constant(5e6), 0.200),
            ])
        };
        let eff = trio().effective_rate_bps(BondPolicy::EarliestDelivery, frame_bits);
        let bonded = sc
            .clone()
            .with_link_bundles(vec![trio(); 3], BondPolicy::EarliestDelivery)
            .with_bonded_planning(frame_bits, 1.0)
            .unwrap();
        let explicit = sc.clone().with_planning_uplinks(vec![eff; 2], 1.0).unwrap();

        let x = encode_joint(&sc, &[VideoConfig::new(720.0, 10.0); 3]).unwrap();

        // Same belief, same prediction — bit-identically: the bonded
        // scenario's planning path is exactly the explicit override.
        let via_bond = CompositeSampler::new(
            &bonded,
            bank.clone(),
            PreferenceEval::Oracle(pref.clone()),
            normalizer.clone(),
        )
        .predict_outcome(&x)
        .unwrap();
        let via_override = CompositeSampler::new(
            &explicit,
            bank.clone(),
            PreferenceEval::Oracle(pref.clone()),
            normalizer.clone(),
        )
        .predict_outcome(&x)
        .unwrap();
        assert_eq!(
            via_bond.latency_s.to_bits(),
            via_override.latency_s.to_bits()
        );

        // And the halved belief must actually reach the latency GP:
        // the bonded prediction differs from oracle-B planning (the GP
        // is queried at uplink ≈ 10 Mbps instead of 20 Mbps).
        let oracle = CompositeSampler::new(
            &sc,
            bank.clone(),
            PreferenceEval::Oracle(pref.clone()),
            normalizer.clone(),
        )
        .predict_outcome(&x)
        .unwrap();
        assert_ne!(
            via_bond.latency_s.to_bits(),
            oracle.latency_s.to_bits(),
            "bonded belief never reached the latency prediction"
        );
    }

    #[test]
    fn predicted_outcome_close_to_truth() {
        let (sc, bank, _) = setup();
        let normalizer = OutcomeNormalizer::for_scenario(&sc);
        let sampler = CompositeSampler::new(
            &sc,
            bank,
            PreferenceEval::Oracle(TruePreference::uniform(&sc)),
            normalizer,
        );
        let configs = vec![VideoConfig::new(720.0, 10.0); 3];
        let x = encode_joint(&sc, &configs).unwrap();
        let predicted = sampler.predict_outcome(&x).unwrap();
        let truth = sc.evaluate(&configs).unwrap().outcome;
        assert!((predicted.accuracy - truth.accuracy).abs() < 0.05);
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-9);
        assert!(rel(predicted.network_bps, truth.network_bps) < 0.15);
        assert!(rel(predicted.power_w, truth.power_w) < 0.15);
        assert!(rel(predicted.latency_s, truth.latency_s) < 0.25);
    }
}
