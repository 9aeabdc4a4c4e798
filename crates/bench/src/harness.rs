//! Run the four methods of Sec. 5 on one scenario and score them.

use eva_baselines::{measure_decision, Fact, FactConfig, Jcab, JcabConfig};
use eva_bo::AcqKind;
use eva_stats::rng::{child_seed, seeded};
use eva_workload::outcome::idx;
use eva_workload::{Outcome, Scenario, N_OBJECTIVES};
use pamo_core::{normalized_benefit, Pamo, PamoConfig, TruePreference};

/// One experiment setting (scenario shape + preference weights).
#[derive(Debug, Clone)]
pub struct ExperimentSetting {
    /// Number of cameras (`M'`).
    pub n_videos: usize,
    /// Number of servers (`N`).
    pub n_servers: usize,
    /// Eq. 13 weights `[lct, acc, net, com, eng]`.
    pub weights: [f64; N_OBJECTIVES],
    /// Repetitions to average ("three repetitions of testing").
    pub reps: usize,
    /// Base seed; rep `r` uses `child_seed(seed, r)`.
    pub seed: u64,
    /// Uniform uplink (Fig. 6) or the random 5-30 Mbps pool (Fig. 7).
    pub uniform_uplink: Option<f64>,
    /// PaMO tuning (shared by PaMO and PaMO+ apart from the preference
    /// source).
    pub pamo: PamoConfig,
}

impl ExperimentSetting {
    /// The paper's Fig. 6 default: 8 videos, 5 servers, uniform uplinks.
    pub fn fig6(weights: [f64; N_OBJECTIVES]) -> Self {
        ExperimentSetting {
            n_videos: 8,
            n_servers: 5,
            weights,
            reps: 3,
            seed: 2024,
            uniform_uplink: Some(20e6),
            pamo: PamoConfig::default(),
        }
    }

    /// The Fig. 7 shape: uniform weights, random uplinks.
    pub fn fig7(n_videos: usize, n_servers: usize) -> Self {
        ExperimentSetting {
            n_videos,
            n_servers,
            weights: [1.0; N_OBJECTIVES],
            reps: 3,
            seed: 7077,
            uniform_uplink: None,
            pamo: PamoConfig::default(),
        }
    }

    /// Shrink budgets for fast smoke runs (`--quick`).
    pub fn quick(mut self) -> Self {
        self.reps = 1;
        self.pamo.bo.max_iters = 4;
        self.pamo.bo.mc_samples = 16;
        self.pamo.pool_size = 30;
        self.pamo.profiling_per_camera = 25;
        self.pamo.n_comparisons = 10;
        self
    }

    /// Build the scenario of repetition `rep`.
    pub(crate) fn scenario(&self, rep: usize) -> Scenario {
        let seed = child_seed(self.seed, rep as u64);
        match self.uniform_uplink {
            Some(b) => Scenario::uniform(self.n_videos, self.n_servers, b, seed),
            None => {
                let mut rng = seeded(seed);
                Scenario::standard(self.n_videos, self.n_servers, &mut rng)
            }
        }
    }
}

/// Averaged score of one method on one setting.
#[derive(Debug, Clone)]
pub struct MethodScore {
    /// Method name ("JCAB", "FACT", "PaMO", "PaMO+").
    pub name: String,
    /// Mean true benefit `U` (Eq. 13) across repetitions.
    pub benefit: f64,
    /// Footnote-2 normalized benefit (PaMO+ of the same setting = 1).
    pub normalized: f64,
    /// Mean per-objective contributions `w_i|ŷ_i − y*_i|` (the Fig. 6
    /// "benefit ratio" shares).
    pub contributions: [f64; N_OBJECTIVES],
    /// Mean raw outcome.
    pub outcome_mean: Vec<f64>,
}

impl From<&MethodScore> for serde_json::Value {
    fn from(s: &MethodScore) -> Self {
        serde_json::json!({
            "name": s.name.clone(),
            "benefit": s.benefit,
            "normalized": s.normalized,
            "contributions": s.contributions.to_vec(),
            "outcome_mean": s.outcome_mean.clone(),
        })
    }
}

impl From<MethodScore> for serde_json::Value {
    fn from(s: MethodScore) -> Self {
        Self::from(&s)
    }
}

/// Run JCAB, FACT, PaMO and PaMO+ on a setting; returns scores in that
/// order, with normalized benefit computed against PaMO+ per footnote 2.
pub fn run_all_methods(setting: &ExperimentSetting) -> Vec<MethodScore> {
    let names = ["JCAB", "FACT", "PaMO", "PaMO+"];
    let mut benefit_acc = vec![0.0f64; names.len()];
    let mut contrib_acc = vec![[0.0f64; N_OBJECTIVES]; names.len()];
    let mut outcome_acc = vec![vec![0.0f64; N_OBJECTIVES]; names.len()];

    for rep in 0..setting.reps {
        let scenario = setting.scenario(rep);
        let pref = TruePreference::new(&scenario, setting.weights);
        let rep_seed = child_seed(setting.seed ^ 0xabcd, rep as u64);

        let outcomes: Vec<Outcome> = vec![
            jcab_outcome(&scenario, setting),
            fact_outcome(&scenario, setting),
            pamo_outcome(&scenario, &pref, setting, rep_seed, false),
            pamo_outcome(&scenario, &pref, setting, rep_seed, true),
        ];
        for (m, out) in outcomes.iter().enumerate() {
            benefit_acc[m] += pref.benefit(out);
            let c = pref.contributions(out);
            for d in 0..N_OBJECTIVES {
                contrib_acc[m][d] += c[d];
                outcome_acc[m][d] += out.to_vec()[d];
            }
        }
    }

    let reps = setting.reps as f64;
    let benefits: Vec<f64> = benefit_acc.iter().map(|b| b / reps).collect();
    // Footnote 2: max(U) = PaMO+, min(U) = −½ Σ w.
    let best = benefits[3];
    let min_ref = -0.5 * setting.weights.iter().sum::<f64>();

    names
        .iter()
        .enumerate()
        .map(|(m, name)| MethodScore {
            name: (*name).to_string(),
            benefit: benefits[m],
            normalized: normalized_benefit(benefits[m], best, min_ref),
            contributions: {
                let mut c = contrib_acc[m];
                for v in &mut c {
                    *v /= reps;
                }
                c
            },
            outcome_mean: outcome_acc[m].iter().map(|v| v / reps).collect(),
        })
        .collect()
}

fn jcab_outcome(scenario: &Scenario, setting: &ExperimentSetting) -> Outcome {
    let jcab = Jcab::new(JcabConfig {
        w_acc: setting.weights[idx::ACCURACY],
        w_eng: setting.weights[idx::ENERGY],
        ..Default::default()
    });
    measure_decision(scenario, &jcab.decide(scenario))
        .expect("JCAB decides one valid config and server per camera")
}

fn fact_outcome(scenario: &Scenario, setting: &ExperimentSetting) -> Outcome {
    let fact = Fact::new(FactConfig {
        w_lct: setting.weights[idx::LATENCY],
        w_acc: setting.weights[idx::ACCURACY],
        ..Default::default()
    });
    measure_decision(scenario, &fact.decide(scenario))
        .expect("FACT decides one valid config and server per camera")
}

fn pamo_outcome(
    scenario: &Scenario,
    pref: &TruePreference,
    setting: &ExperimentSetting,
    seed: u64,
    oracle: bool,
) -> Outcome {
    let cfg = if oracle {
        setting.pamo.clone().plus()
    } else {
        setting.pamo.clone()
    };
    let mut rng = seeded(seed);
    Pamo::new(cfg)
        .decide(scenario, pref, &mut rng)
        .expect("scenario admits at least the floor configuration")
        .outcome
}

/// Acquisition-ablation helper: one PaMO run with a given acquisition,
/// returning `(true benefit, best-so-far trace)`.
pub fn pamo_with_acquisition(
    scenario: &Scenario,
    pref: &TruePreference,
    base: &PamoConfig,
    kind: AcqKind,
    seed: u64,
) -> (f64, Vec<f64>) {
    let cfg = base.clone().with_acquisition(kind);
    let mut rng = seeded(seed);
    let d = Pamo::new(cfg)
        .decide(scenario, pref, &mut rng)
        .expect("feasible scenario");
    (d.true_benefit, d.bo.best_trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_setting_runs_all_methods() {
        let mut setting = ExperimentSetting::fig6([1.0; N_OBJECTIVES]).quick();
        setting.n_videos = 4;
        setting.n_servers = 3;
        let scores = run_all_methods(&setting);
        assert_eq!(scores.len(), 4);
        // PaMO+ defines the normalization: exactly 1.
        assert!((scores[3].normalized - 1.0).abs() < 1e-9);
        for s in &scores {
            assert!(s.benefit <= 0.0, "{}: benefit {}", s.name, s.benefit);
            assert!(s.normalized >= 0.0 && s.normalized <= 1.05);
            assert_eq!(s.outcome_mean.len(), N_OBJECTIVES);
        }
    }

    #[test]
    fn scenario_generation_is_deterministic_per_rep() {
        let setting = ExperimentSetting::fig7(5, 3);
        let a = setting.scenario(0);
        let b = setting.scenario(0);
        assert_eq!(a.uplinks(), b.uplinks());
        let c = setting.scenario(1);
        // Different rep, very likely different uplinks (pool of 6^3).
        assert_eq!(c.n_videos(), 5);
    }
}
