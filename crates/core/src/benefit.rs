//! The hidden true preference function and the evaluation metric.
//!
//! Sec. 5.1 defines system benefit as the negative weighted L1 distance
//! between the *normalized* outcome vector and the utopian vector
//! (Eq. 13): `U = −Σ_i w_i |ŷ_i − y*_i|`. The utopian outcome is the
//! per-objective single-objective optimum; in normalized cost space
//! that is the zero vector. The paper's footnote 2 normalizes benefits
//! to \[0,1\] with `max(U)` = PaMO+ and `min(U) = −½ Σ w_i`; the formula
//! as printed would send the best value to 0, so we use the evident
//! intent (affine map sending `min(U) → 0`, `max(U) → 1`).

use eva_stats::MinMaxNormalizer;
use eva_workload::{Outcome, Scenario, N_OBJECTIVES};

use crate::prefgp::DecisionMaker;

/// Min-max normalizer over the scenario's cost space (accuracy negated),
/// mapping raw outcome vectors into `[0,1]^5`.
#[derive(Debug, Clone)]
pub struct OutcomeNormalizer {
    inner: MinMaxNormalizer,
}

impl OutcomeNormalizer {
    /// Build from a scenario's feasible cost bounds.
    pub fn for_scenario(scenario: &Scenario) -> Self {
        let bounds = scenario.cost_bounds();
        let (mins, maxs): (Vec<f64>, Vec<f64>) = bounds.into_iter().unzip();
        OutcomeNormalizer {
            inner: MinMaxNormalizer::from_bounds(mins, maxs),
        }
    }

    /// Normalize an outcome to the unit cost cube.
    pub fn normalize(&self, outcome: &Outcome) -> Vec<f64> {
        self.inner.transform(&outcome.to_cost_vec())
    }
}

/// The hidden true preference function (Eq. 13) — what the decision
/// maker "knows" and the schedulers must discover.
#[derive(Debug, Clone)]
pub struct TruePreference {
    weights: [f64; N_OBJECTIVES],
    normalizer: OutcomeNormalizer,
}

impl TruePreference {
    /// Build for a scenario with explicit objective weights
    /// (order: latency, accuracy, network, computation, energy).
    pub fn new(scenario: &Scenario, weights: [f64; N_OBJECTIVES]) -> Self {
        assert!(
            weights.iter().all(|&w| w >= 0.0) && weights.iter().sum::<f64>() > 0.0,
            "TruePreference: weights must be nonnegative, not all zero"
        );
        TruePreference {
            weights,
            normalizer: OutcomeNormalizer::for_scenario(scenario),
        }
    }

    /// Uniform weights (the Fig. 7 setting).
    pub fn uniform(scenario: &Scenario) -> Self {
        TruePreference::new(scenario, [1.0; N_OBJECTIVES])
    }

    /// The weight vector.
    pub(crate) fn weights(&self) -> &[f64; N_OBJECTIVES] {
        &self.weights
    }

    /// System benefit of a raw outcome (Eq. 13). Utopia is the origin of
    /// normalized cost space, so `U = −Σ w_i ŷ_i ∈ [−Σw, 0]`.
    pub fn benefit(&self, outcome: &Outcome) -> f64 {
        self.benefit_of_normalized(&self.normalizer.normalize(outcome))
    }

    /// Benefit of an already-normalized cost vector.
    pub fn benefit_of_normalized(&self, y_norm: &[f64]) -> f64 {
        assert_eq!(y_norm.len(), N_OBJECTIVES, "benefit: wrong outcome dim");
        -y_norm
            .iter()
            .zip(&self.weights)
            .map(|(&y, &w)| w * y.abs())
            .sum::<f64>()
    }

    /// Per-objective contributions `w_i |ŷ_i − y*_i|` to the (negated)
    /// benefit — the colored "benefit ratio" shares of Fig. 6.
    pub fn contributions(&self, outcome: &Outcome) -> [f64; N_OBJECTIVES] {
        let y = self.normalizer.normalize(outcome);
        let mut out = [0.0; N_OBJECTIVES];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.weights[i] * y[i].abs();
        }
        out
    }

    /// The footnote-2 lower reference value `min(U) = −½ Σ w_i`.
    pub fn min_reference(&self) -> f64 {
        -0.5 * self.weights.iter().sum::<f64>()
    }
}

/// A [`DecisionMaker`] view of the true preference over *normalized*
/// outcome vectors — the oracle PaMO's preference learning queries
/// (Sec. 5.1: comparisons are answered with Eq. 13).
pub struct TruePreferenceOracle<'a> {
    pref: &'a TruePreference,
}

impl<'a> TruePreferenceOracle<'a> {
    /// Borrow the hidden preference as an oracle.
    pub fn new(pref: &'a TruePreference) -> Self {
        TruePreferenceOracle { pref }
    }
}

impl DecisionMaker for TruePreferenceOracle<'_> {
    fn prefers(&mut self, a: &[f64], b: &[f64]) -> bool {
        self.pref.benefit_of_normalized(a) >= self.pref.benefit_of_normalized(b)
    }
}

/// Footnote-2 normalized benefit: affine map with `U = min_ref → 0` and
/// `U = best → 1` (values outside clamp into [0, 1.05] so "slightly
/// better than the reference best" stays visible).
pub fn normalized_benefit(u: f64, best: f64, min_ref: f64) -> f64 {
    let span = best - min_ref;
    if span <= 0.0 {
        return if u >= best { 1.0 } else { 0.0 };
    }
    ((u - min_ref) / span).clamp(0.0, 1.05)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_workload::VideoConfig;

    fn scenario() -> Scenario {
        Scenario::uniform(3, 2, 20e6, 23)
    }

    #[test]
    fn benefit_is_nonpositive_and_zero_at_utopia() {
        let sc = scenario();
        let pref = TruePreference::uniform(&sc);
        let out = sc
            .evaluate(&[VideoConfig::new(480.0, 5.0); 3])
            .unwrap()
            .outcome;
        assert!(pref.benefit(&out) <= 0.0);
        // The all-zero normalized vector is utopia.
        assert_eq!(pref.benefit_of_normalized(&[0.0; 5]), 0.0);
        assert!((pref.benefit_of_normalized(&[1.0; 5]) + 5.0).abs() < 1e-12);
    }

    #[test]
    fn weights_steer_the_preference() {
        let sc = scenario();
        // Accuracy-obsessed preference.
        let acc_pref = TruePreference::new(&sc, [0.1, 5.0, 0.1, 0.1, 0.1]);
        // Energy-obsessed preference.
        let eng_pref = TruePreference::new(&sc, [0.1, 0.1, 0.1, 0.1, 5.0]);
        let frugal = sc
            .evaluate(&[VideoConfig::new(360.0, 1.0); 3])
            .unwrap()
            .outcome;
        let lavish = sc
            .evaluate(&[VideoConfig::new(720.0, 10.0); 3])
            .unwrap()
            .outcome;
        // Accuracy preference favors the lavish config; energy the frugal.
        assert!(acc_pref.benefit(&lavish) > acc_pref.benefit(&frugal));
        assert!(eng_pref.benefit(&frugal) > eng_pref.benefit(&lavish));
    }

    #[test]
    fn contributions_sum_to_negative_benefit() {
        let sc = scenario();
        let pref = TruePreference::new(&sc, [1.0, 2.0, 0.5, 1.5, 1.0]);
        let out = sc
            .evaluate(&[VideoConfig::new(720.0, 10.0); 3])
            .unwrap()
            .outcome;
        let contrib = pref.contributions(&out);
        let total: f64 = contrib.iter().sum();
        assert!((total + pref.benefit(&out)).abs() < 1e-12);
        assert!(contrib.iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn oracle_agrees_with_benefit_order() {
        let sc = scenario();
        let pref = TruePreference::uniform(&sc);
        let mut oracle = TruePreferenceOracle::new(&pref);
        let good = [0.1; 5];
        let bad = [0.9; 5];
        assert!(oracle.prefers(&good, &bad));
        assert!(!oracle.prefers(&bad, &good));
    }

    #[test]
    fn normalized_benefit_endpoints() {
        assert_eq!(normalized_benefit(-2.5, -1.0, -2.5), 0.0);
        assert_eq!(normalized_benefit(-1.0, -1.0, -2.5), 1.0);
        let mid = normalized_benefit(-1.75, -1.0, -2.5);
        assert!((mid - 0.5).abs() < 1e-12);
        // Slight exceedance allowed, clamped at 1.05.
        assert!(normalized_benefit(-0.5, -1.0, -2.5) <= 1.05);
        // Degenerate span.
        assert_eq!(normalized_benefit(-1.0, -1.0, -1.0), 1.0);
    }

    #[test]
    fn min_reference_matches_footnote() {
        let sc = scenario();
        let pref = TruePreference::new(&sc, [0.2, 1.0, 1.0, 1.0, 1.0]);
        assert!((pref.min_reference() + 0.5 * 4.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn rejects_negative_weights() {
        let sc = scenario();
        let _ = TruePreference::new(&sc, [-1.0, 1.0, 1.0, 1.0, 1.0]);
    }
}
