//! The preference dataset and decision-maker oracles.

#[cfg(test)]
use rand::Rng;

/// One answered comparison: the decision maker preferred
/// `items[winner]` over `items[loser]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Comparison {
    /// Index of the preferred outcome vector.
    pub winner: usize,
    /// Index of the rejected outcome vector.
    pub loser: usize,
}

/// A growing set of distinct outcome vectors plus the comparisons
/// collected over them. Items are deduplicated by L∞ tolerance so
/// repeated queries at the same outcome share a latent utility.
#[derive(Debug, Clone, Default)]
pub struct PreferenceDataset {
    items: Vec<Vec<f64>>,
    comparisons: Vec<Comparison>,
}

/// Items closer than this in L∞ are considered identical.
const DEDUP_TOL: f64 = 1e-9;

impl PreferenceDataset {
    /// Empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// The distinct outcome vectors seen so far.
    pub fn items(&self) -> &[Vec<f64>] {
        &self.items
    }

    /// The comparisons collected so far.
    pub fn comparisons(&self) -> &[Comparison] {
        &self.comparisons
    }

    /// Number of comparisons (`V` in the paper).
    pub fn len(&self) -> usize {
        self.comparisons.len()
    }

    /// True when no comparisons have been recorded.
    pub fn is_empty(&self) -> bool {
        self.comparisons.is_empty()
    }

    /// Intern an outcome vector, returning its item index.
    pub(crate) fn intern(&mut self, y: &[f64]) -> usize {
        if let Some(i) = self.find(y) {
            return i;
        }
        self.items.push(y.to_vec());
        self.items.len() - 1
    }

    fn find(&self, y: &[f64]) -> Option<usize> {
        self.items.iter().position(|it| {
            it.len() == y.len() && it.iter().zip(y).all(|(&a, &b)| (a - b).abs() <= DEDUP_TOL)
        })
    }

    /// Record that the decision maker preferred `preferred` over `other`.
    pub(crate) fn add(&mut self, preferred: &[f64], other: &[f64]) {
        let w = self.intern(preferred);
        let l = self.intern(other);
        assert_ne!(w, l, "PreferenceDataset::add: item compared to itself");
        self.comparisons.push(Comparison {
            winner: w,
            loser: l,
        });
    }

    /// Ask `oracle` to compare `a` and `b`, record the answer.
    pub fn query<D: DecisionMaker + ?Sized>(&mut self, oracle: &mut D, a: &[f64], b: &[f64]) {
        if oracle.prefers(a, b) {
            self.add(a, b);
        } else {
            self.add(b, a);
        }
    }
}

/// The decision maker of Sec. 4.2: answers "which outcome do you
/// prefer?" queries. In the paper's evaluation this is the hidden true
/// preference function (Eq. 13); in a deployment it is a human.
pub trait DecisionMaker {
    /// True iff `a` is preferred to `b`.
    fn prefers(&mut self, a: &[f64], b: &[f64]) -> bool;
}

/// Deterministic oracle wrapping a hidden utility function.
pub struct FunctionOracle<F: Fn(&[f64]) -> f64> {
    utility: F,
}

impl<F: Fn(&[f64]) -> f64> FunctionOracle<F> {
    /// Wrap a utility function (higher = preferred).
    pub fn new(utility: F) -> Self {
        FunctionOracle { utility }
    }
}

impl<F: Fn(&[f64]) -> f64> DecisionMaker for FunctionOracle<F> {
    fn prefers(&mut self, a: &[f64], b: &[f64]) -> bool {
        (self.utility)(a) >= (self.utility)(b)
    }
}

/// Probit-noisy oracle: answers correctly with probability
/// `Φ(|u(a)-u(b)| / (√2 λ))` — the generative model behind Eq. 9.
#[cfg(test)]
pub(crate) struct NoisyOracle<F: Fn(&[f64]) -> f64, R: Rng> {
    utility: F,
    lambda: f64,
    rng: R,
}

#[cfg(test)]
impl<F: Fn(&[f64]) -> f64, R: Rng> NoisyOracle<F, R> {
    /// Wrap a utility with comparison noise `lambda` (0 = deterministic).
    pub(crate) fn new(utility: F, lambda: f64, rng: R) -> Self {
        assert!(lambda >= 0.0, "NoisyOracle: negative lambda");
        NoisyOracle {
            utility,
            lambda,
            rng,
        }
    }
}

#[cfg(test)]
impl<F: Fn(&[f64]) -> f64, R: Rng> DecisionMaker for NoisyOracle<F, R> {
    fn prefers(&mut self, a: &[f64], b: &[f64]) -> bool {
        let diff = (self.utility)(a) - (self.utility)(b);
        if self.lambda == 0.0 {
            return diff >= 0.0;
        }
        // P(a ≻ b) = Φ(diff / (√2 λ)); sample the probit response.
        let p = eva_stats::norm_cdf(diff / (std::f64::consts::SQRT_2 * self.lambda));
        self.rng.gen::<f64>() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_stats::rng::seeded;

    #[test]
    fn intern_deduplicates() {
        let mut d = PreferenceDataset::new();
        let a = d.intern(&[1.0, 2.0]);
        let b = d.intern(&[1.0, 2.0 + 1e-12]);
        let c = d.intern(&[1.0, 3.0]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(d.items().len(), 2);
    }

    #[test]
    fn add_records_direction() {
        let mut d = PreferenceDataset::new();
        d.add(&[1.0], &[0.0]);
        assert_eq!(d.len(), 1);
        let cmp = d.comparisons()[0];
        assert_eq!(d.items()[cmp.winner], vec![1.0]);
        assert_eq!(d.items()[cmp.loser], vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "compared to itself")]
    fn self_comparison_rejected() {
        let mut d = PreferenceDataset::new();
        d.add(&[1.0], &[1.0]);
    }

    #[test]
    fn function_oracle_is_consistent() {
        let mut o = FunctionOracle::new(|y: &[f64]| -y[0]);
        assert!(o.prefers(&[1.0], &[2.0]));
        assert!(!o.prefers(&[3.0], &[2.0]));
    }

    #[test]
    fn query_routes_through_oracle() {
        let mut d = PreferenceDataset::new();
        let mut o = FunctionOracle::new(|y: &[f64]| y[0]);
        d.query(&mut o, &[0.0], &[5.0]);
        let cmp = d.comparisons()[0];
        assert_eq!(d.items()[cmp.winner], vec![5.0]);
    }

    #[test]
    fn noisy_oracle_error_rate_matches_probit() {
        // utility gap 1.0, λ = 1.0: P(correct) = Φ(1/√2) ≈ 0.760.
        let mut o = NoisyOracle::new(|y: &[f64]| y[0], 1.0, seeded(5));
        let n = 20_000;
        let correct = (0..n).filter(|_| o.prefers(&[1.0], &[0.0])).count() as f64 / n as f64;
        let want = eva_stats::norm_cdf(1.0 / std::f64::consts::SQRT_2);
        assert!((correct - want).abs() < 0.01, "{correct} vs {want}");
    }

    #[test]
    fn zero_lambda_oracle_is_deterministic() {
        let mut o = NoisyOracle::new(|y: &[f64]| y[0], 0.0, seeded(6));
        for _ in 0..100 {
            assert!(o.prefers(&[1.0], &[0.0]));
        }
    }
}
