//! The five-objective outcome vector.
//!
//! The paper's objectives (Sec. 3, `k = 5`): end-to-end latency,
//! accuracy, network bandwidth, computation and energy. Internally we
//! order them `[latency, accuracy, network, computation, energy]` to
//! match the paper's subscripts `{lct, acc, net, com, eng}`.

/// Number of optimization objectives.
pub const N_OBJECTIVES: usize = 5;

/// Objective names in canonical order.
pub const OBJECTIVE_NAMES: [&str; N_OBJECTIVES] =
    ["latency", "accuracy", "network", "computation", "energy"];

/// Canonical indices into outcome vectors.
pub mod idx {
    /// End-to-end latency (s).
    pub const LATENCY: usize = 0;
    /// Detection accuracy (mAP).
    pub const ACCURACY: usize = 1;
    /// Network bandwidth (bits/s).
    pub const NETWORK: usize = 2;
    /// Computation (TFLOP/s).
    pub const COMPUTATION: usize = 3;
    /// Energy (W).
    pub const ENERGY: usize = 4;
}

/// A system-level outcome: the scheduler's five observables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Mean end-to-end latency across streams (seconds) — Eq. 5.
    pub latency_s: f64,
    /// Mean detection accuracy across streams (mAP, higher is better) — Eq. 2.
    pub accuracy: f64,
    /// Total network bandwidth (bits/s) — Eq. 3.
    pub network_bps: f64,
    /// Total computation (TFLOP/s) — Eq. 3.
    pub compute_tflops: f64,
    /// Total power (W) — Eq. 4.
    pub power_w: f64,
}

impl Outcome {
    /// As a raw vector in canonical order (accuracy kept higher-is-better).
    pub fn to_vec(&self) -> Vec<f64> {
        self.to_array().to_vec()
    }

    /// [`Outcome::to_vec`] without the allocation.
    pub fn to_array(&self) -> [f64; N_OBJECTIVES] {
        [
            self.latency_s,
            self.accuracy,
            self.network_bps,
            self.compute_tflops,
            self.power_w,
        ]
    }

    /// As a *cost* vector: all objectives to-be-minimized, accuracy
    /// negated (Fig. 3(b) plots `-Accuracy` for exactly this reason).
    pub fn to_cost_vec(&self) -> Vec<f64> {
        vec![
            self.latency_s,
            -self.accuracy,
            self.network_bps,
            self.compute_tflops,
            self.power_w,
        ]
    }

    /// Rebuild from a canonical raw vector.
    pub fn from_vec(v: &[f64]) -> Self {
        assert_eq!(v.len(), N_OBJECTIVES, "Outcome::from_vec: wrong length");
        Outcome {
            latency_s: v[idx::LATENCY],
            accuracy: v[idx::ACCURACY],
            network_bps: v[idx::NETWORK],
            compute_tflops: v[idx::COMPUTATION],
            power_w: v[idx::ENERGY],
        }
    }

    /// Pareto dominance on *costs* (Sec. 2.3): self dominates other iff
    /// it is no worse everywhere and strictly better somewhere (tests
    /// only, like [`pareto_front`], its one caller).
    #[cfg(test)]
    pub(crate) fn dominates(&self, other: &Outcome) -> bool {
        let a = self.to_cost_vec();
        let b = other.to_cost_vec();
        let mut strictly_better = false;
        for (x, y) in a.iter().zip(&b) {
            if x > y {
                return false;
            }
            if x < y {
                strictly_better = true;
            }
        }
        strictly_better
    }
}

/// Indices of the Pareto-optimal (non-dominated) outcomes in a set
/// (tests only).
#[cfg(test)]
pub(crate) fn pareto_front(outcomes: &[Outcome]) -> Vec<usize> {
    (0..outcomes.len())
        .filter(|&i| {
            !outcomes
                .iter()
                .enumerate()
                .any(|(j, o)| j != i && o.dominates(&outcomes[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(lat: f64, acc: f64, net: f64, com: f64, eng: f64) -> Outcome {
        Outcome {
            latency_s: lat,
            accuracy: acc,
            network_bps: net,
            compute_tflops: com,
            power_w: eng,
        }
    }

    #[test]
    fn vector_roundtrip() {
        let o = outcome(0.1, 0.8, 5e6, 10.0, 40.0);
        assert_eq!(Outcome::from_vec(&o.to_vec()), o);
        let cost = o.to_cost_vec();
        assert_eq!(cost[idx::ACCURACY], -0.8);
        assert_eq!(cost[idx::LATENCY], 0.1);
    }

    #[test]
    fn dominance_respects_accuracy_direction() {
        let better = outcome(0.1, 0.9, 5e6, 10.0, 40.0);
        let worse = outcome(0.1, 0.7, 5e6, 10.0, 40.0);
        assert!(better.dominates(&worse));
        assert!(!worse.dominates(&better));
    }

    #[test]
    fn dominance_needs_strict_improvement() {
        let a = outcome(0.1, 0.8, 5e6, 10.0, 40.0);
        assert!(!a.dominates(&a));
    }

    #[test]
    fn incomparable_points_do_not_dominate() {
        // a better latency, b better accuracy -> neither dominates.
        let a = outcome(0.1, 0.7, 5e6, 10.0, 40.0);
        let b = outcome(0.3, 0.9, 5e6, 10.0, 40.0);
        assert!(!a.dominates(&b) && !b.dominates(&a));
    }

    #[test]
    fn pareto_front_filters_dominated() {
        let good_fast = outcome(0.1, 0.6, 1e6, 5.0, 20.0);
        let good_accurate = outcome(0.5, 0.9, 8e6, 30.0, 80.0);
        let dominated = outcome(0.6, 0.55, 9e6, 35.0, 90.0); // worse than both
        let front = pareto_front(&[good_fast, good_accurate, dominated]);
        assert_eq!(front, vec![0, 1]);
    }

    #[test]
    fn pareto_front_of_empty_and_singleton() {
        assert!(pareto_front(&[]).is_empty());
        let one = outcome(0.1, 0.8, 1e6, 5.0, 20.0);
        assert_eq!(pareto_front(&[one]), vec![0]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn from_vec_length_checked() {
        let _ = Outcome::from_vec(&[1.0, 2.0]);
    }
}
