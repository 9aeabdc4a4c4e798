//! Fixed-weight scalarization baselines (Equal / ROC / Rank-Sum).
//!
//! The classical recipe the paper's introduction criticizes: pick a
//! weight vector from a textbook scheme, scalarize the normalized cost
//! vector, and optimize. We give these baselines the *same* zero-jitter
//! scheduler as PaMO (Algorithm 1) so the comparison isolates the
//! preference-modeling question, and solve the discrete configuration
//! problem with coordinate descent from several starts.

use crate::discrete::{coordinate_descent, DiscreteSpace};
use eva_stats::weights;
use eva_workload::{Scenario, VideoConfig};

use crate::measure::Decision;

/// Which textbook weight scheme to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixedWeightScheme {
    /// Equal weights over the five objectives.
    Equal,
    /// Rank-Order-Centroid weights with the paper's objective order
    /// (latency, accuracy, network, computation, energy) as the ranking.
    RankOrderCentroid,
    /// Rank-Sum weights, same ranking.
    RankSum,
}

/// A fixed-weight scalarizing scheduler.
#[derive(Debug, Clone)]
pub struct FixedWeight {
    scheme: FixedWeightScheme,
    /// Coordinate-descent sweeps.
    max_sweeps: usize,
}

impl FixedWeight {
    /// Build for a scheme.
    pub fn new(scheme: FixedWeightScheme) -> Self {
        FixedWeight {
            scheme,
            max_sweeps: 6,
        }
    }

    /// The weight vector this scheme induces (length 5, sums to 1).
    pub(crate) fn weights(&self) -> Vec<f64> {
        match self.scheme {
            FixedWeightScheme::Equal => weights::equal(5),
            FixedWeightScheme::RankOrderCentroid => weights::rank_order_centroid(5),
            FixedWeightScheme::RankSum => weights::rank_sum(5),
        }
    }

    /// Decide configurations (placement delegated to Algorithm 1 inside
    /// `Scenario::evaluate`); returns the per-camera decision with the
    /// Algorithm-1 placement flattened back onto source streams.
    pub fn decide(&self, scenario: &Scenario) -> Decision {
        let space = scenario.config_space();
        let n = scenario.n_videos();
        let w = self.weights();

        // Normalization bounds over the *feasible* range: use the
        // per-objective extremes of single-stream outcomes scaled by n.
        let norm = scenario.cost_bounds();

        // Knob space: per camera, a flat index into the config grid.
        let dspace =
            DiscreteSpace::new(vec![
                (0..space.len()).map(|i| i as f64).collect::<Vec<f64>>();
                n
            ]);

        let objective = |x: &[f64]| -> f64 {
            let configs: Vec<VideoConfig> = x.iter().map(|&i| space.at(i as usize)).collect();
            match scenario.evaluate(&configs) {
                Ok(so) => {
                    let cost = normalized_cost(&so.outcome.to_cost_vec(), &norm);
                    cost.iter().zip(&w).map(|(&c, &wi)| c * wi).sum()
                }
                Err(_) => f64::INFINITY, // infeasible for zero-jitter
            }
        };

        // Start from the cheapest config (always feasible if anything is).
        let start = vec![0usize; n];
        let (best_idx, _) = coordinate_descent(&dspace, objective, &start, self.max_sweeps);
        let configs: Vec<VideoConfig> = best_idx.iter().map(|&i| space.at(i)).collect();

        // Flatten Algorithm-1 placement to per-source servers (parts of a
        // split stream land on possibly different servers; report part 0).
        let server_of = match scenario.schedule(&configs) {
            Ok(assignment) => (0..n)
                .map(|src| {
                    assignment
                        .streams
                        .iter()
                        .position(|s| s.id.source == src)
                        .map(|idx| assignment.server_of[idx])
                        .unwrap_or(0)
                })
                .collect(),
            Err(_) => vec![0; n],
        };
        Decision { configs, server_of }
    }
}

fn normalized_cost(cost: &[f64], bounds: &[(f64, f64)]) -> Vec<f64> {
    cost.iter()
        .zip(bounds)
        .map(|(&c, &(lo, hi))| {
            if hi > lo {
                ((c - lo) / (hi - lo)).clamp(0.0, 1.0)
            } else {
                0.5
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_decision;

    fn scenario() -> Scenario {
        Scenario::uniform(4, 3, 20e6, 17)
    }

    #[test]
    fn all_schemes_produce_feasible_decisions() {
        let sc = scenario();
        for scheme in [
            FixedWeightScheme::Equal,
            FixedWeightScheme::RankOrderCentroid,
            FixedWeightScheme::RankSum,
        ] {
            let d = FixedWeight::new(scheme).decide(&sc);
            assert_eq!(d.configs.len(), 4);
            // The chosen joint config must be zero-jitter schedulable.
            assert!(sc.evaluate(&d.configs).is_ok(), "{scheme:?}");
        }
    }

    #[test]
    fn weights_sum_to_one() {
        for scheme in [
            FixedWeightScheme::Equal,
            FixedWeightScheme::RankOrderCentroid,
            FixedWeightScheme::RankSum,
        ] {
            let w = FixedWeight::new(scheme).weights();
            assert_eq!(w.len(), 5);
            assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn equal_scheme_improves_over_floor_config() {
        let sc = scenario();
        let d = FixedWeight::new(FixedWeightScheme::Equal).decide(&sc);
        let floor = Decision {
            configs: vec![VideoConfig::new(360.0, 1.0); 4],
            server_of: d.server_of.clone(),
        };
        let got = measure_decision(&sc, &d);
        let base = measure_decision(&sc, &floor);
        // The optimizer should at least buy some accuracy over the floor.
        assert!(got.accuracy >= base.accuracy);
    }
}
