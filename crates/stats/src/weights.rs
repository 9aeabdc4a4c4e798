//! Classical fixed-weight schemes for multi-objective scalarization.
//!
//! The paper (Sec. 1, Sec. 6) contrasts preference *learning* against the
//! standard weight definitions from the multi-objective literature
//! (Gunantara 2018): Equal weights, Rank-Order-Centroid (ROC) and
//! Rank-Sum (RS), the fixed-weight baselines of `ext_fixed_weights`.

/// Equal weights: `w_i = 1/k`.
pub fn equal(k: usize) -> Vec<f64> {
    assert!(k > 0, "equal: k must be positive");
    vec![1.0 / k as f64; k]
}

/// Rank-Order-Centroid weights for objectives ranked `1..=k` (rank 1 is
/// most important): `w_i = (1/k) * sum_{j=i}^{k} 1/j`.
pub fn rank_order_centroid(k: usize) -> Vec<f64> {
    assert!(k > 0, "rank_order_centroid: k must be positive");
    (1..=k)
        .map(|i| (i..=k).map(|j| 1.0 / j as f64).sum::<f64>() / k as f64)
        .collect()
}

/// Rank-Sum weights: `w_i = 2(k + 1 - i) / (k (k + 1))`.
pub fn rank_sum(k: usize) -> Vec<f64> {
    assert!(k > 0, "rank_sum: k must be positive");
    let denom = (k * (k + 1)) as f64;
    (1..=k).map(|i| 2.0 * (k + 1 - i) as f64 / denom).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sums_to_one(w: &[f64]) -> bool {
        (w.iter().sum::<f64>() - 1.0).abs() < 1e-12
    }

    #[test]
    fn equal_weights() {
        let w = equal(5);
        assert!(sums_to_one(&w));
        assert!(w.iter().all(|&x| (x - 0.2).abs() < 1e-15));
    }

    #[test]
    fn roc_known_values_k3() {
        // k=3: w1 = (1 + 1/2 + 1/3)/3, w2 = (1/2 + 1/3)/3, w3 = (1/3)/3
        let w = rank_order_centroid(3);
        assert!((w[0] - 11.0 / 18.0).abs() < 1e-12);
        assert!((w[1] - 5.0 / 18.0).abs() < 1e-12);
        assert!((w[2] - 2.0 / 18.0).abs() < 1e-12);
        assert!(sums_to_one(&w));
    }

    #[test]
    fn rank_sum_known_values_k4() {
        // k=4: weights 8/20, 6/20, 4/20, 2/20
        let w = rank_sum(4);
        assert_eq!(w, vec![0.4, 0.3, 0.2, 0.1]);
        assert!(sums_to_one(&w));
    }

    #[test]
    fn weights_decreasing_in_rank() {
        for k in 1..8 {
            for w in [rank_order_centroid(k), rank_sum(k)] {
                assert!(sums_to_one(&w));
                assert!(w.windows(2).all(|p| p[0] >= p[1]), "not decreasing: {w:?}");
            }
        }
    }
}
