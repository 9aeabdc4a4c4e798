//! Regression-quality metrics and normalization.
//!
//! The paper evaluates outcome models with the coefficient of
//! determination `R² = 1 - Σ(y-ŷ)²/Σ(y-ȳ)²` (Sec. 5.3, Fig. 8) and
//! normalizes outcome vectors to \[0,1\] before computing benefit
//! (Sec. 2.3, Fig. 3(b)).

/// Coefficient of determination. Returns `-inf..=1`; 1 is a perfect fit.
/// If the targets are constant, returns 1.0 when predictions match them
/// exactly and 0.0 otherwise (the usual degenerate-case convention).
pub fn r_squared(y_true: &[f64], y_pred: &[f64]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len(), "r_squared: length mismatch");
    assert!(!y_true.is_empty(), "r_squared: empty input");
    let mean: f64 = y_true.iter().sum::<f64>() / y_true.len() as f64;
    let ss_res: f64 = y_true
        .iter()
        .zip(y_pred)
        .map(|(&t, &p)| (t - p) * (t - p))
        .sum();
    let ss_tot: f64 = y_true.iter().map(|&t| (t - mean) * (t - mean)).sum();
    if ss_tot == 0.0 {
        return if ss_res == 0.0 { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

/// Per-dimension min-max normalizer mapping observed ranges onto \[0,1\].
///
/// Fitted once over a reference set (e.g. the whole feasible outcome
/// space), then applied to any vector. Degenerate dimensions (min == max)
/// map to 0.5 so they carry no preference signal.
#[derive(Debug, Clone)]
pub struct MinMaxNormalizer {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl MinMaxNormalizer {
    /// Fit from a set of vectors (rows). Panics on empty input or ragged rows.
    #[cfg(test)]
    pub(crate) fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "MinMaxNormalizer::fit: empty input");
        let dim = rows[0].len();
        let mut mins = vec![f64::INFINITY; dim];
        let mut maxs = vec![f64::NEG_INFINITY; dim];
        for row in rows {
            assert_eq!(row.len(), dim, "MinMaxNormalizer::fit: ragged rows");
            for (d, &v) in row.iter().enumerate() {
                mins[d] = mins[d].min(v);
                maxs[d] = maxs[d].max(v);
            }
        }
        MinMaxNormalizer { mins, maxs }
    }

    /// Construct directly from known bounds.
    pub fn from_bounds(mins: Vec<f64>, maxs: Vec<f64>) -> Self {
        assert_eq!(mins.len(), maxs.len(), "from_bounds: length mismatch");
        MinMaxNormalizer { mins, maxs }
    }

    /// Dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.mins.len()
    }

    /// Normalize a vector into \[0,1\]^dim (values outside the fitted range
    /// are clamped — new observations can slightly exceed profiled bounds).
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "transform: dim mismatch");
        x.iter()
            .enumerate()
            .map(|(d, &v)| {
                let span = self.maxs[d] - self.mins[d];
                if span <= 0.0 {
                    0.5
                } else {
                    ((v - self.mins[d]) / span).clamp(0.0, 1.0)
                }
            })
            .collect()
    }

    /// Map a normalized vector back to original units.
    #[cfg(test)]
    pub(crate) fn inverse(&self, u: &[f64]) -> Vec<f64> {
        assert_eq!(u.len(), self.dim(), "inverse: dim mismatch");
        u.iter()
            .enumerate()
            .map(|(d, &v)| {
                let span = self.maxs[d] - self.mins[d];
                if span <= 0.0 {
                    self.mins[d]
                } else {
                    self.mins[d] + v * span
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r2_perfect_and_mean_baseline() {
        let y = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(r_squared(&y, &y), 1.0);
        let mean_pred = [2.5; 4];
        assert!(r_squared(&y, &mean_pred).abs() < 1e-12);
    }

    #[test]
    fn r2_can_be_negative() {
        let y = [1.0, 2.0, 3.0];
        let bad = [3.0, 2.0, 1.0];
        assert!(r_squared(&y, &bad) < 0.0);
    }

    #[test]
    fn r2_constant_targets() {
        assert_eq!(r_squared(&[2.0, 2.0], &[2.0, 2.0]), 1.0);
        assert_eq!(r_squared(&[2.0, 2.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn normalizer_roundtrip() {
        let rows = vec![
            vec![0.0, 10.0, -5.0],
            vec![2.0, 20.0, 5.0],
            vec![1.0, 15.0, 0.0],
        ];
        let nm = MinMaxNormalizer::fit(&rows);
        assert_eq!(nm.transform(&[0.0, 10.0, -5.0]), vec![0.0, 0.0, 0.0]);
        assert_eq!(nm.transform(&[2.0, 20.0, 5.0]), vec![1.0, 1.0, 1.0]);
        let x = [1.5, 12.0, 2.0];
        let back = nm.inverse(&nm.transform(&x));
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn normalizer_clamps_out_of_range() {
        let nm = MinMaxNormalizer::from_bounds(vec![0.0], vec![1.0]);
        assert_eq!(nm.transform(&[2.0]), vec![1.0]);
        assert_eq!(nm.transform(&[-1.0]), vec![0.0]);
    }

    #[test]
    fn normalizer_degenerate_dim_maps_to_half() {
        let nm = MinMaxNormalizer::fit(&[vec![3.0], vec![3.0]]);
        assert_eq!(nm.transform(&[3.0]), vec![0.5]);
        assert_eq!(nm.inverse(&[0.7]), vec![3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn normalizer_rejects_ragged() {
        let _ = MinMaxNormalizer::fit(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
