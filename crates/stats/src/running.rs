//! Welford online moment accumulation.
//!
//! The discrete-event simulator streams per-frame latencies through this
//! accumulator instead of buffering them, keeping memory flat over long
//! simulated horizons.

/// Numerically stable running mean/variance/min/max.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Fresh, empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one observation in.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator (parallel reduction; Chan et al.).
    /// The merged mean equals the sequential one up to rounding; the
    /// count, min and max are exact.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[cfg(test)]
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 when fewer than 2 observations).
    #[cfg(test)]
    pub(crate) fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample (Bessel-corrected) variance.
    #[cfg(test)]
    pub(crate) fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    #[cfg(test)]
    pub(crate) fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observed value (`INFINITY` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed value (`NEG_INFINITY` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Max - min spread (0.0 when empty). The simulator uses this on
    /// per-stream latency to *measure* delay jitter.
    pub fn range(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max - self.min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_batch_formulas() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        for &x in &data {
            rs.push(x);
        }
        assert_eq!(rs.count(), 8);
        assert!((rs.mean() - 5.0).abs() < 1e-12);
        assert!((rs.variance() - 4.0).abs() < 1e-12);
        assert!((rs.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(rs.min(), 2.0);
        assert_eq!(rs.max(), 9.0);
        assert_eq!(rs.range(), 7.0);
    }

    #[test]
    fn empty_and_singleton_are_safe() {
        let rs = RunningStats::new();
        assert_eq!(rs.mean(), 0.0);
        assert_eq!(rs.variance(), 0.0);
        assert_eq!(rs.range(), 0.0);
        let mut one = RunningStats::new();
        one.push(3.0);
        assert_eq!(one.mean(), 3.0);
        assert_eq!(one.variance(), 0.0);
        assert_eq!(one.range(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut seq = RunningStats::new();
        for &x in &data {
            seq.push(x);
        }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &data[..37] {
            left.push(x);
        }
        for &x in &data[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), seq.count());
        assert!((left.mean() - seq.mean()).abs() < 1e-10);
        assert!((left.variance() - seq.variance()).abs() < 1e-10);
        assert_eq!(left.min(), seq.min());
        assert_eq!(left.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a.clone();
        a.merge(&RunningStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn stable_for_large_offsets() {
        // Classic catastrophic-cancellation scenario for naive sum-of-squares.
        let mut rs = RunningStats::new();
        for x in [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0] {
            rs.push(x);
        }
        assert!((rs.sample_variance() - 30.0).abs() < 1e-6);
    }
}
