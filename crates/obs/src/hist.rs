//! Mergeable log-linear histograms with quantile queries.
//!
//! The bucket layout is fixed and shared by every instance: each power
//! of two (octave) is subdivided into [`SUBBUCKETS`] linear buckets, so
//! relative resolution is bounded by `1/SUBBUCKETS` (≈ 6.25%) across
//! the whole dynamic range `[2^MIN_EXP, 2^MAX_EXP)` — wide enough for
//! nanosecond spans and multi-hour totals alike. A fixed layout makes
//! [`LogLinearHistogram::merge`] a plain element-wise count addition:
//! merging is associative and order-independent on everything except
//! the floating-point `sum`, which is order-independent only up to
//! rounding (documented below).

/// Linear subdivisions per octave. Relative bucket width ≤ 1/16.
pub const SUBBUCKETS: usize = 16;
/// Smallest representable exponent: `2^-40 ≈ 9.1e-13`.
pub(crate) const MIN_EXP: i32 = -40;
/// Largest representable exponent: `2^40 ≈ 1.1e12`.
pub(crate) const MAX_EXP: i32 = 40;
/// Total bucket count of the fixed layout.
pub(crate) const N_BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) * SUBBUCKETS;

/// Bucket index of a strictly positive finite value (values outside the
/// dynamic range clamp to the first/last bucket).
fn bucket_index(v: f64) -> usize {
    debug_assert!(v > 0.0 && v.is_finite());
    // Exact floor(log2(v)) for normal doubles via the exponent bits;
    // subnormals land below MIN_EXP and clamp to bucket 0 anyway.
    let e = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    if e < MIN_EXP {
        return 0;
    }
    if e >= MAX_EXP {
        return N_BUCKETS - 1;
    }
    // v / 2^e ∈ [1, 2): linear position within the octave.
    let frac = v / pow2(e);
    let sub = (((frac - 1.0) * SUBBUCKETS as f64) as usize).min(SUBBUCKETS - 1);
    ((e - MIN_EXP) as usize) * SUBBUCKETS + sub
}

/// `2^e` for the layout's exponent range (exact for |e| ≤ 1023).
fn pow2(e: i32) -> f64 {
    f64::from_bits((((e + 1023) as u64) & 0x7ff) << 52)
}

/// Lower bound of bucket `i`.
pub(crate) fn bucket_lo(i: usize) -> f64 {
    let e = MIN_EXP + (i / SUBBUCKETS) as i32;
    let sub = i % SUBBUCKETS;
    pow2(e) * (1.0 + sub as f64 / SUBBUCKETS as f64)
}

/// Upper bound (exclusive) of bucket `i`.
pub(crate) fn bucket_hi(i: usize) -> f64 {
    let e = MIN_EXP + (i / SUBBUCKETS) as i32;
    let sub = i % SUBBUCKETS;
    pow2(e) * (1.0 + (sub + 1) as f64 / SUBBUCKETS as f64)
}

/// A fixed-layout log-linear histogram.
///
/// Records arbitrary finite `f64`s: strictly positive values go to
/// log-linear buckets; zeros and negatives are counted in a dedicated
/// under-bucket (durations and counts never go there, but the type does
/// not assume its inputs are durations). Non-finite values are dropped
/// and tallied separately. The backing bucket vector is allocated
/// lazily on the first positive record, so empty histograms are cheap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogLinearHistogram {
    counts: Vec<u64>,
    zero_or_less: u64,
    non_finite: u64,
    count: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl LogLinearHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value. Non-finite values are dropped (and counted in
    /// [`LogLinearHistogram::non_finite`]).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite += 1;
            return;
        }
        if v > 0.0 {
            if self.counts.is_empty() {
                self.counts = vec![0; N_BUCKETS];
            }
            self.counts[bucket_index(v)] += 1;
        } else {
            self.zero_or_less += 1;
        }
        self.count += 1;
        self.sum += v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Number of recorded (finite) values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Values recorded at or below zero.
    pub fn zero_or_less(&self) -> u64 {
        self.zero_or_less
    }

    /// Non-finite values that were dropped.
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// Sum of recorded values. Merge order perturbs the last few bits
    /// (floating-point addition is not associative); counts, min/max
    /// and quantiles are exactly merge-order-independent.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded values (`None` when empty).
    pub(crate) fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest recorded value (exact, not bucketed).
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Estimate the `q`-quantile (`q ∈ [0, 1]`, clamped). Returns the
    /// geometric midpoint of the bucket holding the order statistic of
    /// rank `⌈q·n⌉`, clamped to the exact `[min, max]`; the estimate is
    /// therefore always within one bucket width (relative error ≤
    /// `1/SUBBUCKETS`) of the exact quantile. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let (min, max) = match (self.min, self.max) {
            (Some(lo), Some(hi)) => (lo, hi),
            _ => return None, // unreachable: count > 0 implies both set
        };
        let mut seen = self.zero_or_less;
        if rank <= seen {
            // The order statistic is one of the zero-or-less values;
            // min is exact for the smallest and bounds the rest below 0.
            return Some(min.min(0.0));
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank <= seen {
                let est = (bucket_lo(i) * bucket_hi(i)).sqrt();
                return Some(est.clamp(min.max(bucket_lo(i)), max.min(bucket_hi(i))));
            }
        }
        Some(max)
    }

    /// Merge another histogram into this one. Counts add element-wise
    /// (the layout is fixed), min/max take the extremes, sums add.
    pub fn merge(&mut self, other: &LogLinearHistogram) {
        if other.count == 0 && other.non_finite == 0 {
            return;
        }
        if !other.counts.is_empty() {
            if self.counts.is_empty() {
                self.counts = other.counts.clone();
            } else {
                for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                    *a += b;
                }
            }
        }
        self.zero_or_less += other.zero_or_less;
        self.non_finite += other.non_finite;
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Occupied `(bucket_lo, bucket_hi, count)` triples, low to high —
    /// the machine-readable export of the distribution shape.
    pub fn occupied_buckets(&self) -> Vec<(f64, f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lo(i), bucket_hi(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = LogLinearHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        let mut h = LogLinearHistogram::new();
        h.record(0.125);
        for q in [0.0, 0.5, 1.0] {
            let e = h.quantile(q).unwrap();
            assert!((e - 0.125).abs() < 1e-12, "q={q}: {e}");
        }
        assert_eq!(h.min(), Some(0.125));
        assert_eq!(h.max(), Some(0.125));
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let mut h = LogLinearHistogram::new();
        let vals: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-3).collect();
        for &v in &vals {
            h.record(v);
        }
        for q in [0.01f64, 0.25, 0.5, 0.9, 0.99] {
            let exact = vals[((q * 1000.0).ceil() as usize).clamp(1, 1000) - 1];
            let est = h.quantile(q).unwrap();
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= 1.0 / SUBBUCKETS as f64,
                "q={q}: est {est} vs {exact}"
            );
        }
    }

    #[test]
    fn zero_and_negative_values_are_tracked() {
        let mut h = LogLinearHistogram::new();
        h.record(0.0);
        h.record(-2.0);
        h.record(5.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.zero_or_less(), 2);
        assert_eq!(h.min(), Some(-2.0));
        // The 1/3-quantile sits in the zero-or-less mass.
        assert_eq!(h.quantile(0.3), Some(-2.0));
    }

    #[test]
    fn non_finite_values_are_dropped() {
        let mut h = LogLinearHistogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(1.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.non_finite(), 2);
        assert_eq!(h.sum(), 1.0);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LogLinearHistogram::new();
        let mut b = LogLinearHistogram::new();
        a.record(1.0);
        a.record(2.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(100.0));
        assert!((a.sum() - 103.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_bounds_bracket_their_members() {
        for v in [1e-9, 3.7e-6, 0.015, 1.0, 42.0, 9.9e9] {
            let i = bucket_index(v);
            assert!(bucket_lo(i) <= v && v < bucket_hi(i), "v={v} bucket {i}");
        }
    }

    #[test]
    fn out_of_range_values_clamp() {
        let mut h = LogLinearHistogram::new();
        h.record(1e-20); // below 2^-40
        h.record(1e15); // above 2^40
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(1e-20));
        assert_eq!(h.max(), Some(1e15));
    }
}
