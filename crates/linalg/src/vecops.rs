//! Small `&[f64]` helpers shared by the numeric crates.
//!
//! These are free functions over slices rather than a vector newtype: the
//! call sites (GP math, schedulers, simulators) all hold plain `Vec<f64>`
//! and a wrapper type would only add friction.

/// Dot product. Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    // Four-lane manual unroll: keeps independent accumulators so the
    // additions can be reassociated/vectorized despite FP non-associativity.
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0;
    for j in chunks * 4..a.len() {
        tail += a[j] * b[j];
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// [`dot`] of the concatenation `a0 ++ a1` with `b`, without building
/// it: the same four lanes over the same indices, so the result is
/// bit-identical to `dot(&[a0, a1].concat(), b)`. Panics if lengths
/// differ.
pub fn dot_concat(a0: &[f64], a1: &[f64], b: &[f64]) -> f64 {
    let n0 = a0.len();
    assert_eq!(n0 + a1.len(), b.len(), "dot_concat: length mismatch");
    let at = |j: usize| if j < n0 { a0[j] } else { a1[j - n0] };
    let chunks = b.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    // Chunks that lie wholly in `a0` skip the per-element split.
    let whole = (n0 / 4).min(chunks);
    for i in 0..whole {
        let j = i * 4;
        s0 += a0[j] * b[j];
        s1 += a0[j + 1] * b[j + 1];
        s2 += a0[j + 2] * b[j + 2];
        s3 += a0[j + 3] * b[j + 3];
    }
    for i in whole..chunks {
        let j = i * 4;
        s0 += at(j) * b[j];
        s1 += at(j + 1) * b[j + 1];
        s2 += at(j + 2) * b[j + 2];
        s3 += at(j + 3) * b[j + 3];
    }
    let mut tail = 0.0;
    for (j, &bj) in b.iter().enumerate().skip(chunks * 4) {
        tail += at(j) * bj;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// `y += alpha * x` in place.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean distance between two points.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Elementwise `a - b` into a new vector.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// Elementwise `a + b` into a new vector.
#[cfg(test)]
pub(crate) fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x + y).collect()
}

/// Scale a vector into a new vector.
#[cfg(test)]
pub(crate) fn scale(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|&x| x * s).collect()
}

/// Sum of all entries.
#[inline]
pub(crate) fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// Arithmetic mean (0.0 for an empty slice).
#[inline]
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        sum(a) / a.len() as f64
    }
}

/// Maximum entry; `NEG_INFINITY` for an empty slice.
#[inline]
#[cfg(test)]
pub(crate) fn max(a: &[f64]) -> f64 {
    a.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Minimum entry; `INFINITY` for an empty slice.
#[inline]
#[cfg(test)]
pub(crate) fn min(a: &[f64]) -> f64 {
    a.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Index of the maximum entry (first on ties); `None` when empty or all NaN.
pub fn argmax(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the minimum entry (first on ties); `None` when empty or all NaN.
#[cfg(test)]
pub(crate) fn argmin(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv <= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// L1 distance between two vectors.
#[inline]
pub fn l1_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "l1_dist: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| (x - y).abs()).sum()
}

/// Weighted L1 distance `sum_i w_i |a_i - b_i|` — the paper's Eq. 13 core.
#[inline]
#[cfg(test)]
pub(crate) fn weighted_l1_dist(a: &[f64], b: &[f64], w: &[f64]) -> f64 {
    assert!(
        a.len() == b.len() && a.len() == w.len(),
        "weighted_l1_dist: length mismatch"
    );
    a.iter()
        .zip(b)
        .zip(w)
        .map(|((&x, &y), &wi)| wi * (x - y).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive_on_odd_lengths() {
        for n in 0..17 {
            let a: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive).abs() < 1e-12, "n = {n}");
        }
    }

    #[test]
    fn dot_concat_is_bit_identical_to_dot_of_the_concatenation() {
        for n in 0..19 {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos() * 1e3).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64).sin() / 7.0).collect();
            let whole = dot(&a, &b);
            for split in 0..=n {
                let (a0, a1) = a.split_at(split);
                assert_eq!(
                    dot_concat(a0, a1, &b).to_bits(),
                    whole.to_bits(),
                    "{n}/{split}"
                );
            }
        }
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn norms_and_distances() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(l1_dist(&[1.0, -1.0], &[0.0, 1.0]), 3.0);
        assert_eq!(weighted_l1_dist(&[1.0, 0.0], &[0.0, 2.0], &[2.0, 0.5]), 3.0);
    }

    #[test]
    fn reductions() {
        let a = [2.0, -1.0, 5.0, 0.0];
        assert_eq!(sum(&a), 6.0);
        assert_eq!(mean(&a), 1.5);
        assert_eq!(max(&a), 5.0);
        assert_eq!(min(&a), -1.0);
        assert_eq!(argmax(&a), Some(2));
        assert_eq!(argmin(&a), Some(1));
    }

    #[test]
    fn arg_extrema_edge_cases() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmin(&[f64::NAN]), None);
        assert_eq!(argmax(&[f64::NAN, 1.0]), Some(1));
        // first index wins on ties
        assert_eq!(argmax(&[2.0, 2.0]), Some(0));
        assert_eq!(argmin(&[2.0, 2.0]), Some(0));
    }

    #[test]
    fn mean_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn elementwise_ops() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
        assert_eq!(scale(&[1.0, 2.0], -2.0), vec![-2.0, -4.0]);
    }
}
