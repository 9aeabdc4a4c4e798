//! Seeded RNG plumbing and Gaussian sampling.
//!
//! Every stochastic component in the reproduction takes an explicit seed
//! so that experiments and tests are replayable. We deliberately use
//! `StdRng` (a seedable PRNG with a stable algorithm within a `rand`
//! major version) rather than `thread_rng`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Create a deterministically seeded RNG.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derive a child seed from a parent seed and a stream index, so parallel
/// replications get decorrelated but reproducible streams. SplitMix64
/// finalizer — a well-tested bit mixer.
pub fn child_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One standard-normal draw via the Box-Muller transform.
///
/// Marsaglia's polar variant would avoid the trig calls, but sampling is
/// nowhere near hot enough here to matter and Box-Muller consumes a fixed
/// number of uniforms, which keeps replay behaviour predictable.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard against u1 == 0 (ln(0) = -inf).
    let u1: f64 = loop {
        let u: f64 = rng.gen();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A vector of `n` i.i.d. standard-normal draws.
pub fn standard_normal_vec<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<f64> {
    (0..n).map(|_| standard_normal(rng)).collect()
}

/// Sample `k` distinct indices from `0..n` (partial Fisher-Yates).
pub fn sample_indices<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "sample_indices: k = {k} > n = {n}");
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_reproducible() {
        let a: Vec<f64> = standard_normal_vec(&mut seeded(42), 10);
        let b: Vec<f64> = standard_normal_vec(&mut seeded(42), 10);
        assert_eq!(a, b);
        let c: Vec<f64> = standard_normal_vec(&mut seeded(43), 10);
        assert_ne!(a, c);
    }

    #[test]
    fn child_seeds_differ_per_stream() {
        let s0 = child_seed(7, 0);
        let s1 = child_seed(7, 1);
        let s2 = child_seed(8, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
        // Deterministic.
        assert_eq!(child_seed(7, 0), s0);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = seeded(1);
        let n = 200_000;
        let xs = standard_normal_vec(&mut rng, n);
        let mean: f64 = xs.iter().sum::<f64>() / n as f64;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.02, "var = {var}");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = seeded(3);
        for _ in 0..50 {
            let idx = sample_indices(&mut rng, 20, 7);
            assert_eq!(idx.len(), 7);
            let mut sorted = idx.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 7, "duplicates in {idx:?}");
            assert!(idx.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn sample_all_indices_is_permutation() {
        let mut rng = seeded(4);
        let mut idx = sample_indices(&mut rng, 8, 8);
        idx.sort_unstable();
        assert_eq!(idx, (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "k = 5 > n = 3")]
    fn sample_indices_rejects_oversample() {
        let _ = sample_indices(&mut seeded(0), 3, 5);
    }
}
