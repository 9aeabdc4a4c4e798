//! Space-filling experimental designs on the unit hypercube.
//!
//! Bayesian optimization warm-starts (Algorithm 2, line 2: "Initialize
//! the configuration set X") want low-discrepancy coverage of the
//! configuration space. We provide:
//!
//! * [`latin_hypercube`] — stratified random design (the default),
//! * [`halton`] — deterministic low-discrepancy sequence with optional
//!   digit scrambling,
//! * [`sobol`] — a direction-number Sobol sequence for up to
//!   [`SOBOL_MAX_DIM`] dimensions (enough for the (r, s) per-stream knobs
//!   the paper searches over after placement is delegated to Algorithm 1).

use rand::Rng;

/// First primes, used as Halton bases.
const PRIMES: [u32; 16] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53];

/// Maximum dimension supported by [`sobol`].
pub const SOBOL_MAX_DIM: usize = 10;

/// Latin hypercube sample: `n` points in `[0,1]^dim`, one per stratum in
/// every coordinate.
pub fn latin_hypercube<R: Rng + ?Sized>(rng: &mut R, n: usize, dim: usize) -> Vec<Vec<f64>> {
    let mut points = vec![vec![0.0; dim]; n];
    let mut perm: Vec<usize> = (0..n).collect();
    for d in 0..dim {
        // Fresh permutation of strata per dimension.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        for (i, point) in points.iter_mut().enumerate() {
            let u: f64 = rng.gen();
            point[d] = (perm[i] as f64 + u) / n as f64;
        }
    }
    points
}

/// Radical-inverse of `index` in base `b`, with optional permutation
/// scrambling of digits (a small-state variant of Owen scrambling).
fn radical_inverse(mut index: u64, base: u32, scramble: u64) -> f64 {
    let b = base as u64;
    let mut inv = 0.0;
    let mut frac = 1.0 / b as f64;
    let mut salt = scramble;
    while index > 0 {
        let mut digit = index % b;
        if scramble != 0 {
            // Per-digit pseudo-random permutation driven by the salt.
            digit = (digit + salt) % b;
            salt = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        }
        inv += digit as f64 * frac;
        index /= b;
        frac /= b as f64;
    }
    inv
}

/// Halton sequence: `n` points in `[0,1]^dim` starting at index 1.
/// `scramble = 0` gives the classic (unscrambled) sequence.
pub fn halton(n: usize, dim: usize, scramble: u64) -> Vec<Vec<f64>> {
    assert!(
        dim <= PRIMES.len(),
        "halton: dim = {dim} > {}",
        PRIMES.len()
    );
    (1..=n as u64)
        .map(|i| {
            (0..dim)
                .map(|d| {
                    let salt = if scramble == 0 {
                        0
                    } else {
                        scramble.wrapping_add(d as u64 + 1)
                    };
                    radical_inverse(i, PRIMES[d], salt)
                })
                .collect()
        })
        .collect()
}

/// Direction numbers for the first 10 Sobol dimensions (Joe & Kuo
/// new-joe-kuo-6 parameters: s = degree, a = coefficient, m = initial
/// direction integers). Dimension 0 is the van der Corput sequence.
const SOBOL_PARAMS: [(u32, u32, &[u32]); 9] = [
    (1, 0, &[1]),
    (2, 1, &[1, 3]),
    (3, 1, &[1, 3, 1]),
    (3, 2, &[1, 1, 1]),
    (4, 1, &[1, 1, 3, 3]),
    (4, 4, &[1, 3, 5, 13]),
    (5, 2, &[1, 1, 5, 5, 17]),
    (5, 4, &[1, 1, 5, 5, 5]),
    (5, 7, &[1, 1, 7, 11, 19]),
];

const SOBOL_BITS: usize = 31;

/// Sobol low-discrepancy sequence: `n` points in `[0,1]^dim`,
/// skipping the all-zeros point. Supports `dim <= SOBOL_MAX_DIM`.
pub fn sobol(n: usize, dim: usize) -> Vec<Vec<f64>> {
    assert!(dim <= SOBOL_MAX_DIM, "sobol: dim = {dim} > {SOBOL_MAX_DIM}");
    // Build direction numbers v[d][k] (k < SOBOL_BITS).
    let mut v = vec![[0u32; SOBOL_BITS]; dim];
    for (d, dirs) in v.iter_mut().enumerate() {
        if d == 0 {
            for (k, dir) in dirs.iter_mut().enumerate() {
                *dir = 1u32 << (SOBOL_BITS - 1 - k);
            }
            continue;
        }
        let (s, a, m) = SOBOL_PARAMS[d - 1];
        let s = s as usize;
        for k in 0..SOBOL_BITS {
            if k < s {
                dirs[k] = m[k] << (SOBOL_BITS - 1 - k);
            } else {
                let mut val = dirs[k - s] ^ (dirs[k - s] >> s);
                for j in 1..s {
                    if (a >> (s - 1 - j)) & 1 == 1 {
                        val ^= dirs[k - j];
                    }
                }
                dirs[k] = val;
            }
        }
    }
    // Gray-code generation.
    let mut x = vec![0u32; dim];
    let mut out = Vec::with_capacity(n);
    let scale = 1.0 / (1u64 << SOBOL_BITS) as f64;
    for i in 1..=(n as u64) {
        // Index of the lowest zero bit of i-1 == rightmost set bit change.
        let c = (i - 1).trailing_ones() as usize;
        let mut point = Vec::with_capacity(dim);
        for (xd, dirs) in x.iter_mut().zip(&v) {
            *xd ^= dirs[c];
            point.push(*xd as f64 * scale);
        }
        out.push(point);
    }
    out
}

/// Map a unit-cube point to a box `[lo_i, hi_i]^dim`.
pub fn scale_to_bounds(point: &[f64], bounds: &[(f64, f64)]) -> Vec<f64> {
    assert_eq!(point.len(), bounds.len(), "scale_to_bounds: dim mismatch");
    point
        .iter()
        .zip(bounds)
        .map(|(&u, &(lo, hi))| lo + u * (hi - lo))
        .collect()
}

/// Star discrepancy proxy: max over points of the gap between empirical
/// and volume measure on anchored boxes defined by the sample itself.
/// Exact star discrepancy is NP-hard; this one-sided estimate is enough
/// to sanity-check that designs are space-filling (tests only).
#[cfg(test)]
pub fn discrepancy_proxy(points: &[Vec<f64>]) -> f64 {
    let n = points.len();
    if n == 0 {
        return 1.0;
    }
    let dim = points[0].len();
    let mut worst: f64 = 0.0;
    for anchor in points {
        let volume: f64 = anchor.iter().product();
        let count = points
            .iter()
            .filter(|p| p.iter().zip(anchor).all(|(&pi, &ai)| pi <= ai))
            .count();
        worst = worst.max((count as f64 / n as f64 - volume).abs());
    }
    // Normalize slightly by dimension so thresholds transfer.
    worst / (dim as f64).sqrt().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn lhs_strata_are_hit_once_per_dim() {
        let n = 16;
        let pts = latin_hypercube(&mut seeded(5), n, 3);
        for d in 0..3 {
            let mut strata: Vec<usize> = pts.iter().map(|p| (p[d] * n as f64) as usize).collect();
            strata.sort_unstable();
            assert_eq!(strata, (0..n).collect::<Vec<_>>(), "dim {d}");
        }
    }

    #[test]
    fn lhs_in_unit_cube() {
        let pts = latin_hypercube(&mut seeded(6), 50, 4);
        assert!(pts.iter().flatten().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn halton_first_points_base2_base3() {
        let pts = halton(4, 2, 0);
        let want = [
            [0.5, 1.0 / 3.0],
            [0.25, 2.0 / 3.0],
            [0.75, 1.0 / 9.0],
            [0.125, 4.0 / 9.0],
        ];
        for (p, w) in pts.iter().zip(&want) {
            assert!((p[0] - w[0]).abs() < 1e-12 && (p[1] - w[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn halton_scrambling_changes_points_but_stays_in_cube() {
        let plain = halton(32, 3, 0);
        let scrambled = halton(32, 3, 99);
        assert_ne!(plain, scrambled);
        assert!(scrambled.iter().flatten().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn sobol_first_dimension_is_van_der_corput() {
        let pts = sobol(7, 1);
        let want = [0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125];
        for (p, w) in pts.iter().zip(&want) {
            assert!((p[0] - w).abs() < 1e-9, "{} vs {}", p[0], w);
        }
    }

    #[test]
    fn sobol_points_distinct_and_in_cube() {
        let pts = sobol(256, 5);
        assert!(pts.iter().flatten().all(|&x| (0.0..1.0).contains(&x)));
        let mut keys: Vec<String> = pts.iter().map(|p| format!("{p:?}")).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 256);
    }

    #[test]
    fn sobol_beats_random_on_discrepancy() {
        let n = 128;
        let s = discrepancy_proxy(&sobol(n, 2));
        // Average several random designs.
        let mut rng = seeded(7);
        let mut rand_total = 0.0;
        for _ in 0..5 {
            let pts: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.gen(), rng.gen()]).collect();
            rand_total += discrepancy_proxy(&pts);
        }
        assert!(
            s < rand_total / 5.0,
            "sobol {s} not better than random {}",
            rand_total / 5.0
        );
    }

    #[test]
    fn scale_to_bounds_maps_corners() {
        let bounds = [(10.0, 20.0), (-1.0, 1.0)];
        assert_eq!(scale_to_bounds(&[0.0, 0.0], &bounds), vec![10.0, -1.0]);
        assert_eq!(scale_to_bounds(&[1.0, 1.0], &bounds), vec![20.0, 1.0]);
        assert_eq!(scale_to_bounds(&[0.5, 0.5], &bounds), vec![15.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "sobol: dim")]
    fn sobol_rejects_high_dim() {
        let _ = sobol(4, SOBOL_MAX_DIM + 1);
    }
}
