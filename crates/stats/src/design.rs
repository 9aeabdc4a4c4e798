//! Space-filling experimental designs on the unit hypercube.
//!
//! Bayesian optimization warm-starts (Algorithm 2, line 2: "Initialize
//! the configuration set X") want stratified coverage of the
//! configuration space: [`latin_hypercube`] draws one point per stratum
//! in every coordinate.

use rand::Rng;

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
}
