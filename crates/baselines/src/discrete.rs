//! Local search over finite Cartesian product spaces.
//!
//! The EVA configuration space is a product of small discrete knob sets
//! (per-stream resolution and frame-rate choices). The fixed-weight
//! scalarizers ([`crate::fixed`]) search it by coordinate descent, and
//! the brute-force oracle in the tests enumerates it.

/// A finite product space: dimension `d` takes values `levels[d]`.
#[derive(Debug, Clone)]
pub(crate) struct DiscreteSpace {
    levels: Vec<Vec<f64>>,
}

impl DiscreteSpace {
    /// Build from per-dimension level lists. Panics if any dimension is empty.
    pub(crate) fn new(levels: Vec<Vec<f64>>) -> Self {
        assert!(
            levels.iter().all(|l| !l.is_empty()),
            "DiscreteSpace: empty dimension"
        );
        DiscreteSpace { levels }
    }

    /// Number of dimensions.
    pub(crate) fn dim(&self) -> usize {
        self.levels.len()
    }

    /// Levels available in dimension `d`.
    pub(crate) fn levels(&self, d: usize) -> &[f64] {
        &self.levels[d]
    }

    /// Total number of points (saturating).
    #[cfg(test)]
    pub(crate) fn size(&self) -> usize {
        self.levels
            .iter()
            .fold(1usize, |acc, l| acc.saturating_mul(l.len()))
    }

    /// Decode a mixed-radix index vector into level values.
    pub(crate) fn decode(&self, idx: &[usize]) -> Vec<f64> {
        assert_eq!(idx.len(), self.dim(), "decode: dim mismatch");
        idx.iter()
            .enumerate()
            .map(|(d, &i)| self.levels[d][i])
            .collect()
    }

    /// Iterate over every point in the space (row-major). Intended for
    /// test oracles on small spaces; check [`DiscreteSpace::size`] first.
    #[cfg(test)]
    pub(crate) fn iter_points(&self) -> impl Iterator<Item = Vec<f64>> + '_ {
        let dims: Vec<usize> = self.levels.iter().map(|l| l.len()).collect();
        let total = self.size();
        (0..total).map(move |mut flat| {
            let mut idx = vec![0usize; dims.len()];
            for d in (0..dims.len()).rev() {
                idx[d] = flat % dims[d];
                flat /= dims[d];
            }
            self.decode(&idx)
        })
    }

    /// Snap an arbitrary point to the nearest grid point, per dimension.
    #[cfg(test)]
    pub(crate) fn snap(&self, x: &[f64]) -> Vec<usize> {
        assert_eq!(x.len(), self.dim(), "snap: dim mismatch");
        x.iter()
            .enumerate()
            .map(|(d, &v)| {
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (i, &lv) in self.levels[d].iter().enumerate() {
                    let dist = (lv - v).abs();
                    if dist < best_d {
                        best_d = dist;
                        best = i;
                    }
                }
                best
            })
            .collect()
    }
}

/// Cyclic coordinate descent: sweep dimensions, exhaustively trying every
/// level of one dimension with the rest fixed, until a full sweep makes
/// no improvement or `max_sweeps` is hit. Returns `(index_vector, value)`.
///
/// This is exactly the "block coordinate descent" structure of FACT
/// (Liu et al., INFOCOM'18) restricted to per-stream knobs.
pub(crate) fn coordinate_descent(
    space: &DiscreteSpace,
    mut f: impl FnMut(&[f64]) -> f64,
    start: &[usize],
    max_sweeps: usize,
) -> (Vec<usize>, f64) {
    assert_eq!(start.len(), space.dim(), "coordinate_descent: dim mismatch");
    let mut idx = start.to_vec();
    let mut best = f(&space.decode(&idx));
    for _ in 0..max_sweeps {
        let mut improved = false;
        for d in 0..space.dim() {
            let original = idx[d];
            let mut best_level = original;
            for i in 0..space.levels(d).len() {
                if i == original {
                    continue;
                }
                idx[d] = i;
                let v = f(&space.decode(&idx));
                if v < best {
                    best = v;
                    best_level = i;
                    improved = true;
                }
            }
            idx[d] = best_level;
        }
        if !improved {
            break;
        }
    }
    (idx, best)
}

/// Exhaustive minimization over the whole space (test oracle / tiny spaces).
#[cfg(test)]
pub(crate) fn exhaustive_best(
    space: &DiscreteSpace,
    mut f: impl FnMut(&[f64]) -> f64,
) -> (Vec<f64>, f64) {
    let mut best_x = None;
    let mut best_v = f64::INFINITY;
    for x in space.iter_points() {
        let v = f(&x);
        if v < best_v {
            best_v = v;
            best_x = Some(x);
        }
    }
    // An empty space yields the empty point at +inf rather than a panic.
    (best_x.unwrap_or_default(), best_v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_2d() -> DiscreteSpace {
        DiscreteSpace::new(vec![vec![0.0, 1.0, 2.0, 3.0], vec![-1.0, 0.0, 1.0]])
    }

    #[test]
    fn size_and_decode() {
        let s = grid_2d();
        assert_eq!(s.size(), 12);
        assert_eq!(s.decode(&[2, 0]), vec![2.0, -1.0]);
        assert_eq!(s.dim(), 2);
    }

    #[test]
    fn iter_visits_every_point_once() {
        let s = grid_2d();
        let pts: Vec<Vec<f64>> = s.iter_points().collect();
        assert_eq!(pts.len(), 12);
        let mut keys: Vec<String> = pts.iter().map(|p| format!("{p:?}")).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 12);
    }

    #[test]
    fn snap_picks_nearest() {
        let s = grid_2d();
        assert_eq!(s.snap(&[1.4, 0.6]), vec![1, 2]);
        assert_eq!(s.snap(&[100.0, -100.0]), vec![3, 0]);
    }

    #[test]
    fn coordinate_descent_reaches_separable_optimum() {
        let s = grid_2d();
        // Separable objective: optimum at (3.0, 1.0).
        let f = |x: &[f64]| (x[0] - 3.0).abs() + (x[1] - 1.0).abs();
        let (idx, v) = coordinate_descent(&s, f, &[0, 0], 10);
        assert_eq!(s.decode(&idx), vec![3.0, 1.0]);
        assert_eq!(v, 0.0);
    }

    #[test]
    fn coordinate_descent_matches_exhaustive_on_convex() {
        let s = DiscreteSpace::new(vec![
            (0..6).map(|i| i as f64).collect(),
            (0..6).map(|i| i as f64).collect(),
            (0..6).map(|i| i as f64).collect(),
        ]);
        let f = |x: &[f64]| {
            (x[0] - 2.0).powi(2)
                + (x[1] - 4.0).powi(2)
                + (x[2] - 1.0).powi(2)
                + 0.1 * (x[0] - 2.0) * (x[1] - 4.0)
        };
        let (idx, v_cd) = coordinate_descent(&s, f, &[0, 0, 0], 20);
        let (_, v_ex) = exhaustive_best(&s, f);
        assert!(
            (v_cd - v_ex).abs() < 1e-12,
            "cd {v_cd} vs exhaustive {v_ex}"
        );
        assert_eq!(s.decode(&idx), vec![2.0, 4.0, 1.0]);
    }

    #[test]
    fn coordinate_descent_terminates_on_plateau() {
        let s = grid_2d();
        let mut count = 0usize;
        let (_, v) = coordinate_descent(
            &s,
            |_| {
                count += 1;
                1.0
            },
            &[1, 1],
            100,
        );
        assert_eq!(v, 1.0);
        // One initial eval + a single sweep (no improvement) and stop.
        assert!(count <= 1 + (4 - 1) + (3 - 1) + 1, "count = {count}");
    }

    #[test]
    #[should_panic(expected = "empty dimension")]
    fn rejects_empty_dimension() {
        let _ = DiscreteSpace::new(vec![vec![1.0], vec![]]);
    }
}
