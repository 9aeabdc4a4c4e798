//! Kuhn-Munkres (Hungarian) algorithm for minimum-cost assignment.
//!
//! Algorithm 1, line 20 maps stream groups onto servers by solving an
//! assignment problem minimizing total communication latency. That
//! problem's cost matrix is rank 1, so production code solves it by
//! [`crate::rank_pair`]; this general solver is the reference tests and
//! the `fig7_scale` exactness gate compare it against. This is the
//! O(n³) potentials formulation; it handles rectangular instances with
//! `rows <= cols` directly (each row gets a distinct column).

/// Solve min-cost assignment for a `rows x cols` cost matrix with
/// `rows <= cols`. Returns `(assignment, total_cost)` where
/// `assignment[r]` is the column given to row `r`.
///
/// ```
/// use eva_sched::reference::hungarian_min_cost;
/// // Two stream groups onto three servers: costs are transmission latencies.
/// let cost = vec![vec![0.8, 0.2, 0.5], vec![0.3, 0.1, 0.9]];
/// let (assignment, total) = hungarian_min_cost(&cost);
/// assert_eq!(assignment, vec![1, 0]); // group 0 -> server 1, group 1 -> server 0
/// assert!((total - 0.5).abs() < 1e-12);
/// ```
///
/// Costs may be any finite `f64`; `INFINITY` marks forbidden pairs
/// (the solver avoids them whenever a finite-cost perfect matching
/// exists).
///
/// # Panics
/// Panics if `rows > cols`, the matrix is ragged, or it is empty.
pub fn hungarian_min_cost(cost: &[Vec<f64>]) -> (Vec<usize>, f64) {
    let n = cost.len();
    assert!(n > 0, "hungarian: empty cost matrix");
    let m = cost[0].len();
    assert!(
        cost.iter().all(|row| row.len() == m),
        "hungarian: ragged cost matrix"
    );
    assert!(n <= m, "hungarian: rows {n} > cols {m}");

    // 1-indexed potentials formulation (e-maxx). p[j] = row matched to
    // column j (0 = none). way[j] = previous column on the alternating
    // path.
    let mut u = vec![0.0f64; n + 1];
    let mut v = vec![0.0f64; m + 1];
    let mut p = vec![0usize; m + 1];
    let mut way = vec![0usize; m + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![f64::INFINITY; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = f64::INFINITY;
            let mut j1 = 0usize;
            for j in 1..=m {
                if used[j] {
                    continue;
                }
                let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            debug_assert!(
                delta.is_finite(),
                "hungarian: no augmenting path (all remaining pairs forbidden)"
            );
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![usize::MAX; n];
    for j in 1..=m {
        if p[j] != 0 {
            assignment[p[j] - 1] = j - 1;
        }
    }
    let total = assignment
        .iter()
        .enumerate()
        .map(|(r, &c)| cost[r][c])
        .sum();
    (assignment, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force oracle over all permutations (small instances only).
    fn brute_force(cost: &[Vec<f64>]) -> f64 {
        let n = cost.len();
        let m = cost[0].len();
        let mut cols: Vec<usize> = (0..m).collect();
        let mut best = f64::INFINITY;
        permute(&mut cols, 0, &mut |perm| {
            let total: f64 = (0..n).map(|r| cost[r][perm[r]]).sum();
            if total < best {
                best = total;
            }
        });
        best
    }

    fn permute(items: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == items.len() {
            f(items);
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, f);
            items.swap(k, i);
        }
    }

    #[test]
    fn solves_classic_3x3() {
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let (assign, total) = hungarian_min_cost(&cost);
        assert_eq!(total, 5.0); // 1 + 2 + 2
        assert_eq!(assign, vec![1, 0, 2]);
    }

    #[test]
    fn assignment_is_a_partial_injection() {
        let cost = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![2.0, 4.0, 6.0, 8.0],
            vec![3.0, 6.0, 9.0, 12.0],
        ];
        let (assign, _) = hungarian_min_cost(&cost);
        let mut cols = assign.clone();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), 3, "columns reused: {assign:?}");
        assert!(assign.iter().all(|&c| c < 4));
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for trial in 0..30 {
            let n = rng.gen_range(1..=5);
            let m = rng.gen_range(n..=6);
            let cost: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..m).map(|_| rng.gen_range(0.0..10.0)).collect())
                .collect();
            let (_, total) = hungarian_min_cost(&cost);
            let best = brute_force(&cost);
            assert!(
                (total - best).abs() < 1e-9,
                "trial {trial}: hungarian {total} vs brute {best} on {cost:?}"
            );
        }
    }

    #[test]
    fn rectangular_uses_cheapest_columns() {
        // One row, four columns.
        let cost = vec![vec![5.0, 1.0, 7.0, 3.0]];
        let (assign, total) = hungarian_min_cost(&cost);
        assert_eq!(assign, vec![1]);
        assert_eq!(total, 1.0);
    }

    #[test]
    fn negative_costs_are_fine() {
        let cost = vec![vec![-5.0, 0.0], vec![0.0, -5.0]];
        let (assign, total) = hungarian_min_cost(&cost);
        assert_eq!(total, -10.0);
        assert_eq!(assign, vec![0, 1]);
    }

    #[test]
    fn forbidden_pairs_avoided_when_possible() {
        let inf = f64::INFINITY;
        let cost = vec![vec![inf, 1.0], vec![1.0, inf]];
        let (assign, total) = hungarian_min_cost(&cost);
        assert_eq!(assign, vec![1, 0]);
        assert_eq!(total, 2.0);
    }

    #[test]
    fn single_cell() {
        let (assign, total) = hungarian_min_cost(&[vec![42.0]]);
        assert_eq!(assign, vec![0]);
        assert_eq!(total, 42.0);
    }

    #[test]
    #[should_panic(expected = "rows 3 > cols 2")]
    fn rejects_more_rows_than_cols() {
        let _ = hungarian_min_cost(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
    }

    #[test]
    fn larger_instance_agrees_with_greedy_lower_bound() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 40;
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..100.0)).collect())
            .collect();
        let (assign, total) = hungarian_min_cost(&cost);
        // Lower bound: sum of per-row minima.
        let lb: f64 = cost
            .iter()
            .map(|r| r.iter().cloned().fold(f64::INFINITY, f64::min))
            .sum();
        assert!(total >= lb - 1e-9);
        // Upper bound: identity assignment.
        let ub: f64 = (0..n).map(|i| cost[i][i]).sum();
        assert!(total <= ub + 1e-9);
        let mut cols = assign.clone();
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols.len(), n);
    }

    #[test]
    fn rank_pairing_matches_hungarian_latency_at_scale() {
        let (streams, bits, uplinks) = crate::assign::tests::many_groups(80);
        let a = crate::assign_groups_to_servers(
            &streams,
            &bits,
            &uplinks,
            None,
            &eva_obs::NoopRecorder,
        )
        .unwrap();
        assert_eq!(a.groups.len(), 80);
        let group_bits: Vec<f64> = a
            .groups
            .iter()
            .map(|g| g.iter().map(|&i| bits[a.streams[i].id.source]).sum())
            .collect();
        let cost: Vec<Vec<f64>> = group_bits
            .iter()
            .map(|&gb| uplinks.iter().map(|&b| gb / b).collect())
            .collect();
        let (_, optimum) = hungarian_min_cost(&cost);
        assert!(
            (a.total_comm_latency - optimum).abs() <= 1e-12 * optimum,
            "rank pairing {} vs hungarian {optimum}",
            a.total_comm_latency
        );
        let mut servers = a.group_server.clone();
        servers.sort_unstable();
        servers.dedup();
        assert_eq!(servers.len(), a.groups.len());
    }
}
