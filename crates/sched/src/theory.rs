//! The paper's feasibility constraints as checkable predicates.
//!
//! * `Const1` (Eq. 6): total utilization on a server ≤ 1,
//! * `Const2` (Eq. 7): `Σ p_i ≤ gcd({T_i})` — by Theorem 1 a sufficient
//!   condition for zero delay jitter, and by Theorem 2 stronger than
//!   `Const1`,
//! * the Theorem-3 condition Algorithm 1 maintains per group.

use crate::stream::{StreamTiming, Ticks};

/// Greatest common divisor of two tick counts.
pub(crate) fn gcd(a: Ticks, b: Ticks) -> Ticks {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// gcd over a slice (0 for an empty slice).
pub fn gcd_all(values: impl IntoIterator<Item = Ticks>) -> Ticks {
    values.into_iter().fold(0, gcd)
}

/// `Const1` (Eq. 6): `Σ_i p_i / T_i ≤ 1` for the streams on one server.
pub fn const1_utilization_ok(streams: &[StreamTiming]) -> bool {
    // Exact rational comparison: Σ p_i/T_i ≤ 1  ⟺  Σ p_i · Π_{j≠i} T_j ≤ Π T_j.
    // Products overflow quickly, so use the f64 utilization with a tiny
    // tolerance — utilizations here are far from the representable edge.
    let total: f64 = streams.iter().map(|s| s.utilization()).sum();
    total <= 1.0 + 1e-12
}

/// `Const2` (Eq. 7): `Σ_i p_i ≤ gcd({T_i})` for the streams on one
/// server. By Theorem 1 this guarantees a zero-jitter static schedule.
pub fn const2_zero_jitter_ok(streams: &[StreamTiming]) -> bool {
    if streams.is_empty() {
        return true;
    }
    let g = gcd_all(streams.iter().map(|s| s.period));
    let total: Ticks = streams.iter().map(|s| s.proc).sum();
    total <= g
}

/// Theorem 3's grouping condition: (a) every period is an integer
/// multiple of the minimum period in the group, and (b) `Σ p_i ≤ T_min`.
/// Sufficient for `Const2` (and hence zero jitter + `Const1`). The
/// empty group satisfies it.
pub fn theorem3_group_ok(streams: &[StreamTiming]) -> bool {
    let Some(t_min) = streams.iter().map(|s| s.period).min() else {
        return true;
    };
    let harmonic = streams.iter().all(|s| s.period % t_min == 0);
    let total: Ticks = streams.iter().map(|s| s.proc).sum();
    harmonic && total <= t_min
}

/// Compute the static zero-jitter offsets of Theorem 1's proof:
/// `o(τ_k) = Σ_{i<k} p_i`, valid whenever `Const2` holds. Returns `None`
/// when `Const2` fails (no such static schedule is guaranteed).
pub fn zero_jitter_offsets(streams: &[StreamTiming]) -> Option<Vec<Ticks>> {
    if !const2_zero_jitter_ok(streams) {
        return None;
    }
    let mut offsets = Vec::with_capacity(streams.len());
    let mut acc: Ticks = 0;
    for s in streams {
        offsets.push(acc);
        acc += s.proc;
    }
    Some(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamId;

    fn st(source: usize, period: Ticks, proc: Ticks) -> StreamTiming {
        StreamTiming::new(StreamId::source(source), period, proc)
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd_all([12, 18, 30]), 6);
        assert_eq!(gcd_all(std::iter::empty::<Ticks>()), 0);
    }

    #[test]
    fn const1_checks_utilization() {
        // 0.5 + 0.5 = 1.0 exactly: ok.
        assert!(const1_utilization_ok(&[st(0, 100, 50), st(1, 100, 50)]));
        // 0.6 + 0.5 > 1: not ok.
        assert!(!const1_utilization_ok(&[st(0, 100, 60), st(1, 100, 50)]));
        assert!(const1_utilization_ok(&[]));
    }

    #[test]
    fn const2_checks_gcd_budget() {
        // periods 100, 200 -> gcd 100; p sums 80 <= 100: ok.
        assert!(const2_zero_jitter_ok(&[st(0, 100, 50), st(1, 200, 30)]));
        // p sums 110 > 100: violates.
        assert!(!const2_zero_jitter_ok(&[st(0, 100, 60), st(1, 200, 50)]));
        // Coprime-ish periods shrink the gcd: 100 & 150 -> gcd 50.
        assert!(!const2_zero_jitter_ok(&[st(0, 100, 30), st(1, 150, 30)]));
        assert!(const2_zero_jitter_ok(&[st(0, 100, 30), st(1, 150, 20)]));
    }

    /// Theorem 2: Const2 implies Const1 — exhaustive small search.
    #[test]
    fn theorem2_const2_implies_const1() {
        let periods = [40u64, 60, 80, 120];
        let procs = [5u64, 10, 20, 35];
        let mut checked = 0;
        for &t1 in &periods {
            for &t2 in &periods {
                for &p1 in &procs {
                    for &p2 in &procs {
                        let set = [st(0, t1, p1), st(1, t2, p2)];
                        if const2_zero_jitter_ok(&set) {
                            assert!(const1_utilization_ok(&set), "{set:?}");
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 0, "no Const2-feasible combinations exercised");
    }

    /// Theorem 3: the grouping condition implies Const2.
    #[test]
    fn theorem3_implies_const2() {
        let base = 50u64;
        for mult in [(1u64, 2u64), (1, 3), (2, 4), (1, 1)] {
            for procs in [(10u64, 20u64), (25, 25), (5, 40)] {
                let set = [st(0, base * mult.0, procs.0), st(1, base * mult.1, procs.1)];
                if theorem3_group_ok(&set) {
                    assert!(const2_zero_jitter_ok(&set), "{set:?}");
                }
            }
        }
        // A harmonic set satisfying (a)+(b).
        let ok = [st(0, 100, 40), st(1, 200, 30), st(2, 400, 30)];
        assert!(theorem3_group_ok(&ok));
        assert!(const2_zero_jitter_ok(&ok));
        // Harmonic but budget-violating.
        let bad = [st(0, 100, 60), st(1, 200, 50)];
        assert!(!theorem3_group_ok(&bad));
    }

    #[test]
    fn theorem3_rejects_non_harmonic() {
        // 100 and 150 are both multiples of 50 but 150 % 100 != 0.
        assert!(!theorem3_group_ok(&[st(0, 100, 10), st(1, 150, 10)]));
    }

    #[test]
    fn offsets_pack_within_gcd_window() {
        let set = [st(0, 100, 30), st(1, 200, 30), st(2, 200, 40)];
        let offs = zero_jitter_offsets(&set).expect("Const2 holds");
        assert_eq!(offs, vec![0, 30, 60]);
        // Completion of the last stream fits inside the gcd window.
        let g = gcd_all(set.iter().map(|s| s.period));
        assert!(offs[2] + set[2].proc <= g);
    }

    #[test]
    fn offsets_absent_when_infeasible() {
        assert!(zero_jitter_offsets(&[st(0, 100, 80), st(1, 100, 30)]).is_none());
    }

    #[test]
    fn empty_sets_are_trivially_feasible() {
        assert!(const2_zero_jitter_ok(&[]));
        assert!(theorem3_group_ok(&[]));
        assert_eq!(zero_jitter_offsets(&[]), Some(vec![]));
    }
}
