//! Algorithm 1: group-based heuristic zero-jitter scheduling.
//!
//! Streams are sorted by period, prioritized by how many other streams'
//! periods divide theirs, and greedily packed into at most `N` groups
//! such that every group satisfies Theorem 3's condition — hence
//! `Const2`, hence zero delay jitter.

use crate::stream::{StreamTiming, Ticks};
use crate::theory::{gcd, theorem3_group_ok};

/// Failure modes of Algorithm 1: malformed placement inputs, or no
/// feasible grouping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupingError {
    /// A single stream violates even a solo group (`p > T` after split —
    /// cannot happen if [`crate::stream::split_high_rate`] ran first).
    StreamInfeasible { source: usize, part: usize },
    /// More groups are required than servers are available
    /// (Algorithm 1, line 16: "No feasible grouping scheme").
    NotEnoughServers {
        needed_at_least: usize,
        available: usize,
    },
    /// The placement inputs give `bits` per-frame sizes for `streams`
    /// streams; there must be one per stream.
    BitsLengthMismatch { streams: usize, bits: usize },
    /// Server `server`'s uplink bandwidth is not a positive finite
    /// number of bits per second.
    InvalidUplink { server: usize },
    /// The liveness mask has `alive` entries for `servers` servers;
    /// there must be one per server.
    AliveLengthMismatch { alive: usize, servers: usize },
    /// The joint configuration has `configs` entries for `cameras`
    /// cameras; there must be one per camera.
    ConfigsLengthMismatch { configs: usize, cameras: usize },
}

impl std::fmt::Display for GroupingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupingError::StreamInfeasible { source, part } => write!(
                f,
                "stream s{source}.{part} cannot satisfy Const2 alone (p > T); split it first"
            ),
            GroupingError::NotEnoughServers {
                needed_at_least,
                available,
            } => write!(
                f,
                "no feasible grouping: needs > {needed_at_least} groups, only {available} servers"
            ),
            GroupingError::BitsLengthMismatch { streams, bits } => write!(
                f,
                "{bits} bits-per-frame entries for {streams} streams; need one per stream"
            ),
            GroupingError::InvalidUplink { server } => write!(
                f,
                "server {server} has a non-positive or non-finite uplink bandwidth"
            ),
            GroupingError::AliveLengthMismatch { alive, servers } => write!(
                f,
                "liveness mask has {alive} entries for {servers} servers; need one per server"
            ),
            GroupingError::ConfigsLengthMismatch { configs, cameras } => write!(
                f,
                "{configs} configurations for {cameras} cameras; need one per camera"
            ),
        }
    }
}

impl std::error::Error for GroupingError {}

/// Relative slack of [`exceeds_capacity`]: the refusal threshold is
/// `n_servers · (1 + CAPACITY_TOLERANCE)`.
const CAPACITY_TOLERANCE: f64 = 1e-9;

/// True when streams whose utilisations `pᵢ/Tᵢ` sum to
/// `total_utilization` provably cannot be grouped onto `n_servers`
/// servers, so Algorithm 1 must fail.
///
/// Proof. Algorithm 1 only forms groups that pass Theorem 3's check
/// `Σ_{i∈G} pᵢ ≤ min_{i∈G} Tᵢ`. Dividing each `pᵢ` by its own period,
/// which is at least that minimum, gives `Σ_{i∈G} pᵢ/Tᵢ ≤ 1`: every
/// group's utilisation is at most one. At most `n_servers` groups are
/// allowed, so a placeable stream set has `Σᵢ pᵢ/Tᵢ ≤ n_servers`.
/// High-rate splitting keeps the sum: `m` parts of period `m·T` and
/// processing `p` carry `p/T` between them.
///
/// The caller sums in floating point, so the test refuses only above
/// `n_servers · (1 + 1e-9)`. Each term and each partial sum of `M`
/// positive terms carries a relative error of at most about `M · 2⁻⁵³`,
/// about `1.1 · 10⁻¹⁰` at `M = 10⁶`, so a sum over the threshold means
/// the exact sum exceeds `n_servers`. A NaN sum refuses nothing.
pub fn exceeds_capacity(total_utilization: f64, n_servers: usize) -> bool {
    total_utilization > n_servers as f64 * (1.0 + CAPACITY_TOLERANCE)
}

/// A group under construction, carrying the cached invariants that
/// make the Theorem-3 admission check O(1):
///
/// * `t_min` — minimum member period,
/// * `gcd` — gcd of member periods (all members divisible by `t` iff
///   `gcd % t == 0`),
/// * `proc_sum` — total member processing time.
struct GroupAcc {
    members: Vec<usize>,
    t_min: Ticks,
    gcd: Ticks,
    proc_sum: Ticks,
}

impl GroupAcc {
    /// A new group holding stream `i` alone.
    fn open(i: usize, s: StreamTiming) -> Self {
        GroupAcc {
            members: vec![i],
            t_min: s.period,
            gcd: s.period,
            proc_sum: s.proc,
        }
    }

    /// Admit stream `i` if the union still satisfies Theorem 3 (the
    /// check of `reference::group_streams_sequential`'s `group_accepts`):
    /// harmonicity of the union with respect to its minimum period
    /// reduces to two divisibility checks on the cached gcd and minimum.
    fn try_admit(&mut self, i: usize, s: StreamTiming) -> bool {
        let t_min = self.t_min.min(s.period);
        let fits = s.period.is_multiple_of(t_min)
            && self.gcd.is_multiple_of(t_min)
            && self.proc_sum + s.proc <= t_min;
        if fits {
            self.members.push(i);
            self.t_min = t_min;
            self.gcd = gcd(self.gcd, s.period);
            self.proc_sum += s.proc;
        }
        fits
    }
}

/// Run Algorithm 1's grouping phase (lines 1-19): partition `streams`
/// into at most `n_servers` groups, each satisfying Theorem 3.
///
/// Returns the groups as vectors of indices into `streams`. Groups may
/// be fewer than `n_servers`; empty groups are not returned. The output,
/// errors included, is identical to
/// [`crate::reference::group_streams_sequential`], the paper's direct
/// first-fit: the same single pass in the same priority order, with
/// two shortcuts that change no result.
///
/// * A stream set whose utilisation sum [`exceeds_capacity`] returns
///   `NotEnoughServers` at once, the error the first-fit would reach.
///   The bound is skipped when some stream has `proc > period`, so that
///   `StreamInfeasible` keeps its precedence.
/// * Priorities are computed per distinct period value (`O(D² + M)`
///   instead of `O(M²)` for `D` distinct values), and the admission
///   check is O(1) via cached per-group `(min period, gcd, processing
///   sum)`.
///
/// ```
/// use eva_sched::{group_streams, StreamId, StreamTiming};
/// // Two harmonic 10/5 fps streams pack together; a 7 fps stream cannot.
/// let streams = vec![
///     StreamTiming::from_rate(StreamId::source(0), 10.0, 0.030),
///     StreamTiming::from_rate(StreamId::source(1), 5.0, 0.050),
///     StreamTiming::from_rate(StreamId::source(2), 7.0, 0.050),
/// ];
/// let groups = group_streams(&streams, 3).unwrap();
/// assert_eq!(groups.len(), 2);
/// ```
pub fn group_streams(
    streams: &[StreamTiming],
    n_servers: usize,
) -> Result<Vec<Vec<usize>>, GroupingError> {
    if streams.is_empty() {
        return Ok(Vec::new());
    }
    let not_enough = GroupingError::NotEnoughServers {
        needed_at_least: n_servers,
        available: n_servers,
    };
    if !streams.iter().any(StreamTiming::is_high_rate)
        && exceeds_capacity(
            streams.iter().map(StreamTiming::utilization).sum(),
            n_servers,
        )
    {
        return Err(not_enough);
    }
    let m = streams.len();
    // Global (period, index) order — line 1 of Algorithm 1.
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by_key(|&i| (streams[i].period, i));

    // Distinct period values ascending, aligned with `order`.
    let mut values: Vec<Ticks> = Vec::new();
    let mut vi_of_pos: Vec<usize> = Vec::with_capacity(m);
    for &i in &order {
        if values.last() != Some(&streams[i].period) {
            values.push(streams[i].period);
        }
        vi_of_pos.push(values.len() - 1);
    }
    let d = values.len();
    let mut count = vec![0usize; d];
    for &vi in &vi_of_pos {
        count[vi] += 1;
    }

    // Priority I_i = #{ j earlier in order : T_i % T_j == 0 }: earlier
    // strictly-smaller divisors contribute their full class counts,
    // equal periods contribute the within-class rank.
    let mut divisor_sum = vec![0usize; d];
    for vi in 0..d {
        for w in 0..vi {
            if values[vi].is_multiple_of(values[w]) {
                divisor_sum[vi] += count[w];
            }
        }
    }
    let mut rank = vec![0usize; d];
    let mut priorities = vec![0usize; m];
    for pos in 0..m {
        let vi = vi_of_pos[pos];
        priorities[pos] = divisor_sum[vi] + rank[vi];
        rank[vi] += 1;
    }

    // Line 3: stable re-sort by priority.
    let mut final_pos: Vec<usize> = (0..m).collect();
    final_pos.sort_by_key(|&pos| (priorities[pos], pos));

    // Lines 4-19: first-fit into groups under the Theorem-3 condition.
    let mut groups: Vec<GroupAcc> = Vec::new();
    for &pos in &final_pos {
        let i = order[pos];
        let s = streams[i];
        if s.proc > s.period {
            return Err(GroupingError::StreamInfeasible {
                source: s.id.source,
                part: s.id.part,
            });
        }
        if groups.iter_mut().any(|g| g.try_admit(i, s)) {
            continue;
        }
        if groups.len() == n_servers {
            return Err(not_enough);
        }
        groups.push(GroupAcc::open(i, s));
    }

    let groups: Vec<Vec<usize>> = groups.into_iter().map(|g| g.members).collect();
    debug_assert!(groups.iter().all(|g| {
        let members: Vec<StreamTiming> = g.iter().map(|&i| streams[i]).collect();
        theorem3_group_ok(&members)
    }));
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamId;
    use crate::theory::const2_zero_jitter_ok;

    fn st(source: usize, period: Ticks, proc: Ticks) -> StreamTiming {
        StreamTiming::new(StreamId::source(source), period, proc)
    }

    fn materialize(streams: &[StreamTiming], groups: &[Vec<usize>]) -> Vec<Vec<StreamTiming>> {
        groups
            .iter()
            .map(|g| g.iter().map(|&i| streams[i]).collect())
            .collect()
    }

    #[test]
    fn groups_satisfy_const2() {
        let streams = vec![
            st(0, 100_000, 30_000),
            st(1, 200_000, 40_000),
            st(2, 100_000, 20_000),
            st(3, 50_000, 20_000),
            st(4, 400_000, 10_000),
        ];
        let groups = group_streams(&streams, 4).unwrap();
        for g in materialize(&streams, &groups) {
            assert!(const2_zero_jitter_ok(&g), "group violates Const2: {g:?}");
        }
        // Every stream placed exactly once.
        let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..streams.len()).collect::<Vec<_>>());
    }

    #[test]
    fn harmonic_streams_share_a_group() {
        // All periods multiples of 100ms, total proc 60ms <= 100ms.
        let streams = vec![
            st(0, 100_000, 20_000),
            st(1, 200_000, 20_000),
            st(2, 400_000, 20_000),
        ];
        let groups = group_streams(&streams, 3).unwrap();
        assert_eq!(groups.len(), 1, "harmonic set should pack into one group");
    }

    #[test]
    fn non_harmonic_streams_split_groups() {
        // 100ms and 130ms periods: gcd 10ms < procs, must separate.
        let streams = vec![st(0, 100_000, 50_000), st(1, 130_000, 50_000)];
        let groups = group_streams(&streams, 2).unwrap();
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn budget_overflow_splits_groups() {
        // Harmonic but 60+60 > 100.
        let streams = vec![st(0, 100_000, 60_000), st(1, 100_000, 60_000)];
        let groups = group_streams(&streams, 2).unwrap();
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn fails_when_servers_exhausted() {
        let streams = vec![st(0, 100_000, 60_000), st(1, 100_000, 60_000)];
        let err = group_streams(&streams, 1).unwrap_err();
        assert!(matches!(err, GroupingError::NotEnoughServers { .. }));
    }

    #[test]
    fn rejects_unsplit_high_rate_stream() {
        let streams = vec![st(0, 100_000, 150_000)];
        let err = group_streams(&streams, 4).unwrap_err();
        assert!(matches!(err, GroupingError::StreamInfeasible { .. }));
    }

    #[test]
    fn smaller_period_candidate_can_join_when_budget_fits() {
        // Group starts with T=200ms stream; T=100ms candidate divides it
        // and total proc 30+20 <= 100ms: the union check admits it.
        let streams = vec![st(0, 200_000, 30_000), st(1, 100_000, 20_000)];
        let groups = group_streams(&streams, 2).unwrap();
        // Regardless of processing order the two must co-locate.
        assert_eq!(groups.len(), 1);
        let g = materialize(&streams, &groups);
        assert!(const2_zero_jitter_ok(&g[0]));
    }

    #[test]
    fn capacity_bound_refuses_only_above_the_server_count() {
        assert!(!exceeds_capacity(3.0, 3));
        assert!(!exceeds_capacity(3.0 * (1.0 + 1e-12), 3));
        assert!(exceeds_capacity(3.0 + 1e-6, 3));
        assert!(!exceeds_capacity(0.0, 0));
        assert!(exceeds_capacity(1e-12, 0));
        assert!(!exceeds_capacity(f64::NAN, 0));
        // Four utilisation-1/2 streams fill two servers exactly and are
        // placed; on one server the bound refuses them.
        let streams: Vec<StreamTiming> = (0..4).map(|i| st(i, 100_000, 50_000)).collect();
        assert_eq!(group_streams(&streams, 2).unwrap().len(), 2);
        assert_eq!(
            group_streams(&streams, 1),
            Err(GroupingError::NotEnoughServers {
                needed_at_least: 1,
                available: 1
            })
        );
    }

    #[test]
    fn empty_input_is_ok() {
        assert!(group_streams(&[], 3).unwrap().is_empty());
    }

    #[test]
    fn priority_order_prefers_hard_streams_first() {
        // A stream with an awkward period (70ms, divides nothing) should
        // still be placed; compatibility-rich streams fill around it.
        let streams = vec![
            st(0, 100_000, 30_000),
            st(1, 200_000, 30_000),
            st(2, 70_000, 30_000),
            st(3, 140_000, 30_000),
        ];
        let groups = group_streams(&streams, 4).unwrap();
        for g in materialize(&streams, &groups) {
            assert!(const2_zero_jitter_ok(&g));
        }
        // The 70/140 pair is harmonic and fits (60 <= 70): expect 2 groups.
        assert_eq!(groups.len(), 2);
    }

    /// Deterministic: same input, same grouping.
    #[test]
    fn grouping_is_deterministic() {
        let streams = vec![
            st(0, 100_000, 25_000),
            st(1, 300_000, 25_000),
            st(2, 200_000, 25_000),
            st(3, 100_000, 25_000),
        ];
        let a = group_streams(&streams, 4).unwrap();
        let b = group_streams(&streams, 4).unwrap();
        assert_eq!(a, b);
    }
}
