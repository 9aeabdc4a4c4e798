//! Final placement: Algorithm 1 end-to-end.
//!
//! Combines high-rate splitting, Theorem-3 grouping and rank-pairing
//! assignment into the scheduling vector `q` of the paper: each (split)
//! stream is mapped to a server such that every server's stream set is
//! zero-jitter feasible and total uplink transmission latency is
//! minimized (Algorithm 1, line 20's objective
//! `min Σ_G Σ_{i∈G} bits(r_i) / B_q`).

use eva_obs::{span, Phase, Recorder};

use crate::group::{group_streams, GroupingError};
use crate::stream::{split_high_rate, StreamTiming};

/// Algorithm 1, line 20: map groups to distinct servers minimizing
/// total transmission latency `Σ_g group_bits[g] / uplink_bps[server_g]`.
///
/// The cost of group `g` on server `j` is `bits_g · (1/B_j)`, a rank-1
/// matrix, so by the rearrangement inequality pairing the heaviest
/// group with the fastest uplink, the next heaviest with the next
/// fastest, and so on is an exact optimum. Groups sort by bits
/// descending and `candidate_servers` by uplink descending; ties go to
/// the lower group index and the lower server index respectively.
///
/// Returns the server (an index into `uplink_bps`) of each group. The
/// caller supplies at least as many candidates as groups.
pub fn rank_pair(
    group_bits: &[f64],
    candidate_servers: &[usize],
    uplink_bps: &[f64],
) -> Vec<usize> {
    debug_assert!(group_bits.len() <= candidate_servers.len());
    let mut groups: Vec<usize> = (0..group_bits.len()).collect();
    groups.sort_by(|&a, &b| group_bits[b].total_cmp(&group_bits[a]).then(a.cmp(&b)));
    let mut servers = candidate_servers.to_vec();
    servers.sort_by(|&a, &b| uplink_bps[b].total_cmp(&uplink_bps[a]).then(a.cmp(&b)));
    let mut server_of_group = vec![0; group_bits.len()];
    for (&g, &j) in groups.iter().zip(&servers) {
        server_of_group[g] = j;
    }
    server_of_group
}

/// A complete placement decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Post-split stream timings, in the order referenced by `server_of`.
    pub streams: Vec<StreamTiming>,
    /// `server_of[i]` is the server index assigned to `streams[i]`.
    pub server_of: Vec<usize>,
    /// Index sets of streams per group, parallel to `group_server`.
    pub groups: Vec<Vec<usize>>,
    /// Server chosen for each group.
    pub group_server: Vec<usize>,
    /// Total communication latency of the chosen mapping (seconds).
    pub total_comm_latency: f64,
}

impl Assignment {
    /// Streams co-located on `server` (indices into `self.streams`).
    pub fn streams_on(&self, server: usize) -> Vec<usize> {
        self.server_of
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == server)
            .map(|(i, _)| i)
            .collect()
    }

    /// `(source camera, server)` of each post-split stream, in stream
    /// order. Streams past the end of `server_of` are not yielded.
    pub fn placement(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.streams
            .iter()
            .map(|st| st.id.source)
            .zip(self.server_of.iter().copied())
    }
}

/// Run Algorithm 1: split high-rate streams, group, then assign groups
/// to servers by [`rank_pair`] on communication latency.
///
/// * `streams` — original (pre-split) stream timings,
/// * `bits_per_frame[i]` — transmitted bits of one frame of source
///   stream `i` (resolution-dependent, from `eva-workload`),
/// * `uplink_bps[j]` — uplink bandwidth of server `j` in bits/second,
/// * `alive` — failure-aware placement: only servers marked `true`
///   receive groups, and dead servers are never rank-paired. Server
///   indices in the returned [`Assignment`] still refer to the *full*
///   server list, so placements map directly onto the unreduced
///   cluster. `None` (or all-true) is exactly the unrestricted
///   Algorithm 1 — same operations in the same order, bit-identical
///   output — which keeps the zero-fault online path identical to the
///   fault-oblivious one.
///
/// The per-group cost on server `j` is
/// `Σ_{i ∈ G} bits_per_frame[src(i)] / uplink_bps[j]` — each frame's
/// transmission latency, matching Eq. 5's `θ_bit(r_i)/B_{q_i}` term.
///
/// Splitting and grouping run under a [`Phase::Grouping`] span, the
/// rank pairing under a [`Phase::Assignment`] span, and group/stream
/// counts land on `rec`; a [`NoopRecorder`](eva_obs::NoopRecorder)
/// run is bit-identical to a recorded one.
///
/// Malformed inputs are errors: `bits_per_frame` must have one entry
/// per stream, `alive` one entry per server, and every uplink must be
/// positive and finite.
pub fn assign_groups_to_servers(
    streams: &[StreamTiming],
    bits_per_frame: &[f64],
    uplink_bps: &[f64],
    alive: Option<&[bool]>,
    rec: &dyn Recorder,
) -> Result<Assignment, GroupingError> {
    if bits_per_frame.len() != streams.len() {
        return Err(GroupingError::BitsLengthMismatch {
            streams: streams.len(),
            bits: bits_per_frame.len(),
        });
    }
    if let Some(server) = uplink_bps.iter().position(|&b| !(b > 0.0 && b.is_finite())) {
        return Err(GroupingError::InvalidUplink { server });
    }
    if let Some(alive) = alive {
        if alive.len() != uplink_bps.len() {
            return Err(GroupingError::AliveLengthMismatch {
                alive: alive.len(),
                servers: uplink_bps.len(),
            });
        }
    }
    // Indices of usable servers in the full list. The all-alive case
    // keeps the identity mapping and reproduces the unrestricted path.
    let usable: Vec<usize> = match alive {
        Some(alive) => (0..uplink_bps.len()).filter(|&j| alive[j]).collect(),
        None => (0..uplink_bps.len()).collect(),
    };
    let n_servers = usable.len();
    let (split, grouped) = {
        let _grouping_span = span(rec, Phase::Grouping);
        let split = split_high_rate(streams);
        let grouped = group_streams(&split, n_servers);
        (split, grouped)
    };
    let groups = match grouped {
        Ok(g) => g,
        Err(e) => {
            if rec.enabled() {
                rec.add("sched.infeasible", 1);
            }
            return Err(e);
        }
    };
    if rec.enabled() {
        rec.add("sched.assignments", 1);
        rec.observe("sched.split_streams", split.len() as f64);
        rec.observe("sched.groups", groups.len() as f64);
    }

    if groups.is_empty() {
        return Ok(Assignment {
            streams: split,
            server_of: Vec::new(),
            groups,
            group_server: Vec::new(),
            total_comm_latency: 0.0,
        });
    }

    let _assignment_span = span(rec, Phase::Assignment);
    let group_bits: Vec<f64> = groups
        .iter()
        .map(|g| g.iter().map(|&i| bits_per_frame[split[i].id.source]).sum())
        .collect();
    let group_server = rank_pair(&group_bits, &usable, uplink_bps);
    let total_comm_latency: f64 = group_bits
        .iter()
        .zip(&group_server)
        .map(|(&bits, &j)| bits / uplink_bps[j])
        .sum();

    let mut server_of = vec![usize::MAX; split.len()];
    for (g, members) in groups.iter().enumerate() {
        for &i in members {
            server_of[i] = group_server[g];
        }
    }
    debug_assert!(server_of.iter().all(|&s| s < uplink_bps.len()));

    Ok(Assignment {
        streams: split,
        server_of,
        groups,
        group_server,
        total_comm_latency,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use eva_obs::NoopRecorder;

    use super::*;
    use crate::stream::{StreamId, TICKS_PER_SEC};
    use crate::theory::const2_zero_jitter_ok;

    fn st(source: usize, fps: f64, proc_secs: f64) -> StreamTiming {
        StreamTiming::from_rate(StreamId::source(source), fps, proc_secs)
    }

    #[test]
    fn every_server_set_is_zero_jitter() {
        let streams = vec![
            st(0, 10.0, 0.03),
            st(1, 5.0, 0.05),
            st(2, 20.0, 0.02),
            st(3, 10.0, 0.04),
        ];
        let bits = vec![1e6, 2e6, 0.5e6, 1e6];
        let uplinks = vec![10e6, 20e6, 30e6];
        let a = assign_groups_to_servers(&streams, &bits, &uplinks, None, &NoopRecorder).unwrap();
        for server in 0..uplinks.len() {
            let members: Vec<StreamTiming> = a
                .streams_on(server)
                .into_iter()
                .map(|i| a.streams[i])
                .collect();
            assert!(const2_zero_jitter_ok(&members), "server {server}");
        }
        assert_eq!(a.server_of.len(), a.streams.len());
    }

    #[test]
    fn heavy_group_lands_on_fast_uplink() {
        // One group with huge frames, one with tiny frames; two servers
        // with very different uplinks. Optimal matching puts the heavy
        // group on the fast link.
        let streams = vec![st(0, 10.0, 0.09), st(1, 7.0, 0.09)];
        // Non-harmonic periods (100 ms vs ~142.9 ms) force two groups.
        let bits = vec![8e6, 0.1e6];
        let uplinks = vec![1e6, 100e6]; // slow, fast
        let a = assign_groups_to_servers(&streams, &bits, &uplinks, None, &NoopRecorder).unwrap();
        // Stream 0 (heavy) must sit on server 1 (fast).
        let heavy_idx = a.streams.iter().position(|s| s.id.source == 0).unwrap();
        assert_eq!(a.server_of[heavy_idx], 1);
    }

    #[test]
    fn comm_latency_is_minimal_versus_swap() {
        let streams = vec![st(0, 10.0, 0.05), st(1, 7.0, 0.05)];
        let bits = vec![4e6, 1e6];
        let uplinks = vec![2e6, 8e6];
        let a = assign_groups_to_servers(&streams, &bits, &uplinks, None, &NoopRecorder).unwrap();
        assert_eq!(a.groups.len(), 2);
        // Cost of chosen mapping vs the swapped mapping.
        let cost = |g: usize, j: usize| -> f64 {
            let gb: f64 = a.groups[g]
                .iter()
                .map(|&i| bits[a.streams[i].id.source])
                .sum();
            gb / uplinks[j]
        };
        let chosen = cost(0, a.group_server[0]) + cost(1, a.group_server[1]);
        let swapped = cost(0, a.group_server[1]) + cost(1, a.group_server[0]);
        assert!(chosen <= swapped + 1e-12);
        assert!((a.total_comm_latency - chosen).abs() < 1e-12);
    }

    #[test]
    fn high_rate_streams_are_split_before_grouping() {
        // 30 fps, 0.11 s processing: s*p = 3.3 -> 4 substreams.
        let streams = vec![st(0, 30.0, 0.11)];
        let bits = vec![1e6];
        let uplinks = vec![10e6, 10e6, 10e6, 10e6];
        let a = assign_groups_to_servers(&streams, &bits, &uplinks, None, &NoopRecorder).unwrap();
        assert_eq!(a.streams.len(), 4);
        let base_period = ((TICKS_PER_SEC as f64) / 30.0).round() as Ticks;
        for s in &a.streams {
            assert!(s.proc <= s.period);
            assert_eq!(s.period, 4 * base_period);
        }
        // All substreams placed on distinct servers (each uses 0.11 of a
        // 0.133 s window; two would blow the budget).
        let mut servers: Vec<usize> = a.server_of.clone();
        servers.sort_unstable();
        servers.dedup();
        assert_eq!(servers.len(), 4);
    }

    #[test]
    fn infeasible_when_too_few_servers() {
        let streams = vec![st(0, 10.0, 0.09), st(1, 7.0, 0.09), st(2, 11.0, 0.09)];
        let bits = vec![1e6; 3];
        let uplinks = vec![10e6]; // one server for three mutually unpackable streams
        assert!(assign_groups_to_servers(&streams, &bits, &uplinks, None, &NoopRecorder).is_err());
    }

    #[test]
    fn surviving_subset_avoids_dead_servers() {
        let streams = vec![
            st(0, 10.0, 0.03),
            st(1, 5.0, 0.05),
            st(2, 20.0, 0.02),
            st(3, 10.0, 0.04),
        ];
        let bits = vec![1e6, 2e6, 0.5e6, 1e6];
        let uplinks = vec![10e6, 20e6, 30e6, 40e6];
        let alive = vec![true, false, true, true];
        let a = assign_groups_to_servers(&streams, &bits, &uplinks, Some(&alive), &NoopRecorder)
            .unwrap();
        assert!(a.server_of.iter().all(|&s| s != 1), "dead server used");
        assert!(a.server_of.iter().all(|&s| s < uplinks.len()));
        for server in [0usize, 2, 3] {
            let members: Vec<StreamTiming> = a
                .streams_on(server)
                .into_iter()
                .map(|i| a.streams[i])
                .collect();
            assert!(const2_zero_jitter_ok(&members), "server {server}");
        }
    }

    #[test]
    fn all_alive_matches_unrestricted_bitwise() {
        let streams = vec![st(0, 10.0, 0.03), st(1, 5.0, 0.05), st(2, 20.0, 0.02)];
        let bits = vec![1e6, 2e6, 0.5e6];
        let uplinks = vec![10e6, 20e6, 30e6];
        let alive = vec![true; 3];
        let plain =
            assign_groups_to_servers(&streams, &bits, &uplinks, None, &NoopRecorder).unwrap();
        let gated =
            assign_groups_to_servers(&streams, &bits, &uplinks, Some(&alive), &NoopRecorder)
                .unwrap();
        assert_eq!(plain.server_of, gated.server_of);
        assert_eq!(plain.group_server, gated.group_server);
        assert_eq!(
            plain.total_comm_latency.to_bits(),
            gated.total_comm_latency.to_bits()
        );
    }

    #[test]
    fn too_many_failures_is_infeasible() {
        // Three mutually unpackable streams, three servers, two dead.
        let streams = vec![st(0, 10.0, 0.09), st(1, 7.0, 0.09), st(2, 11.0, 0.09)];
        let bits = vec![1e6; 3];
        let uplinks = vec![10e6; 3];
        let alive = vec![false, true, false];
        assert!(
            assign_groups_to_servers(&streams, &bits, &uplinks, Some(&alive), &NoopRecorder)
                .is_err()
        );
    }

    #[test]
    fn empty_streams_yield_empty_assignment() {
        let a = assign_groups_to_servers(&[], &[], &[10e6], None, &NoopRecorder).unwrap();
        assert!(a.server_of.is_empty());
        assert_eq!(a.total_comm_latency, 0.0);
    }

    /// A many-group instance with mutually non-harmonic periods: each
    /// stream lands in its own group, exercising the matching at scale.
    pub(crate) fn many_groups(n: usize) -> (Vec<StreamTiming>, Vec<f64>, Vec<f64>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
        // Pairwise coprime-ish periods (primes in ticks) with proc close
        // to the period so no two streams can share a group.
        let mut streams = Vec::with_capacity(n);
        let mut period = 100_003u64;
        for i in 0..n {
            streams.push(StreamTiming::new(
                StreamId::source(i),
                period,
                period - 1_000,
            ));
            period = (period + 2_000..)
                .find(|p| p % 2 == 1 && p % 3 != 0 && p % 5 != 0)
                .unwrap();
        }
        let bits: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5e6..8e6)).collect();
        let uplinks: Vec<f64> = (0..n + n / 4)
            .map(|_| [5e6, 10e6, 15e6, 20e6, 25e6, 30e6][rng.gen_range(0..6)])
            .collect();
        (streams, bits, uplinks)
    }

    #[test]
    fn rank_pair_breaks_ties_by_index() {
        // Groups 0 and 2 tie on bits, servers 1 and 3 tie on uplink: the
        // lower group index takes the lower server index.
        let bits = [2.0, 1.0, 2.0];
        let uplinks = [10.0, 30.0, 5.0, 30.0];
        assert_eq!(rank_pair(&bits, &[0, 1, 2, 3], &uplinks), vec![1, 0, 3]);
        // Only the candidates are used, whatever order they come in.
        assert_eq!(rank_pair(&bits, &[2, 3, 0], &uplinks), vec![3, 2, 0]);
        assert!(rank_pair(&[], &[0], &uplinks).is_empty());
    }

    #[test]
    fn bits_length_mismatch_is_an_error() {
        let streams = vec![st(0, 10.0, 0.03), st(1, 5.0, 0.05)];
        assert_eq!(
            assign_groups_to_servers(&streams, &[1e6], &[10e6], None, &NoopRecorder),
            Err(GroupingError::BitsLengthMismatch {
                streams: 2,
                bits: 1
            })
        );
    }

    #[test]
    fn bad_uplinks_are_errors() {
        let streams = vec![st(0, 10.0, 0.03)];
        for bad in [0.0, -5e6, f64::NAN, f64::INFINITY] {
            assert_eq!(
                assign_groups_to_servers(&streams, &[1e6], &[10e6, bad], None, &NoopRecorder),
                Err(GroupingError::InvalidUplink { server: 1 }),
                "uplink {bad}"
            );
        }
    }

    #[test]
    fn alive_length_mismatch_is_an_error() {
        let streams = vec![st(0, 10.0, 0.03)];
        assert_eq!(
            assign_groups_to_servers(
                &streams,
                &[1e6],
                &[10e6, 20e6],
                Some(&[true]),
                &NoopRecorder
            ),
            Err(GroupingError::AliveLengthMismatch {
                alive: 1,
                servers: 2
            })
        );
    }

    use crate::stream::Ticks;
}
