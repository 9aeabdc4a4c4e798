//! Property tests for the zero-jitter scheduling stack.

use eva_obs::NoopRecorder;
use eva_sched::{
    assign_groups_to_servers, const1_utilization_ok, const2_zero_jitter_ok, group_streams,
    group_streams_sequential, hungarian_min_cost, split_high_rate, StreamId, StreamTiming,
};
use proptest::prelude::*;

/// A stream with a period that is a multiple of 10ms (keeps gcds
/// non-degenerate, like real camera frame rates) and feasible load.
fn stream_strategy(source: usize) -> impl Strategy<Value = StreamTiming> {
    (1u64..=12, 5_000u64..=60_000).prop_map(move |(mult, proc)| {
        let period = mult * 50_000; // 50ms..600ms
        StreamTiming::new(StreamId::source(source), period, proc.min(period))
    })
}

/// Server uplinks in Mbps, as in the paper's Fig. 7 pool: six values,
/// so servers tie often.
const UPLINK_POOL_MBPS: [f64; 6] = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0];

fn streams_strategy(max: usize) -> impl Strategy<Value = Vec<StreamTiming>> {
    proptest::collection::vec((1u64..=12, 5_000u64..=60_000), 1..=max).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (mult, proc))| {
                let period = mult * 50_000;
                StreamTiming::new(StreamId::source(i), period, proc.min(period))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Algorithm 1's groups always satisfy Const2 — the paper's central
    /// feasibility invariant (Theorem 3 -> Const2 -> Theorem 1 zero jitter).
    #[test]
    fn grouping_always_satisfies_const2(streams in streams_strategy(10)) {
        // Enough servers that grouping can always succeed.
        let n_servers = streams.len();
        let groups = group_streams(&streams, n_servers).unwrap();
        let mut placed = 0;
        for g in &groups {
            let members: Vec<StreamTiming> = g.iter().map(|&i| streams[i]).collect();
            prop_assert!(const2_zero_jitter_ok(&members));
            prop_assert!(const1_utilization_ok(&members)); // Theorem 2
            placed += members.len();
        }
        prop_assert_eq!(placed, streams.len());
    }

    /// Splitting always removes the high-rate condition and preserves
    /// total utilization.
    #[test]
    fn splitting_normalizes_high_rate(period in 10_000u64..200_000,
                                      proc in 10_000u64..800_000) {
        let s = StreamTiming::new(StreamId::source(0), period, proc);
        let parts = split_high_rate(&[s]);
        for p in &parts {
            prop_assert!(p.proc <= p.period, "{p:?}");
        }
        let before = s.utilization();
        let after: f64 = parts.iter().map(|p| p.utilization()).sum();
        prop_assert!((before - after).abs() < 1e-9);
        prop_assert_eq!(parts.len() as u64, proc.div_ceil(period).max(1));
    }

    /// Hungarian result is never worse than any of a few random
    /// alternative assignments.
    #[test]
    fn hungarian_not_beaten_by_random_permutations(
        seed in 0u64..1000,
        n in 1usize..7,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = n + rng.gen_range(0..3);
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..m).map(|_| rng.gen_range(0.0..10.0)).collect())
            .collect();
        let (_, total) = hungarian_min_cost(&cost);
        // Sample 50 random injections rows -> cols.
        for _ in 0..50 {
            let cols = eva_stats::rng::sample_indices(&mut rng, m, n);
            let alt: f64 = (0..n).map(|r| cost[r][cols[r]]).sum();
            prop_assert!(total <= alt + 1e-9, "hungarian {total} beaten by {alt}");
        }
    }

    /// End-to-end assignment: all placed streams satisfy Const2 per
    /// server, and every stream is placed.
    #[test]
    fn assignment_invariants(streams in streams_strategy(6), n_extra in 0usize..3) {
        let bits: Vec<f64> = (0..streams.len()).map(|i| 1e5 * (i + 1) as f64).collect();
        let uplinks: Vec<f64> = (0..streams.len() + n_extra).map(|j| 5e6 * (j + 1) as f64).collect();
        let a = assign_groups_to_servers(&streams, &bits, &uplinks, None, &NoopRecorder).unwrap();
        for server in 0..uplinks.len() {
            let members: Vec<StreamTiming> = a.streams_on(server)
                .into_iter().map(|i| a.streams[i]).collect();
            prop_assert!(const2_zero_jitter_ok(&members));
        }
        prop_assert!(a.server_of.iter().all(|&s| s < uplinks.len()));
        prop_assert_eq!(a.server_of.len(), a.streams.len());
        prop_assert!(a.total_comm_latency >= 0.0);
    }

    /// A single stream strategy sanity check: constructor invariants hold.
    #[test]
    fn stream_strategy_is_wellformed(s in stream_strategy(0)) {
        prop_assert!(s.period > 0 && s.proc > 0);
        prop_assert!(s.utilization() <= 1.0 + 1e-12);
    }

    /// Rank pairing is an exact optimum of Algorithm 1's line-20
    /// matching. On tie-heavy instances (pooled uplinks, repeated frame
    /// sizes, dead servers) the groups land on distinct alive servers,
    /// the total latency equals the Hungarian optimum over the alive
    /// servers, and the per-group costs are the Hungarian's as a
    /// multiset.
    #[test]
    fn rank_pairing_equals_hungarian_optimum(
        seed in 0u64..2000,
        n_streams in 1usize..12,
        n_spare in 0usize..4,
        n_dead in 0usize..4,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let streams: Vec<StreamTiming> = (0..n_streams)
            .map(|i| {
                let period = rng.gen_range(1u64..=12) * 50_000;
                let proc = rng.gen_range(5_000u64..=60_000).min(period);
                StreamTiming::new(StreamId::source(i), period, proc)
            })
            .collect();
        let bits: Vec<f64> = (0..n_streams)
            .map(|_| [1e5, 2e5, 4e5][rng.gen_range(0..3)])
            .collect();
        // At least one alive server per stream, so grouping never fails.
        let n_servers = n_streams + n_spare + n_dead;
        let uplinks: Vec<f64> = (0..n_servers)
            .map(|_| UPLINK_POOL_MBPS[rng.gen_range(0..UPLINK_POOL_MBPS.len())] * 1e6)
            .collect();
        let mut alive = vec![true; n_servers];
        for j in eva_stats::rng::sample_indices(&mut rng, n_servers, n_dead) {
            alive[j] = false;
        }
        let a = assign_groups_to_servers(&streams, &bits, &uplinks, Some(&alive), &NoopRecorder)
            .unwrap();

        let mut servers = a.group_server.clone();
        prop_assert!(servers.iter().all(|&j| alive[j]));
        servers.sort_unstable();
        servers.dedup();
        prop_assert_eq!(servers.len(), a.groups.len());

        let alive_servers: Vec<usize> = (0..n_servers).filter(|&j| alive[j]).collect();
        let group_bits: Vec<f64> = a
            .groups
            .iter()
            .map(|g| g.iter().map(|&i| bits[a.streams[i].id.source]).sum())
            .collect();
        let cost: Vec<Vec<f64>> = group_bits
            .iter()
            .map(|&gb| alive_servers.iter().map(|&j| gb / uplinks[j]).collect())
            .collect();
        let (cols, optimum) = hungarian_min_cost(&cost);
        prop_assert!(
            (a.total_comm_latency - optimum).abs() <= 1e-12 * optimum,
            "rank pairing {} vs hungarian {}", a.total_comm_latency, optimum
        );
        let mut ours: Vec<f64> = group_bits
            .iter()
            .zip(&a.group_server)
            .map(|(&gb, &j)| gb / uplinks[j])
            .collect();
        let mut reference: Vec<f64> = cols.iter().enumerate().map(|(g, &k)| cost[g][k]).collect();
        ours.sort_by(f64::total_cmp);
        reference.sort_by(f64::total_cmp);
        prop_assert_eq!(ours, reference);
    }

    /// Sharded grouping is exactly equivalent to the sequential pass on
    /// mixed gcd-compatible period classes (including error cases).
    #[test]
    fn sharded_grouping_equals_sequential(
        raw in proptest::collection::vec((0usize..4, 0u32..3, 5_000u64..=60_000), 1..=48),
        n_servers in 0usize..50,
    ) {
        // Four divisibility families with power-of-two multiples: mixed
        // period classes with non-trivial sharing inside each family.
        let bases: [u64; 4] = [50_000, 70_000, 90_000, 110_000];
        let streams: Vec<StreamTiming> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (family, shift, proc))| {
                let period = bases[family] << shift;
                StreamTiming::new(StreamId::source(i), period, proc.min(period))
            })
            .collect();
        let seq = group_streams_sequential(&streams, n_servers);
        let sharded = group_streams(&streams, n_servers);
        prop_assert_eq!(&seq, &sharded);
    }
}
