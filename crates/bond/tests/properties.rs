//! Property tests for the bonding layer: effective-rate dominance and
//! capacity bounds, reorder-buffer order/earliness invariants, and
//! packet-accounting conservation in the striped simulator.

use eva_bond::{BondPolicy, BondedLink, LinkBundle, ReorderBuffer};
use eva_net::LinkModel;
use eva_sched::TICKS_PER_SEC;
use proptest::prelude::*;

/// A random heterogeneous bundle: 1–5 constant-rate members with
/// arbitrary RTTs.
fn arb_bundle() -> impl Strategy<Value = LinkBundle> {
    prop::collection::vec((1e5f64..1e8, 0.0f64..0.5), 1..=5).prop_map(|links| {
        LinkBundle::new(
            links
                .into_iter()
                .map(|(rate, rtt)| BondedLink::new(LinkModel::constant(rate), rtt))
                .collect(),
        )
    })
}

proptest! {
    /// No striping policy can beat the sum of member capacities, and
    /// every bonded effective rate is positive.
    #[test]
    fn effective_rate_bounded_by_capacity_sum(
        bundle in arb_bundle(),
        frame_bits in 1e4f64..1e7,
    ) {
        let cap = bundle.nominal_sum_bps();
        for policy in [
            BondPolicy::RoundRobin,
            BondPolicy::RateWeighted,
            BondPolicy::EarliestDelivery,
        ] {
            let eff = bundle.effective_rate_bps(policy, frame_bits);
            prop_assert!(eff > 0.0, "{policy:?}: non-positive {eff}");
            prop_assert!(
                eff <= cap * (1.0 + 1e-12),
                "{policy:?}: {eff} beats capacity {cap}"
            );
        }
    }

    /// Earliest-delivery water-filling dominates every other policy and
    /// the best single member: each of those corresponds to a feasible
    /// bit split, and EDF optimizes over all of them.
    #[test]
    fn earliest_delivery_dominates(
        bundle in arb_bundle(),
        frame_bits in 1e4f64..1e7,
    ) {
        let edf = bundle.effective_rate_bps(BondPolicy::EarliestDelivery, frame_bits);
        let rr = bundle.effective_rate_bps(BondPolicy::RoundRobin, frame_bits);
        let rw = bundle.effective_rate_bps(BondPolicy::RateWeighted, frame_bits);
        let single = bundle.best_single_rate_bps(frame_bits);
        let slack = 1.0 + 1e-9;
        prop_assert!(edf * slack >= rr, "edf {edf} < rr {rr}");
        prop_assert!(edf * slack >= rw, "edf {edf} < rw {rw}");
        prop_assert!(edf * slack >= single, "edf {edf} < single {single}");
    }

    /// Reorder-buffer law: releases come out in exact sequence order,
    /// never before their own arrival, and never before any
    /// predecessor's arrival (the "never earlier than the slowest
    /// constituent packet" guarantee).
    #[test]
    fn reorder_buffer_is_in_order_and_never_early(
        arrivals in prop::collection::vec(0.0f64..1.0, 1..40),
    ) {
        // Random per-seq arrival offsets; feed in arrival-time order.
        let mut timed: Vec<(f64, u64)> = arrivals
            .iter()
            .enumerate()
            .map(|(seq, &t)| (t, seq as u64))
            .collect();
        timed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut rb = ReorderBuffer::new();
        let mut out = Vec::new();
        for &(t, seq) in &timed {
            out.extend(rb.push(seq, t));
        }
        prop_assert_eq!(rb.pending(), 0);
        prop_assert_eq!(out.len(), arrivals.len());
        let mut max_arrival_so_far = f64::NEG_INFINITY;
        for (k, rel) in out.iter().enumerate() {
            prop_assert_eq!(rel.seq, k as u64, "out of order");
            prop_assert!(rel.release_s >= rel.arrival_s);
            max_arrival_so_far = max_arrival_so_far.max(rel.arrival_s);
            // In-order delivery of seq k waits for every seq <= k.
            prop_assert!(
                rel.release_s >= max_arrival_so_far - 1e-15,
                "seq {k} released at {} before slowest predecessor {}",
                rel.release_s,
                max_arrival_so_far
            );
        }
    }

    /// The striped simulator conserves bits (per-link shares sum to the
    /// frame) and its delivery is never earlier than the pure
    /// serialization bound `F / Σr` or the slowest used member's
    /// one-way delay.
    #[test]
    fn striped_delivery_conserves_bits_and_respects_bounds(
        bundle in arb_bundle(),
        frame_bits in 1e4f64..2e6,
        policy_idx in 0usize..3,
    ) {
        let policy = [
            BondPolicy::RoundRobin,
            BondPolicy::RateWeighted,
            BondPolicy::EarliestDelivery,
        ][policy_idx];
        let mut sim = bundle.simulator(10 * TICKS_PER_SEC, policy);
        let d = sim.frame_delivery(TICKS_PER_SEC, frame_bits);
        // A fresh simulator: the delivered totals are this frame's shares.
        let per_link_bits = sim.delivered_bits();
        let total: f64 = per_link_bits.iter().sum();
        prop_assert!(
            (total - frame_bits).abs() <= frame_bits * 1e-9,
            "bits leaked: {total} vs {frame_bits}"
        );
        prop_assert!(d.delay_s >= frame_bits / bundle.nominal_sum_bps() * (1.0 - 1e-9));
        for (i, link) in bundle.links().iter().enumerate() {
            if per_link_bits[i] > 0.0 {
                prop_assert!(
                    d.delay_s >= link.owd_s() * (1.0 - 1e-12),
                    "delivered before link {i}'s one-way delay"
                );
            }
        }
        prop_assert!(d.hol_wait_s >= 0.0);
        prop_assert!(d.max_reorder_depth >= 1);
    }
}
