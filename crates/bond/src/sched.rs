//! Packet-striping policies.
//!
//! A bundle's sender decides, packet by packet, which member link
//! carries the next packet. The policy sees only *beliefs* — each
//! link's estimated delivery rate (from the per-link
//! [`LinkEstimator`](eva_net::LinkEstimator)s), its currently queued
//! bits this frame, and its base RTT — never the true trace rate, so a
//! stale or degraded belief steers real packets onto the wrong link
//! exactly as it would in a deployment.
//!
//! Three variants span the design space the strata reports describe:
//!
//! * [`BondPolicy::RoundRobin`] — the naïve striper: ignores
//!   everything, deals packets in rotation. Under heterogeneous RTTs
//!   this is the multipath-penalty generator: every n-th packet crawls
//!   up the slow link and head-of-line blocks the reorder buffer.
//! * [`BondPolicy::RateWeighted`] — queue-aware rate weighting: place
//!   the packet on the link whose queue drains soonest
//!   (`(queued + pkt) / rate`). In aggregate this splits bits
//!   proportionally to believed delivery rates, but it is still
//!   RTT-blind.
//! * [`BondPolicy::EarliestDelivery`] — HoL-aware: place the packet
//!   where it *arrives* soonest (`(queued + pkt) / rate + rtt/2`). A
//!   slow high-RTT link only receives a packet when even its one-way
//!   delay beats the fast links' queueing backlog — the water-filling
//!   rule that recovers (and exceeds) best-single-link delivery.
//!
//! The only state any policy keeps is round-robin's rotation cursor,
//! which the caller owns (a [`BundleSim`](crate::BundleSim) field), so
//! a policy is a plain value.

/// What a policy may observe about one member link when placing a
/// packet: beliefs and local queue state, not ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LinkSnapshot {
    /// Believed delivery rate (bits/s) — estimator output, falling back
    /// to the model's nominal rate before any observation.
    pub rate_bps: f64,
    /// Bits already queued on this link for the current frame.
    pub queued_bits: f64,
    /// Base round-trip time (seconds); one-way delay is `rtt_s / 2`.
    pub rtt_s: f64,
}

impl LinkSnapshot {
    /// Seconds until a packet of `pkt_bits` finishes serializing behind
    /// the current queue.
    fn drain_s(&self, pkt_bits: f64) -> f64 {
        (self.queued_bits + pkt_bits) / self.rate_bps.max(f64::MIN_POSITIVE)
    }

    /// Seconds until that packet *arrives* at the receiver.
    fn arrival_s(&self, pkt_bits: f64) -> f64 {
        self.drain_s(pkt_bits) + self.rtt_s * 0.5
    }
}

/// Index of the smallest key; first index wins ties (deterministic).
fn argmin_by(links: &[LinkSnapshot], key: impl Fn(&LinkSnapshot) -> f64) -> usize {
    let mut best = 0;
    let mut best_key = f64::INFINITY;
    for (i, l) in links.iter().enumerate() {
        let k = key(l);
        if k < best_key {
            best = i;
            best_key = k;
        }
    }
    best
}

/// The packet-striping policy of a bundle — what scenarios,
/// experiments and JSON configs name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BondPolicy {
    /// Naïve rotation.
    RoundRobin,
    /// Queue-aware rate weighting: shortest believed drain time wins.
    RateWeighted,
    /// HoL-aware earliest delivery: soonest believed *arrival* wins —
    /// default.
    #[default]
    EarliestDelivery,
}

impl BondPolicy {
    /// Choose the index of the link to carry a `pkt_bits`-sized packet,
    /// given one snapshot per member. `links` is never empty; the
    /// return value is `< links.len()`. Ties break toward the lowest
    /// index, so placement is deterministic. `rr_cursor` is the
    /// round-robin rotation state: round-robin deals from it and
    /// advances it, the other policies leave it alone.
    pub(crate) fn pick(
        self,
        rr_cursor: &mut usize,
        pkt_bits: f64,
        links: &[LinkSnapshot],
    ) -> usize {
        match self {
            BondPolicy::RoundRobin => {
                let idx = *rr_cursor % links.len();
                *rr_cursor = (idx + 1) % links.len();
                idx
            }
            BondPolicy::RateWeighted => argmin_by(links, |l| l.drain_s(pkt_bits)),
            BondPolicy::EarliestDelivery => argmin_by(links, |l| l.arrival_s(pkt_bits)),
        }
    }

    /// Stable display name (for tables and JSON results).
    pub fn as_str(self) -> &'static str {
        match self {
            BondPolicy::RoundRobin => "round_robin",
            BondPolicy::RateWeighted => "rate_weighted",
            BondPolicy::EarliestDelivery => "earliest_delivery",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(rate_bps: f64, queued_bits: f64, rtt_s: f64) -> LinkSnapshot {
        LinkSnapshot {
            rate_bps,
            queued_bits,
            rtt_s,
        }
    }

    #[test]
    fn round_robin_rotates() {
        let links = vec![snap(1e6, 0.0, 0.0); 3];
        let mut cursor = 0;
        let picks: Vec<usize> = (0..7)
            .map(|_| BondPolicy::RoundRobin.pick(&mut cursor, 1e4, &links))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(cursor, 1);
    }

    #[test]
    fn only_round_robin_moves_the_cursor() {
        let links = vec![snap(1e6, 0.0, 0.0); 3];
        for policy in [BondPolicy::RateWeighted, BondPolicy::EarliestDelivery] {
            let mut cursor = 2;
            assert_eq!(policy.pick(&mut cursor, 1e4, &links), 0);
            assert_eq!(cursor, 2, "{policy:?}");
        }
    }

    #[test]
    fn rate_weighted_prefers_fast_then_balances() {
        let mut links = vec![snap(10e6, 0.0, 0.0), snap(5e6, 0.0, 0.0)];
        let mut cursor = 0;
        let mut counts = [0usize; 2];
        for _ in 0..30 {
            let i = BondPolicy::RateWeighted.pick(&mut cursor, 1e4, &links);
            links[i].queued_bits += 1e4;
            counts[i] += 1;
        }
        // 2:1 rate split → 2:1 packet split.
        assert_eq!(counts, [20, 10]);
    }

    #[test]
    fn earliest_delivery_skips_high_rtt_until_backlog_justifies_it() {
        // Fast link: 10 Mbps, 10 ms RTT. Slow link: 10 Mbps, 200 ms RTT.
        // Same rate — only RTT differs, so EDF uses the far link only
        // once the near queue exceeds the RTT gap (95 ms ≙ 950 kbit).
        let mut links = vec![snap(10e6, 0.0, 0.010), snap(10e6, 0.0, 0.200)];
        let mut cursor = 0;
        let pkt = 12_000.0;
        let mut first_far = None;
        for k in 0..120 {
            let i = BondPolicy::EarliestDelivery.pick(&mut cursor, pkt, &links);
            links[i].queued_bits += pkt;
            if i == 1 && first_far.is_none() {
                first_far = Some(k);
            }
        }
        let first_far = first_far.unwrap_or(usize::MAX);
        // 950 kbit backlog / 12 kbit packets ≈ packet 80.
        assert!(
            (75..=85).contains(&first_far),
            "far link first used at packet {first_far}"
        );
        // RateWeighted, RTT-blind, would have alternated from the start.
        let rw = |links: &[LinkSnapshot]| BondPolicy::RateWeighted.pick(&mut 0, pkt, links);
        assert_eq!(rw(&[snap(10e6, 0.0, 0.010), snap(10e6, 0.0, 0.200)]), 0);
        assert_eq!(rw(&[snap(10e6, pkt, 0.010), snap(10e6, 0.0, 0.200)]), 1);
    }

    #[test]
    fn ties_break_low_index_deterministically() {
        let links = vec![snap(10e6, 0.0, 0.01); 4];
        assert_eq!(BondPolicy::RateWeighted.pick(&mut 0, 1e4, &links), 0);
        assert_eq!(BondPolicy::EarliestDelivery.pick(&mut 0, 1e4, &links), 0);
    }

    #[test]
    fn policies_have_distinct_names() {
        let names = [
            BondPolicy::RoundRobin,
            BondPolicy::RateWeighted,
            BondPolicy::EarliestDelivery,
        ]
        .map(BondPolicy::as_str);
        assert_eq!(names, ["round_robin", "rate_weighted", "earliest_delivery"]);
        assert_eq!(BondPolicy::default(), BondPolicy::EarliestDelivery);
    }
}
