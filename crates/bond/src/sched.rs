//! Packet-striping schedulers.
//!
//! A bundle's sender decides, packet by packet, which member link
//! carries the next packet. The scheduler sees only *beliefs* — each
//! link's estimated delivery rate (from the per-link
//! [`LinkEstimator`](eva_net::LinkEstimator)s), its currently queued
//! bits this frame, and its base RTT — never the true trace rate, so a
//! stale or degraded belief steers real packets onto the wrong link
//! exactly as it would in a deployment.
//!
//! Three variants span the design space the strata reports describe:
//!
//! * `RoundRobin` — the naïve striper: ignores everything, deals
//!   packets in rotation. Under heterogeneous RTTs this is the
//!   multipath-penalty generator: every n-th packet crawls up the slow
//!   link and head-of-line blocks the reorder buffer.
//! * `RateWeighted` — queue-aware rate weighting: place the packet on
//!   the link whose queue drains soonest (`(queued + pkt) / rate`). In
//!   aggregate this splits bits proportionally to believed delivery
//!   rates, but it is still RTT-blind.
//! * `EarliestDelivery` — HoL-aware: place the packet where it
//!   *arrives* soonest (`(queued + pkt) / rate + rtt/2`). A slow
//!   high-RTT link only receives a packet when even its one-way delay
//!   beats the fast links' queueing backlog — the water-filling rule
//!   that recovers (and exceeds) best-single-link delivery.

/// What a scheduler may observe about one member link when placing a
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

/// A packet-striping policy: pick the member link for the next packet.
pub(crate) trait BondScheduler: Send {
    /// Stable display name (for tables and JSON results).
    fn name(&self) -> &'static str;

    /// Choose the index of the link to carry a `pkt_bits`-sized packet,
    /// given one snapshot per member. `links` is never empty; the
    /// return value must be `< links.len()`. Ties break toward the
    /// lowest index, so placement is deterministic.
    fn pick(&mut self, pkt_bits: f64, links: &[LinkSnapshot]) -> usize;

    /// Clone behind the trait object (bundles are cloned per stream
    /// split part).
    fn clone_box(&self) -> Box<dyn BondScheduler>;
}

impl Clone for Box<dyn BondScheduler> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Deal packets in rotation, blind to rates, queues and RTTs.
#[derive(Debug, Clone, Default)]
pub(crate) struct RoundRobin {
    next: usize,
}

impl BondScheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn pick(&mut self, _pkt_bits: f64, links: &[LinkSnapshot]) -> usize {
        let idx = self.next % links.len();
        self.next = (self.next + 1) % links.len();
        idx
    }

    fn clone_box(&self) -> Box<dyn BondScheduler> {
        Box::new(self.clone())
    }
}

/// Queue-aware rate weighting: shortest believed drain time wins.
#[derive(Debug, Clone, Default)]
pub(crate) struct RateWeighted;

impl BondScheduler for RateWeighted {
    fn name(&self) -> &'static str {
        "rate_weighted"
    }

    fn pick(&mut self, pkt_bits: f64, links: &[LinkSnapshot]) -> usize {
        argmin_by(links, |l| l.drain_s(pkt_bits))
    }

    fn clone_box(&self) -> Box<dyn BondScheduler> {
        Box::new(self.clone())
    }
}

/// HoL-aware earliest-delivery-first: soonest believed *arrival* wins.
#[derive(Debug, Clone, Default)]
pub(crate) struct EarliestDelivery;

impl BondScheduler for EarliestDelivery {
    fn name(&self) -> &'static str {
        "earliest_delivery"
    }

    fn pick(&mut self, pkt_bits: f64, links: &[LinkSnapshot]) -> usize {
        argmin_by(links, |l| l.arrival_s(pkt_bits))
    }

    fn clone_box(&self) -> Box<dyn BondScheduler> {
        Box::new(self.clone())
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

/// The scheduler menu as a plain value — what scenarios, experiments
/// and JSON configs name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BondPolicy {
    /// Naïve rotation (`RoundRobin`).
    RoundRobin,
    /// Queue-aware rate weighting (`RateWeighted`).
    RateWeighted,
    /// HoL-aware earliest delivery (`EarliestDelivery`) — default.
    #[default]
    EarliestDelivery,
}

impl BondPolicy {
    /// Instantiate the scheduler.
    pub(crate) fn scheduler(self) -> Box<dyn BondScheduler> {
        match self {
            BondPolicy::RoundRobin => Box::new(RoundRobin::default()),
            BondPolicy::RateWeighted => Box::new(RateWeighted),
            BondPolicy::EarliestDelivery => Box::new(EarliestDelivery),
        }
    }

    /// Stable name (matches the scheduler's `name()`).
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
        let mut rr = RoundRobin::default();
        let picks: Vec<usize> = (0..7).map(|_| rr.pick(1e4, &links)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn rate_weighted_prefers_fast_then_balances() {
        let mut links = vec![snap(10e6, 0.0, 0.0), snap(5e6, 0.0, 0.0)];
        let mut rw = RateWeighted;
        let mut counts = [0usize; 2];
        for _ in 0..30 {
            let i = rw.pick(1e4, &links);
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
        let mut edf = EarliestDelivery;
        let pkt = 12_000.0;
        let mut first_far = None;
        for k in 0..120 {
            let i = edf.pick(pkt, &links);
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
        let mut rw = RateWeighted;
        assert_eq!(
            rw.pick(pkt, &[snap(10e6, 0.0, 0.010), snap(10e6, 0.0, 0.200)]),
            0
        );
        assert_eq!(
            rw.pick(pkt, &[snap(10e6, pkt, 0.010), snap(10e6, 0.0, 0.200)]),
            1
        );
    }

    #[test]
    fn ties_break_low_index_deterministically() {
        let links = vec![snap(10e6, 0.0, 0.01); 4];
        assert_eq!(RateWeighted.pick(1e4, &links), 0);
        assert_eq!(EarliestDelivery.pick(1e4, &links), 0);
    }

    #[test]
    fn policies_roundtrip_names() {
        for p in [
            BondPolicy::RoundRobin,
            BondPolicy::RateWeighted,
            BondPolicy::EarliestDelivery,
        ] {
            assert_eq!(p.scheduler().name(), p.as_str());
        }
        assert_eq!(BondPolicy::default(), BondPolicy::EarliestDelivery);
    }

    #[test]
    fn boxed_scheduler_clones() {
        let mut rr: Box<dyn BondScheduler> = Box::new(RoundRobin::default());
        let links = vec![snap(1e6, 0.0, 0.0); 2];
        let _ = rr.pick(1e4, &links);
        let mut cloned = rr.clone();
        // Clone carries the rotation state along.
        assert_eq!(cloned.pick(1e4, &links), rr.pick(1e4, &links));
    }
}
