//! Receiver-side reorder buffer.
//!
//! Packets striped across heterogeneous links arrive out of order; the
//! receiver must release them **in sequence**, so a packet that raced
//! ahead on a fast low-RTT link waits for its predecessors crawling up
//! the slow one. That wait is head-of-line (HoL) blocking — the
//! mechanism behind the multipath penalty — and this buffer turns
//! per-packet `(seq, arrival)` pairs into in-order release times while
//! accounting for exactly how long each packet was held.

use std::collections::BTreeMap;

/// One in-order packet release.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Release {
    /// Packet sequence number.
    pub seq: u64,
    /// When the packet physically arrived (seconds).
    pub arrival_s: f64,
    /// When the buffer released it in-order (seconds, `>= arrival_s`).
    pub release_s: f64,
}

/// An in-order release buffer over a contiguous sequence space starting
/// at 0. Feed arrivals in arrival-time order; the buffer holds
/// out-of-order packets and flushes every contiguous run as soon as the
/// gap fills.
#[derive(Debug, Clone, Default)]
pub struct ReorderBuffer {
    next_seq: u64,
    held: BTreeMap<u64, f64>,
    max_depth: usize,
}

impl ReorderBuffer {
    /// An empty buffer expecting sequence 0 first.
    pub fn new() -> Self {
        ReorderBuffer::default()
    }

    /// Offer one packet arrival. Returns the packets released by this
    /// arrival, in sequence order (possibly empty if the packet is out
    /// of order and must be held). `arrival_s` must be non-decreasing
    /// across calls — the caller feeds arrivals in time order.
    pub fn push(&mut self, seq: u64, arrival_s: f64) -> Vec<Release> {
        self.held.insert(seq, arrival_s);
        self.max_depth = self.max_depth.max(self.held.len());
        let mut out = Vec::new();
        while let Some(held_arrival) = self.held.remove(&self.next_seq) {
            out.push(Release {
                seq: self.next_seq,
                arrival_s: held_arrival,
                // Everything in a flushed run releases at the arrival
                // instant that completed the run.
                release_s: arrival_s,
            });
            self.next_seq += 1;
        }
        out
    }

    /// Deepest the buffer ever got (held packets), a direct HoL gauge.
    #[cfg(test)]
    pub(crate) fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Packets still held (non-zero only if the sequence has gaps).
    pub fn pending(&self) -> usize {
        self.held.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_arrivals_release_immediately() {
        let mut rb = ReorderBuffer::new();
        for seq in 0..5u64 {
            let t = seq as f64 * 0.01;
            let rel = rb.push(seq, t);
            assert_eq!(rel.len(), 1);
            assert_eq!(rel[0].seq, seq);
            assert_eq!(rel[0].release_s, t);
            assert_eq!(rel[0].arrival_s, t);
        }
        assert_eq!(rb.max_depth(), 1);
        assert_eq!(rb.pending(), 0);
    }

    #[test]
    fn out_of_order_packet_waits_for_the_gap() {
        let mut rb = ReorderBuffer::new();
        // seq 1 and 2 race ahead; seq 0 crawls in last.
        assert!(rb.push(1, 0.010).is_empty());
        assert!(rb.push(2, 0.012).is_empty());
        let rel = rb.push(0, 0.150);
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        // All three release when the straggler lands.
        assert!(rel.iter().all(|r| r.release_s == 0.150));
        // Held packets kept their true arrival stamps.
        assert_eq!(rel[1].arrival_s, 0.010);
        assert_eq!(rb.max_depth(), 3);
        assert_eq!(rb.pending(), 0);
    }

    #[test]
    fn partial_flush_keeps_later_gaps() {
        let mut rb = ReorderBuffer::new();
        assert!(rb.push(2, 0.01).is_empty());
        let rel = rb.push(0, 0.02);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel[0].seq, 0);
        assert_eq!(rb.pending(), 1); // seq 2 still waits for 1
        let rel = rb.push(1, 0.03);
        assert_eq!(rel.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(rb.pending(), 0);
    }

    #[test]
    fn releases_never_precede_arrivals() {
        let mut rb = ReorderBuffer::new();
        let arrivals = [(3u64, 0.01), (1, 0.02), (0, 0.05), (2, 0.06), (4, 0.06)];
        let mut all = Vec::new();
        for (seq, t) in arrivals {
            all.extend(rb.push(seq, t));
        }
        assert_eq!(all.len(), 5);
        for r in &all {
            assert!(r.release_s >= r.arrival_s, "{r:?}");
        }
        // Release times are non-decreasing in sequence order.
        for w in all.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
            assert!(w[1].release_s >= w[0].release_s);
        }
    }
}
