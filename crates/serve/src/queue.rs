//! The admission retry queue with overload backpressure.
//!
//! Blocked arrivals wait here for capacity (a departure, a server
//! restore, or an epoch boundary). Pre-overload behavior is a plain
//! bounded FIFO; the overload control plane adds two shedding paths,
//! both oldest-first (FIFO order doubles as age order because entries
//! are enqueued with monotone timestamps and retries keep their
//! original enqueue time):
//!
//! * **age shedding** — [`RetryQueue::expire`] drops waiters older
//!   than `max_age_s`,
//! * **high-water shedding** — at or above the `high_water` depth the
//!   queue reports [`RetryQueue::under_pressure`] (the serving loop
//!   switches to coalesced batch repairs) and
//!   [`RetryQueue::shed_to_high_water`] drops the oldest waiters until
//!   the depth is back at the mark.
//!
//! With the [`AdmissionConfig`] defaults (`max_queue_age_s = ∞`,
//! `high_water = usize::MAX`) neither path ever fires and the queue is
//! behavior-identical to the pre-overload FIFO.

use std::collections::VecDeque;

use crate::admission::AdmissionConfig;

/// One waiting tenant and when it first queued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueEntry {
    /// Tenant id.
    pub tenant: u64,
    /// Simulation time of the *original* enqueue (retries keep it, so
    /// age measures total time waiting, not time since last retry).
    pub enqueued_at_s: f64,
}

/// Bounded FIFO retry queue with age- and depth-based shedding.
#[derive(Debug, Clone)]
pub struct RetryQueue {
    entries: VecDeque<QueueEntry>,
    capacity: usize,
    max_age_s: f64,
    high_water: usize,
    peak: usize,
    shed: u64,
}

impl RetryQueue {
    /// Build from the admission policy's queue knobs.
    pub fn new(cfg: &AdmissionConfig) -> Self {
        RetryQueue {
            entries: VecDeque::new(),
            capacity: cfg.queue_capacity,
            max_age_s: cfg.max_queue_age_s,
            high_water: cfg.high_water,
            peak: 0,
            shed: 0,
        }
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Deepest the queue has ever been.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total tenants shed (age + high-water), for run accounting.
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Whether the depth is at or above the high-water mark (the
    /// serving loop coalesces replans while this holds).
    pub fn under_pressure(&self) -> bool {
        self.entries.len() >= self.high_water
    }

    /// FIFO snapshot of the waiting entries (front = oldest).
    pub fn entries(&self) -> impl Iterator<Item = &QueueEntry> {
        self.entries.iter()
    }

    /// Enqueue a fresh arrival at `now_s`. Returns `false` (and drops
    /// nothing) when the queue is at capacity — the caller rejects.
    pub fn try_push(&mut self, tenant: u64, now_s: f64) -> bool {
        self.try_push_entry(QueueEntry {
            tenant,
            enqueued_at_s: now_s,
        })
    }

    /// Re-enqueue a previously popped entry (keeps its original
    /// enqueue time). Same capacity rule as [`try_push`].
    ///
    /// [`try_push`]: RetryQueue::try_push
    pub(crate) fn try_push_entry(&mut self, entry: QueueEntry) -> bool {
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.push_back(entry);
        self.peak = self.peak.max(self.entries.len());
        true
    }

    /// Pop the oldest waiter.
    pub fn pop_front(&mut self) -> Option<QueueEntry> {
        self.entries.pop_front()
    }

    /// Put the oldest waiter back at the front (a failed retry that
    /// should keep its place in line).
    pub fn push_front(&mut self, entry: QueueEntry) {
        self.entries.push_front(entry);
        self.peak = self.peak.max(self.entries.len());
    }

    /// Remove a specific tenant (it departed while still queued).
    /// Returns whether it was present.
    pub fn remove(&mut self, tenant: u64) -> bool {
        if let Some(pos) = self.entries.iter().position(|e| e.tenant == tenant) {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// Shed every waiter older than `max_age_s` at `now_s`, oldest
    /// first. Returns the shed entries in shed order.
    pub fn expire(&mut self, now_s: f64) -> Vec<QueueEntry> {
        let mut out = Vec::new();
        if self.max_age_s.is_infinite() {
            return out;
        }
        // FIFO order is age order: stop at the first young-enough entry.
        while let Some(&front) = self.entries.front() {
            if now_s - front.enqueued_at_s > self.max_age_s {
                self.entries.pop_front();
                self.shed += 1;
                out.push(front);
            } else {
                break;
            }
        }
        out
    }

    /// Shed the oldest waiters until the depth is back at the
    /// high-water mark. Returns the shed entries in shed order.
    pub fn shed_to_high_water(&mut self) -> Vec<QueueEntry> {
        let mut out = Vec::new();
        while self.entries.len() > self.high_water {
            if let Some(e) = self.entries.pop_front() {
                self.shed += 1;
                out.push(e);
            } else {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(capacity: usize, max_age_s: f64, high_water: usize) -> AdmissionConfig {
        AdmissionConfig {
            queue_capacity: capacity,
            max_queue_age_s: max_age_s,
            high_water,
            ..AdmissionConfig::default()
        }
    }

    #[test]
    fn capacity_is_a_hard_bound() {
        let mut q = RetryQueue::new(&cfg(2, f64::INFINITY, usize::MAX));
        assert!(q.try_push(1, 0.0));
        assert!(q.try_push(2, 1.0));
        assert!(!q.try_push(3, 2.0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak(), 2);
    }

    #[test]
    fn expire_sheds_oldest_first_and_only_the_old() {
        let mut q = RetryQueue::new(&cfg(8, 10.0, usize::MAX));
        q.try_push(1, 0.0);
        q.try_push(2, 5.0);
        q.try_push(3, 14.0);
        let shed = q.expire(16.0); // ages 16, 11, 2
        assert_eq!(shed.iter().map(|e| e.tenant).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.shed_count(), 2);
        assert!(q.expire(16.0).is_empty());
    }

    #[test]
    fn high_water_sheds_down_to_the_mark() {
        let mut q = RetryQueue::new(&cfg(8, f64::INFINITY, 2));
        for (t, at) in [(1, 0.0), (2, 1.0), (3, 2.0), (4, 3.0)] {
            q.try_push(t, at);
        }
        assert!(q.under_pressure());
        let shed = q.shed_to_high_water();
        assert_eq!(shed.iter().map(|e| e.tenant).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(q.len(), 2);
        assert!(q.under_pressure(), "at the mark still counts as pressure");
    }

    #[test]
    fn retry_keeps_original_enqueue_time() {
        let mut q = RetryQueue::new(&cfg(4, 10.0, usize::MAX));
        q.try_push(7, 0.0);
        let e = q.pop_front().unwrap();
        assert!(q.try_push_entry(e));
        let shed = q.expire(10.5);
        assert_eq!(shed.len(), 1, "age counts from the original enqueue");
    }

    #[test]
    fn default_config_never_sheds() {
        let mut q = RetryQueue::new(&AdmissionConfig::default());
        for t in 0..5 {
            q.try_push(t, t as f64);
        }
        assert!(q.expire(1e12).is_empty());
        assert!(q.shed_to_high_water().is_empty());
        assert!(!q.under_pressure());
        assert_eq!(q.shed_count(), 0);
    }

    #[test]
    fn remove_targets_the_right_tenant() {
        let mut q = RetryQueue::new(&cfg(4, f64::INFINITY, usize::MAX));
        q.try_push(1, 0.0);
        q.try_push(2, 1.0);
        q.try_push(3, 2.0);
        assert!(q.remove(2));
        assert!(!q.remove(9));
        let order: Vec<u64> = q.entries().map(|e| e.tenant).collect();
        assert_eq!(order, [1, 3]);
    }
}
