//! Time-ordered event queue of the DES's differential oracles.
//!
//! The DES test suite keeps the two global event loops the per-server
//! engine ([`crate::server`]) replaced: one over dedicated pipes, one
//! over shared uplinks (an uplink and a CPU station per server). Both
//! use this queue, which compiles only for tests. Every frame arrival
//! of a run is known before the event loop starts, and the loop itself
//! only ever schedules station completions. The queue exploits that split: arrivals are collected
//! into an `ArrivalList`, sorted once by `(time, push order)` and read
//! by a cursor, while completions live in a small heap holding at most
//! one event per busy station. Popping merges the two, arrival first on
//! equal time. That is exactly the `(time, push sequence)` order of one
//! heap holding every event, because every arrival is pushed before any
//! completion.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use eva_sched::Ticks;

use crate::server::Arrival;

/// Events the engine processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A frame of `stream` finishes its uplink transmission and joins
    /// the server queue. `gen_time` is when the camera captured it.
    FrameArrival {
        /// Index into the simulation's stream table.
        stream: usize,
        /// Capture timestamp (ticks).
        gen_time: Ticks,
    },
    /// `server` finishes its current frame and can dequeue the next.
    ServerDone {
        /// Server index.
        server: usize,
    },
}

/// The frame arrivals of one run, collected before the event loop
/// starts. [`EventQueue::new`] sorts them once.
#[derive(Debug, Default)]
pub(crate) struct ArrivalList {
    items: Vec<Arrival>,
}

impl ArrivalList {
    /// Empty list.
    pub(crate) fn new() -> Self {
        ArrivalList::default()
    }

    /// Record that a frame of `stream`, captured at `gen_time`, arrives
    /// at `time`.
    ///
    /// # Panics
    /// With more than `u32::MAX` streams or arrivals.
    pub(crate) fn push(&mut self, time: Ticks, stream: usize, gen_time: Ticks) {
        let (Ok(stream), Ok(push_idx)) = (u32::try_from(stream), u32::try_from(self.items.len()))
        else {
            panic!("ArrivalList: more than u32::MAX streams or arrivals");
        };
        self.items.push(Arrival {
            time,
            gen_time,
            stream,
            push_idx,
        });
    }
}

/// Min-time event queue with deterministic FIFO tie-breaking: seeded
/// arrivals first, then completions in push order.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// Seeded arrivals sorted by `(time, push_idx)`.
    arrivals: Vec<Arrival>,
    /// Index of the next unread arrival.
    next_arrival: usize,
    /// Pending completions keyed by `(time, push sequence, server)`.
    done: BinaryHeap<Reverse<(Ticks, u64, usize)>>,
    next_seq: u64,
}

impl EventQueue {
    /// A queue over the run's seeded `arrivals`.
    pub(crate) fn new(arrivals: ArrivalList) -> Self {
        let mut arrivals = arrivals.items;
        // In place: keys are unique, so the unstable sort's order is
        // fully determined, and it needs no scratch buffer.
        arrivals.sort_unstable_by_key(|a| (a.time, a.push_idx));
        EventQueue {
            arrivals,
            ..EventQueue::default()
        }
    }

    /// Schedule `server`'s completion at absolute `time`.
    pub(crate) fn push_done(&mut self, time: Ticks, server: usize) {
        self.done.push(Reverse((time, self.next_seq, server)));
        self.next_seq += 1;
    }

    /// Pop the earliest event, returning `(time, event)`.
    pub(crate) fn pop(&mut self) -> Option<(Ticks, Event)> {
        let arrival = self.arrivals.get(self.next_arrival).copied();
        let done_time = self.done.peek().map(|Reverse((t, _, _))| *t);
        match (arrival, done_time) {
            (Some(a), Some(t)) if t < a.time => self.pop_done(),
            (Some(a), _) => {
                self.next_arrival += 1;
                Some((
                    a.time,
                    Event::FrameArrival {
                        stream: a.stream as usize,
                        gen_time: a.gen_time,
                    },
                ))
            }
            (None, _) => self.pop_done(),
        }
    }

    fn pop_done(&mut self) -> Option<(Ticks, Event)> {
        let Reverse((time, _, server)) = self.done.pop()?;
        Some((time, Event::ServerDone { server }))
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.arrivals.len() - self.next_arrival + self.done.len()
    }

    /// True when no events remain.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    /// The all-in-one heap the queue replaces: every event, arrivals
    /// included, ordered by `(time, push sequence)`.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Scheduled>,
        next_seq: u64,
    }

    #[derive(Debug, Clone, Copy)]
    struct Scheduled {
        time: Ticks,
        seq: u64,
        event: Event,
    }

    impl PartialEq for Scheduled {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl Eq for Scheduled {}

    impl Ord for Scheduled {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse for min-heap behaviour in BinaryHeap (max-heap).
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl PartialOrd for Scheduled {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl HeapQueue {
        fn push(&mut self, time: Ticks, event: Event) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled { time, seq, event });
        }

        fn pop(&mut self) -> Option<(Ticks, Event)> {
            self.heap.pop().map(|s| (s.time, s.event))
        }
    }

    fn drain(q: &mut EventQueue) -> Vec<(Ticks, Event)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new(ArrivalList::new());
        q.push_done(30, 0);
        q.push_done(10, 1);
        q.push_done(20, 2);
        let order: Vec<Ticks> = drain(&mut q).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_fifo_arrivals_first() {
        let mut arrivals = ArrivalList::new();
        arrivals.push(5, 0, 0);
        arrivals.push(5, 1, 0);
        arrivals.push(3, 2, 1);
        let mut q = EventQueue::new(arrivals);
        q.push_done(5, 9);
        q.push_done(5, 8);
        let events: Vec<Event> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(
            events,
            vec![
                Event::FrameArrival {
                    stream: 2,
                    gen_time: 1
                },
                Event::FrameArrival {
                    stream: 0,
                    gen_time: 0
                },
                Event::FrameArrival {
                    stream: 1,
                    gen_time: 0
                },
                Event::ServerDone { server: 9 },
                Event::ServerDone { server: 8 },
            ]
        );
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::new(ArrivalList::new());
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push_done(1, 0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        let mut arrivals = ArrivalList::new();
        arrivals.push(4, 0, 0);
        let mut q = EventQueue::new(arrivals);
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
        assert!(q.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On dense time ties with completions scheduled between pops,
        /// the merge pops exactly the `(time, event)` sequence of the
        /// one-heap oracle.
        #[test]
        fn merge_matches_the_one_heap_oracle(
            seeded in prop::collection::vec((0u64..20, 0usize..6, 0u64..20), 0..300),
            // Per pop: how many completions to schedule, how far ahead
            // of the popped time, and on which server.
            pushes in prop::collection::vec((0usize..3, 0u64..6, 0usize..8), 0..400),
        ) {
            let mut arrivals = ArrivalList::new();
            let mut oracle = HeapQueue::default();
            for &(time, stream, gen_time) in &seeded {
                arrivals.push(time, stream, gen_time);
                oracle.push(time, Event::FrameArrival { stream, gen_time });
            }
            let mut q = EventQueue::new(arrivals);
            let mut n = 0;
            loop {
                prop_assert_eq!(q.len(), oracle.heap.len());
                let got = q.pop();
                prop_assert_eq!(got, oracle.pop(), "pop {}", n);
                let Some((now, _)) = got else { break };
                if let Some(&(k, ahead, server)) = pushes.get(n) {
                    for j in 0..k {
                        let server = server + j;
                        q.push_done(now + ahead, server);
                        oracle.push(now + ahead, Event::ServerDone { server });
                    }
                }
                n += 1;
            }
            prop_assert_eq!(n, seeded.len() + pushes.iter().take(n).map(|p| p.0).sum::<usize>());
        }
    }
}
