//! Fault-aware extensions to the DES engine.
//!
//! Bridges `eva-fault`'s declarative [`FaultPlan`] and the event loop in
//! [`crate::des`]:
//!
//! * [`SimFaults`] — the plan materialized into concrete traces over the
//!   simulation horizon (one availability/slowdown trace per server, one
//!   availability trace + loss process per camera),
//! * [`plan_stream_deliveries`] — the pure per-frame *fate* planner:
//!   camera dropout, per-attempt loss with bounded retry + exponential
//!   backoff, deadline-based give-up, and the per-stream FIFO clamp that
//!   keeps retransmissions from reordering a camera's frames,
//! * `service_end` — completion-time integration over a server's
//!   availability and slowdown traces (processing pauses across
//!   outages and dilates by the straggler factor).
//!
//! Everything here is deterministic given the plan's seeds, so faulted
//! runs replay exactly — and a zero plan must be observationally
//! identical to no plan at all (enforced by [`crate::des::simulate`]
//! running an inert [`crate::des::Uplinks::Faulted`] as the
//! fault-oblivious engine).

use eva_fault::{AvailabilityTrace, FaultPlan, LossProcess, RetryPolicy, SlowdownTrace};
use eva_net::link::{count_at_or_before, secs_to_ticks};
use eva_sched::Ticks;

use crate::des::{SimConfig, SimStream, StreamLink};

/// A [`FaultPlan`] materialized for one simulation run.
#[derive(Debug, Clone)]
pub struct SimFaults {
    /// Per-server crash/recovery trajectory.
    pub server_up: Vec<AvailabilityTrace>,
    /// Per-server straggler trajectory.
    pub server_slow: Vec<SlowdownTrace>,
    /// Per-camera dropout/rejoin trajectory (indexed by source camera).
    pub camera_up: Vec<AvailabilityTrace>,
    /// Per-camera uplink loss process (indexed by source camera).
    pub loss: Vec<LossProcess>,
    /// Lost-frame retransmission policy.
    pub retry: RetryPolicy,
}

impl SimFaults {
    /// Materialize `plan` over `[0, horizon)` ticks.
    pub fn materialize(plan: &FaultPlan, horizon: Ticks) -> Self {
        SimFaults {
            server_up: plan.server_availability(horizon),
            server_slow: plan.server_slowdown(horizon),
            camera_up: plan.camera_availability(horizon),
            loss: plan.cameras.iter().map(|c| c.loss).collect(),
            retry: plan.retry,
        }
    }

    /// True when no materialized process can ever fire — the faulted
    /// engine must then behave bit-identically to the plain one.
    pub fn is_inert(&self) -> bool {
        self.server_up.iter().all(|t| t.toggles().is_empty())
            && self
                .server_slow
                .iter()
                .all(|t| t.next_toggle_after(0).is_none())
            && self.camera_up.iter().all(|t| t.toggles().is_empty())
            && self.loss.iter().all(|l| l.p <= 0.0)
    }
}

/// The planned fate of one frame of one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFrame {
    /// Frame number within its stream (0-based).
    pub frame: u64,
    /// Capture timestamp (ticks).
    pub gen_time: Ticks,
    /// Server-arrival time, or `None` if the frame is dropped (camera
    /// down at capture, retries exhausted, or deadline give-up).
    pub arrival: Option<Ticks>,
    /// Transmissions performed (0 = the frame was never captured).
    pub attempts: u32,
}

/// Plan the delivery (or loss) of every frame of stream `s` within the
/// horizon. Pure: the same inputs always produce the same plan.
///
/// Per frame, in order:
/// 1. camera down at capture → the frame never exists;
/// 2. attempt 0 uses the fault-oblivious arrival formula, so a loss-free
///    frame arrives exactly when the plain engine would deliver it;
/// 3. each lost attempt `k` waits `backoff(k)` (doubling) after the
///    previous transmission ends, then resends — bounded by the retry
///    budget, by the per-frame delivery deadline (a resend that cannot
///    start before `capture + deadline` is pointless), and by the
///    camera's own availability (its buffer dies with it);
/// 4. delivered arrivals are clamped to be non-decreasing per stream:
///    the camera sends FIFO, so a retried frame delays its successors
///    rather than being overtaken by them.
pub fn plan_stream_deliveries(
    stream_idx: usize,
    s: &SimStream,
    link: Option<&StreamLink>,
    cam_up: &AvailabilityTrace,
    loss: &LossProcess,
    retry: &RetryPolicy,
    cfg: &SimConfig,
) -> Vec<PlannedFrame> {
    // The trace is read at captures and retry starts, which mostly
    // grow, so each read starts where the last one left off.
    let mut seen = 0;
    let mut dur_at = |t: Ticks| -> Ticks {
        match link {
            None => s.trans,
            Some(l) => secs_to_ticks(l.bits_per_frame / l.trace.rate_from(&mut seen, t)),
        }
    };
    let mut out = Vec::new();
    let mut last_arrival: Ticks = 0;
    let mut k: Ticks = 0;
    loop {
        let slot = s.phase + k * s.period;
        if slot >= cfg.horizon {
            break;
        }
        let gen_time = slot.saturating_sub(s.trans);
        if !cam_up.is_up(gen_time) {
            out.push(PlannedFrame {
                frame: k,
                gen_time,
                arrival: None,
                attempts: 0,
            });
            k += 1;
            continue;
        }
        // Attempt 0: the plain engine's arrival formula (back-dated
        // capture), so loss-free frames are delivered identically.
        let first_end = match link {
            None => slot,
            Some(_) => (slot + dur_at(gen_time)).saturating_sub(s.trans),
        };
        let mut delivered = None;
        let mut attempts = 1u32;
        if !loss.is_lost(stream_idx, k, 0) {
            delivered = Some(first_end);
        } else {
            let mut prev_end = first_end;
            for a in 1..=retry.max_retries {
                let start = prev_end + retry.backoff_ticks(a);
                if cfg.deadline > 0 && start > gen_time + cfg.deadline {
                    break;
                }
                if !cam_up.is_up(start) {
                    break;
                }
                attempts += 1;
                let end = start + dur_at(start);
                if !loss.is_lost(stream_idx, k, a) {
                    delivered = Some(end);
                    break;
                }
                prev_end = end;
            }
        }
        let arrival = delivered.map(|t| {
            let clamped = t.max(last_arrival);
            last_arrival = clamped;
            clamped
        });
        out.push(PlannedFrame {
            frame: k,
            gen_time,
            arrival,
            attempts,
        });
        k += 1;
    }
    out
}

/// Where a server's replay last read its availability and slowdown
/// traces: per trace, the number of toggles at or before the last time
/// read. A server starts its frames at nondecreasing times, so each
/// read steps forward from there.
#[derive(Debug, Default)]
pub(crate) struct TraceCursor {
    up: usize,
    slow: usize,
}

/// When does a frame started at `start` with nominal processing time
/// `proc` complete on a server with the given availability and slowdown
/// traces? `at` is where the server's previous frame left off reading
/// them; any cursor gives the same answer.
///
/// Work accrues at rate `1/factor` while the server is up and not at
/// all while it is down (processing pauses across outages and resumes
/// on recovery — a warm restart). Returns `None` when the frame cannot
/// finish by `give_up_at` or the server never recovers within the
/// materialized trace — the caller counts such frames as dropped
/// instead of leaving them stuck.
pub(crate) fn service_end(
    start: Ticks,
    proc: Ticks,
    up: &AvailabilityTrace,
    slow: &SlowdownTrace,
    give_up_at: Ticks,
    at: &mut TraceCursor,
) -> Option<Ticks> {
    // Fault-free server: exact integer arithmetic, no f64 rounding.
    if up.toggles().is_empty() && slow.next_toggle_after(0).is_none() {
        return Some(start + proc);
    }
    let mut t = start;
    let mut work = proc as f64; // nominal ticks of work remaining
    loop {
        if t > give_up_at {
            return None;
        }
        // Toggles at or before `t`: odd = down (or slow), and the next
        // toggle is the one after them.
        let up_flips = count_at_or_before(up.toggles(), &mut at.up, t);
        let next_up_toggle = up.toggles().get(up_flips).copied();
        if !up_flips.is_multiple_of(2) {
            // A trace that ends down stays down: resume past the horizon.
            let resume = next_up_toggle.unwrap_or(up.horizon().max(t) + 1);
            if resume > up.horizon() || resume > give_up_at {
                return None; // never recovers within the trace
            }
            t = resume;
            continue;
        }
        let slow_flips = count_at_or_before(slow.toggles(), &mut at.slow, t);
        let f = if slow_flips.is_multiple_of(2) {
            1.0
        } else {
            slow.factor()
        };
        let next_slow_toggle = slow.toggles().get(slow_flips).copied();
        let boundary = match (next_up_toggle, next_slow_toggle) {
            (None, None) => None,
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (Some(a), Some(b)) => Some(a.min(b)),
        };
        match boundary {
            None => return Some(t + (work * f).ceil() as Ticks),
            Some(b) => {
                let capacity = (b - t) as f64 / f;
                if capacity >= work {
                    return Some(t + (work * f).ceil() as Ticks);
                }
                work -= capacity;
                t = b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_sched::{StreamId, TICKS_PER_SEC};

    fn stream(period: Ticks, trans: Ticks, phase: Ticks) -> SimStream {
        SimStream {
            id: StreamId::source(0),
            period,
            proc: 10_000,
            trans,
            server: 0,
            phase,
        }
    }

    fn cfg() -> SimConfig {
        SimConfig {
            horizon: 10 * TICKS_PER_SEC,
            warmup: TICKS_PER_SEC,
            deadline: 0,
        }
    }

    #[test]
    fn loss_free_plan_matches_plain_arrivals() {
        let s = stream(100_000, 5_000, 2_000);
        let plan = plan_stream_deliveries(
            0,
            &s,
            None,
            &AvailabilityTrace::perfect(10 * TICKS_PER_SEC),
            &LossProcess::none(),
            &RetryPolicy::standard(),
            &cfg(),
        );
        assert_eq!(plan.len(), 100);
        for (k, pf) in plan.iter().enumerate() {
            let slot = 2_000 + k as Ticks * 100_000;
            assert_eq!(pf.arrival, Some(slot));
            assert_eq!(pf.gen_time, slot.saturating_sub(5_000));
            assert_eq!(pf.attempts, 1);
        }
    }

    #[test]
    fn camera_outage_kills_captures_in_window() {
        let s = stream(100_000, 0, 0);
        // Down during [2s, 4s).
        let cam = AvailabilityTrace::from_toggles(
            vec![2 * TICKS_PER_SEC, 4 * TICKS_PER_SEC],
            10 * TICKS_PER_SEC,
        );
        let plan = plan_stream_deliveries(
            0,
            &s,
            None,
            &cam,
            &LossProcess::none(),
            &RetryPolicy::standard(),
            &cfg(),
        );
        for pf in &plan {
            let in_window = pf.gen_time >= 2 * TICKS_PER_SEC && pf.gen_time < 4 * TICKS_PER_SEC;
            assert_eq!(pf.arrival.is_none(), in_window, "frame {}", pf.frame);
        }
        let dropped = plan.iter().filter(|p| p.arrival.is_none()).count();
        assert_eq!(dropped, 20);
    }

    #[test]
    fn retries_deliver_late_and_never_reorder() {
        let s = stream(100_000, 5_000, 0);
        let lossy = LossProcess::bernoulli(0.4, 11);
        let plan = plan_stream_deliveries(
            0,
            &s,
            None,
            &AvailabilityTrace::perfect(10 * TICKS_PER_SEC),
            &lossy,
            &RetryPolicy::standard(),
            &cfg(),
        );
        let mut last = 0;
        let mut retried = 0;
        for pf in &plan {
            if let Some(a) = pf.arrival {
                assert!(a >= last, "frame {} reordered", pf.frame);
                last = a;
                if pf.attempts > 1 {
                    retried += 1;
                    // A retry can only delay delivery past the slot.
                    assert!(a > s.phase + pf.frame * s.period);
                }
            }
        }
        assert!(retried > 5, "loss never exercised retries");
    }

    #[test]
    fn no_retry_drops_at_loss_rate() {
        let s = stream(10_000, 0, 0);
        let lossy = LossProcess::bernoulli(0.3, 5);
        let plan = plan_stream_deliveries(
            0,
            &s,
            None,
            &AvailabilityTrace::perfect(10 * TICKS_PER_SEC),
            &lossy,
            &RetryPolicy::no_retry(),
            &cfg(),
        );
        let dropped = plan.iter().filter(|p| p.arrival.is_none()).count();
        let rate = dropped as f64 / plan.len() as f64;
        assert!((rate - 0.3).abs() < 0.05, "drop rate {rate}");
    }

    #[test]
    fn deadline_bounds_retry_attempts() {
        let s = stream(100_000, 5_000, 0);
        // Everything is lost; a 30 ms deadline admits at most one 20 ms
        // backoff, so no frame burns the full 3-retry budget.
        let lossy = LossProcess::bernoulli(0.999, 1);
        let tight = SimConfig {
            deadline: 30_000,
            ..cfg()
        };
        let plan = plan_stream_deliveries(
            0,
            &s,
            None,
            &AvailabilityTrace::perfect(10 * TICKS_PER_SEC),
            &lossy,
            &RetryPolicy::standard(),
            &tight,
        );
        assert!(plan.iter().all(|p| p.attempts <= 2), "deadline ignored");
    }

    #[test]
    fn service_end_exact_when_fault_free() {
        let up = AvailabilityTrace::perfect(TICKS_PER_SEC);
        let slow = SlowdownTrace::nominal();
        assert_eq!(
            service_end(
                1_000,
                20_000,
                &up,
                &slow,
                u64::MAX,
                &mut TraceCursor::default()
            ),
            Some(21_000)
        );
    }

    #[test]
    fn service_pauses_across_outage() {
        // Down during [10_000, 50_000): a frame started at 0 with 20_000
        // of work does 10_000 before the crash and 10_000 after repair.
        let up = AvailabilityTrace::from_toggles(vec![10_000, 50_000], TICKS_PER_SEC);
        let slow = SlowdownTrace::nominal();
        assert_eq!(
            service_end(0, 20_000, &up, &slow, u64::MAX, &mut TraceCursor::default()),
            Some(60_000)
        );
    }

    #[test]
    fn straggler_dilates_service() {
        let up = AvailabilityTrace::perfect(TICKS_PER_SEC);
        // Slow (factor 3) from t = 5_000 on.
        let slow = SlowdownTrace::from_toggles(vec![5_000], 3.0);
        // 5_000 of work at speed 1, the remaining 5_000 at 1/3 speed.
        assert_eq!(
            service_end(0, 10_000, &up, &slow, u64::MAX, &mut TraceCursor::default()),
            Some(20_000)
        );
    }

    #[test]
    fn dead_server_never_completes() {
        // Crashes at 1_000 and the trace ends down.
        let up = AvailabilityTrace::from_toggles(vec![1_000], TICKS_PER_SEC);
        let slow = SlowdownTrace::nominal();
        assert_eq!(
            service_end(0, 20_000, &up, &slow, u64::MAX, &mut TraceCursor::default()),
            None
        );
        // Started while already down: same verdict.
        assert_eq!(
            service_end(
                5_000,
                20_000,
                &up,
                &slow,
                u64::MAX,
                &mut TraceCursor::default()
            ),
            None
        );
    }

    #[test]
    fn give_up_bound_is_respected() {
        let up = AvailabilityTrace::from_toggles(vec![10_000, 90_000], TICKS_PER_SEC);
        let slow = SlowdownTrace::nominal();
        // Completion would land at 100_000 > give_up_at 50_000.
        assert_eq!(
            service_end(0, 20_000, &up, &slow, 50_000, &mut TraceCursor::default()),
            None
        );
    }

    #[test]
    fn inert_materialization_detected() {
        let plan = FaultPlan::none(2, 3);
        let f = SimFaults::materialize(&plan, TICKS_PER_SEC);
        assert!(f.is_inert());
        let faulty = FaultPlan::none(2, 3).with_frame_loss(0.1, 1);
        assert!(!SimFaults::materialize(&faulty, TICKS_PER_SEC).is_inert());
    }
}
