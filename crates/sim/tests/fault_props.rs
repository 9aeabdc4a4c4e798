//! Property tests for the fault-aware DES layer.
//!
//! Two invariants the fault machinery must never violate:
//!
//! 1. **FIFO per camera** — bounded retry with exponential backoff may
//!    delay frames, but a camera sends in capture order, so delivered
//!    arrivals must be non-decreasing in frame number no matter which
//!    subset of transmissions the loss process kills.
//! 2. **Pay-for-what-you-use** — an inert fault plan (no crashes, no
//!    dropout, zero loss) must reproduce the fault-oblivious engine
//!    bit-identically: same frames, same latencies to the last mantissa
//!    bit.

use eva_fault::{AvailabilityTrace, FaultPlan, LossProcess, RetryPolicy};
use eva_obs::NoopRecorder;
use eva_sched::{StreamId, Ticks, TICKS_PER_SEC};
use eva_sim::{
    plan_stream_deliveries, simulate, SimConfig, SimFaults, SimReport, SimStream, Uplinks,
};
use proptest::prelude::*;

fn stream(source: usize, period: Ticks, proc: Ticks, trans: Ticks, server: usize) -> SimStream {
    SimStream {
        id: StreamId::source(source),
        period,
        proc,
        trans,
        server,
        phase: 0,
    }
}

fn assert_reports_bit_identical(a: &SimReport, b: &SimReport) {
    assert_eq!(a.streams.len(), b.streams.len());
    for (x, y) in a.streams.iter().zip(&b.streams) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.frames, y.frames);
        assert_eq!(x.deadline_misses, y.deadline_misses);
        assert_eq!(x.jitter_s.to_bits(), y.jitter_s.to_bits());
        assert_eq!(x.latency.mean().to_bits(), y.latency.mean().to_bits());
    }
    assert_eq!(a.max_queue_len, b.max_queue_len);
    assert_eq!(a.mean_latency_s.to_bits(), b.mean_latency_s.to_bits());
    for (x, y) in a.server_utilization.iter().zip(&b.server_utilization) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Retry + backoff never reorders a camera's frames, for any loss
    /// probability, retry budget, backoff, timing, or deadline.
    #[test]
    fn retries_never_reorder_same_camera_frames(
        mult in 1u64..=10,
        proc in 1_000u64..=40_000,
        trans in 0u64..=30_000,
        p in 0.0f64..=0.9,
        loss_seed in 0u64..=1_000,
        max_retries in 0u32..=6,
        backoff_ms in 0u64..=200,
        deadline_ms in 0u64..=2_000, // 0 disables the deadline
    ) {
        let period = mult * 50_000; // 50ms..500ms at 1 MHz ticks
        let s = stream(0, period, proc.min(period), trans, 0);
        let cfg = SimConfig {
            horizon: 20 * TICKS_PER_SEC,
            warmup: 0,
            deadline: deadline_ms * (TICKS_PER_SEC / 1000),
        };
        let retry = RetryPolicy {
            max_retries,
            base_backoff_s: backoff_ms as f64 / 1000.0,
        };
        let plan = plan_stream_deliveries(
            0,
            &s,
            None,
            &AvailabilityTrace::perfect(cfg.horizon),
            &LossProcess::bernoulli(p, loss_seed),
            &retry,
            &cfg,
        );
        let mut last: Ticks = 0;
        for f in &plan {
            prop_assert!(f.attempts <= max_retries + 1, "attempt budget: {f:?}");
            if let Some(arrival) = f.arrival {
                prop_assert!(
                    arrival >= last,
                    "frame {} arrives at {} before predecessor's {}",
                    f.frame, arrival, last,
                );
                last = arrival;
            }
        }
    }

    /// A zero fault plan is simulated bit-identically to no plan at all.
    #[test]
    fn inert_fault_plan_is_bit_identical_to_plain_engine(
        raw in proptest::collection::vec(
            (1u64..=8, 2_000u64..=30_000, 0u64..=20_000, 0usize..2),
            1..6,
        ),
    ) {
        let streams: Vec<SimStream> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (mult, proc, trans, server))| {
                let period = mult * 50_000;
                stream(i, period, proc.min(period), trans, server)
            })
            .collect();
        let cfg = SimConfig {
            horizon: 10 * TICKS_PER_SEC,
            warmup: TICKS_PER_SEC,
            deadline: 0,
        };
        let faults = SimFaults::materialize(&FaultPlan::none(2, streams.len()), cfg.horizon);
        prop_assert!(faults.is_inert());
        let plain = simulate(&streams, Uplinks::Fixed, 2, &cfg, &NoopRecorder).unwrap();
        let faulted = simulate(
            &streams,
            Uplinks::Faulted { links: None, faults: &faults },
            2,
            &cfg,
            &NoopRecorder,
        )
        .unwrap();
        assert_reports_bit_identical(&plain, &faulted);
    }
}
