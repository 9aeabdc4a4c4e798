//! Property tests for the eva-net estimators and the link-aware DES
//! paths: estimator convergence/boundedness, the max-filter's kept
//! maximum against a fold over its window, and the tandem ↔ dedicated
//! equivalence in the contention-free regime.

use eva_net::{delivery_rate_bps, EwmaEstimator, LinkEstimator, LinkModel, MaxFilterEstimator};
use eva_obs::NoopRecorder;
use eva_sched::{StreamId, Ticks, TICKS_PER_SEC};
use eva_sim::{simulate, simulate_shared_uplink, SimConfig, SimStream, StreamLink, Uplinks};
use proptest::prelude::*;

proptest! {
    /// On a constant link every estimator must converge to within 5% of
    /// the true mean rate (here: exactly, since samples are noise-free).
    #[test]
    fn estimators_converge_on_constant_link(
        rate_bps in 1e5f64..1e9,
        bytes in 1e3f64..1e6,
        n in 20usize..100,
    ) {
        let duration_s = bytes * 8.0 / rate_bps;
        let mut ewma = EwmaEstimator::default();
        let mut maxf = MaxFilterEstimator::default();
        for _ in 0..n {
            ewma.observe(bytes, duration_s);
            maxf.observe(bytes, duration_s);
        }
        for est in [
            ewma.estimate_bps().expect("fed"),
            maxf.estimate_bps().expect("fed"),
        ] {
            prop_assert!(
                (est - rate_bps).abs() / rate_bps < 0.05,
                "estimate {est} off true {rate_bps}"
            );
        }
    }

    /// The windowed max-filter can never report more than the largest
    /// delivery rate it actually observed.
    #[test]
    fn max_filter_bounded_by_max_observed_sample(
        window in 1usize..20,
        samples in prop::collection::vec((1e2f64..1e7, 1e-4f64..1.0), 1..60),
    ) {
        let mut maxf = MaxFilterEstimator::new(window);
        let mut max_rate = 0.0f64;
        for &(bytes, duration_s) in &samples {
            maxf.observe(bytes, duration_s);
            max_rate = max_rate.max(delivery_rate_bps(bytes, duration_s));
        }
        let est = maxf.estimate_bps().expect("fed");
        prop_assert!(
            est <= max_rate * (1.0 + 1e-12),
            "estimate {est} exceeds max observed {max_rate}"
        );
    }

    /// The max-filter's kept maximum equals the fold over its window
    /// after every observation: samples drawn from a few values, so
    /// ties are common and the window often evicts its maximum, with
    /// invalid observations mixed in.
    #[test]
    fn max_filter_keeps_the_window_maximum(
        window in 1usize..8,
        samples in prop::collection::vec((0usize..5, 0usize..4), 1..80),
    ) {
        let mut maxf = MaxFilterEstimator::new(window);
        let mut kept = std::collections::VecDeque::new();
        for &(size, duration) in &samples {
            // A zero or non-finite duration is ignored.
            let duration_s = [1e-3, 2e-3, 0.0, f64::NAN][duration];
            let bytes = [1e3, 2e3, 2e3, 4e3, 8e3][size];
            maxf.observe(bytes, duration_s);
            if duration_s > 0.0 {
                if kept.len() == window {
                    kept.pop_front();
                }
                kept.push_back(delivery_rate_bps(bytes, duration_s));
            }
            let fold = kept.iter().copied().fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |m| m.max(s)))
            });
            prop_assert_eq!(maxf.estimate_bps().map(f64::to_bits), fold.map(f64::to_bits));
        }
        maxf.reset();
        prop_assert_eq!(maxf.estimate_bps(), None);
    }

    /// With one stream per server on a constant link there is no
    /// contention anywhere, so the tandem (link FIFO → CPU FIFO) and
    /// dedicated-pipe models must measure *identical* per-stream
    /// latencies: both reduce to `trans + proc` per frame. The dedicated
    /// run is arrival-anchored, so its phase/horizon shift by `trans`
    /// to cover the same generated-frame set.
    #[test]
    fn tandem_matches_dedicated_without_contention(
        n_streams in 1usize..4,
        period_ms in 40u64..200,
        seed in 0u64..1000,
    ) {
        let period: Ticks = period_ms * 1_000;
        // phase, proc, trans each under period/4: every frame finishes
        // before the next slot and before the horizon in both models.
        let q = period / 4;
        let mix = |k: u64| (seed.wrapping_mul(2654435761).wrapping_add(k * 97) % (q - 1)) + 1;
        let rate_bps = 20e6;
        let horizon: Ticks = 8 * period;

        let mut tandem_streams = Vec::new();
        let mut dedicated_streams = Vec::new();
        let mut links = Vec::new();
        // One shared trans: the dedicated run's horizon extends by
        // `trans`, which only covers the same generated-frame set when
        // every stream shifts by the same amount.
        let trans = mix(1_000_003);
        for i in 0..n_streams {
            let phase = mix(3 * i as u64);
            let proc = mix(3 * i as u64 + 1);
            let base = SimStream {
                id: StreamId::source(i),
                period,
                proc,
                trans,
                server: i,
                phase,
            };
            tandem_streams.push(base);
            dedicated_streams.push(SimStream { phase: phase + trans, ..base });
            links.push(StreamLink {
                bits_per_frame: trans as f64 / TICKS_PER_SEC as f64 * rate_bps,
                trace: LinkModel::constant(rate_bps).trace(horizon + period),
            });
        }

        let tandem_cfg = SimConfig { horizon, warmup: 0, deadline: 0 };
        let tandem = simulate_shared_uplink(
            &tandem_streams, Some(&links), n_streams, &tandem_cfg,
        )
        .unwrap();
        // Dedicated arrivals land at gen + trans; extend the horizon by
        // trans so the same frames are admitted.
        let ded_cfg = SimConfig { horizon: horizon + trans, warmup: 0, deadline: 0 };
        let dedicated = simulate(
            &dedicated_streams, Uplinks::Links(&links), n_streams, &ded_cfg, &NoopRecorder,
        )
        .unwrap();

        for (t, d) in tandem.streams.iter().zip(&dedicated.streams) {
            prop_assert_eq!(t.frames, d.frames, "frame sets differ");
            prop_assert!(
                (t.latency.mean() - d.latency.mean()).abs() < 1e-9,
                "mean latency differs: tandem {} vs dedicated {}",
                t.latency.mean(), d.latency.mean()
            );
            prop_assert!((t.latency.max() - d.latency.max()).abs() < 1e-9);
            prop_assert!(t.jitter_s < 1e-9);
            prop_assert!(d.jitter_s < 1e-9);
        }
    }
}
