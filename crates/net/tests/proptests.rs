//! Property tests for the eva-net estimators and the link-aware DES
//! paths: estimator convergence/boundedness, the max-filter's kept
//! maximum against a fold over its window, and the shared ↔ dedicated
//! uplink equivalence in the contention-free regime.

use eva_net::{delivery_rate_bps, EwmaEstimator, LinkEstimator, LinkModel, MaxFilterEstimator};
use eva_obs::NoopRecorder;
use eva_sched::{StreamId, Ticks, TICKS_PER_SEC};
use eva_sim::{simulate, SimConfig, SimStream, StreamLink, Uplinks};
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
    /// contention anywhere, so a shared uplink (link FIFO → CPU FIFO)
    /// and a dedicated pipe run the same streams and config frame for
    /// frame: both reduce to `trans + proc` per frame. A stream whose
    /// first capture saturates at 0 (`phase < trans`) is the exception,
    /// as the dedicated pipe delivers that frame at its nominal slot.
    #[test]
    fn shared_matches_dedicated_without_contention(
        n_streams in 1usize..4,
        period_ms in 40u64..200,
        seed in 0u64..1000,
    ) {
        let period: Ticks = period_ms * 1_000;
        // proc and trans under period/4, phase under period/2: every
        // frame leaves the link and the CPU before the next capture.
        let q = period / 4;
        let mix = |k: u64| (seed.wrapping_mul(2654435761).wrapping_add(k * 97) % (q - 1)) + 1;
        let rate_bps = 20e6;
        let horizon: Ticks = 8 * period;

        let mut streams = Vec::new();
        let mut links = Vec::new();
        for i in 0..n_streams {
            let trans = mix(3 * i as u64 + 2);
            streams.push(SimStream {
                id: StreamId::source(i),
                period,
                proc: mix(3 * i as u64 + 1),
                trans,
                server: i,
                phase: 2 * mix(3 * i as u64),
            });
            links.push(StreamLink {
                bits_per_frame: trans as f64 / TICKS_PER_SEC as f64 * rate_bps,
                trace: LinkModel::constant(rate_bps).trace(horizon),
            });
        }

        let cfg = SimConfig { horizon, warmup: 0, deadline: 0 };
        let run = |uplinks| simulate(&streams, uplinks, n_streams, &cfg, &NoopRecorder).unwrap();
        let shared = run(Uplinks::Shared(Some(&links)));
        let dedicated = run(Uplinks::Links(&links));

        for ((s, d), stream) in shared.streams.iter().zip(&dedicated.streams).zip(&streams) {
            prop_assert_eq!(s.frames, d.frames, "frame sets differ");
            prop_assert!(s.jitter_s < 1e-9);
            if stream.phase >= stream.trans {
                // `{:?}` prints each f64 as its shortest round-trip
                // form, so equal strings mean equal bits.
                prop_assert_eq!(format!("{s:?}"), format!("{d:?}"));
            }
        }
    }
}
