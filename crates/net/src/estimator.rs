//! Online bandwidth estimators.
//!
//! The scheduler never observes `B(t)` directly — it sees *deliveries*:
//! a frame of `bytes` took `duration` seconds on the uplink. Each
//! estimator folds such samples into a running estimate `B̂` that the
//! planning layer divides by a headroom factor before using it as the
//! Eq. 5 bandwidth.
//!
//! Two standard designs:
//! * [`EwmaEstimator`] — exponentially weighted moving average of the
//!   per-frame delivery rates (TCP-style smoothing; lags on step
//!   changes, robust to single-sample noise),
//! * [`MaxFilterEstimator`] — BBR-style windowed max-filter: the
//!   bottleneck bandwidth is the *largest* recently observed delivery
//!   rate, since queueing can only make samples undershoot capacity.

use std::collections::VecDeque;

/// Delivery rate implied by one observation (bits/s). Degenerate
/// observations (non-finite or non-positive) map to `0.0` rather than
/// NaN/∞ so a corrupt sample can never poison downstream state.
pub fn delivery_rate_bps(bytes: f64, duration_s: f64) -> f64 {
    if !valid_observation(bytes, duration_s) {
        return 0.0;
    }
    bytes * 8.0 / duration_s
}

/// Whether a `(bytes, duration)` delivery sample is usable: both finite
/// and strictly positive. NaN fails every `<=` comparison, so a plain
/// `bytes <= 0.0` guard would let NaN through and corrupt an EWMA
/// forever — hence the explicit `is_finite` checks.
fn valid_observation(bytes: f64, duration_s: f64) -> bool {
    bytes.is_finite() && duration_s.is_finite() && bytes > 0.0 && duration_s > 0.0
}

/// A bandwidth estimator fed per-frame delivery observations.
pub trait LinkEstimator {
    /// Record one delivery: `bytes` transferred in `duration_s` seconds.
    /// Non-positive observations are ignored.
    fn observe(&mut self, bytes: f64, duration_s: f64);

    /// Current estimate (bits/s); `None` before any valid observation.
    fn estimate_bps(&self) -> Option<f64>;

    /// Forget all state (e.g. after a handover invalidates history).
    fn reset(&mut self);
}

/// Exponentially weighted moving average of delivery-rate samples.
#[derive(Debug, Clone)]
pub struct EwmaEstimator {
    alpha: f64,
    current: Option<f64>,
}

impl EwmaEstimator {
    /// `alpha` is the weight of the newest sample, in `(0, 1]`.
    pub(crate) fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EwmaEstimator: alpha in (0, 1]"
        );
        EwmaEstimator {
            alpha,
            current: None,
        }
    }
}

impl Default for EwmaEstimator {
    /// TCP-style smoothing weight (`alpha = 1/8`).
    fn default() -> Self {
        EwmaEstimator::new(0.125)
    }
}

impl LinkEstimator for EwmaEstimator {
    fn observe(&mut self, bytes: f64, duration_s: f64) {
        if !valid_observation(bytes, duration_s) {
            return;
        }
        let sample = delivery_rate_bps(bytes, duration_s);
        self.current = Some(match self.current {
            None => sample,
            Some(prev) => prev + self.alpha * (sample - prev),
        });
    }

    fn estimate_bps(&self) -> Option<f64> {
        self.current
    }

    fn reset(&mut self) {
        self.current = None;
    }
}

/// BBR-style windowed max-filter over the last `window` delivery-rate
/// samples.
#[derive(Debug, Clone)]
pub struct MaxFilterEstimator {
    window: usize,
    samples: VecDeque<f64>,
    /// The largest of `samples`, kept up to date by `observe` so a
    /// read does not scan the window.
    max: Option<f64>,
}

impl MaxFilterEstimator {
    /// Keep the largest of the last `window >= 1` samples.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "MaxFilterEstimator: empty window");
        MaxFilterEstimator {
            window,
            samples: VecDeque::with_capacity(window),
            max: None,
        }
    }
}

impl Default for MaxFilterEstimator {
    /// BBR's default of 10 round-trip samples.
    fn default() -> Self {
        MaxFilterEstimator::new(10)
    }
}

impl LinkEstimator for MaxFilterEstimator {
    fn observe(&mut self, bytes: f64, duration_s: f64) {
        if !valid_observation(bytes, duration_s) {
            return;
        }
        let sample = delivery_rate_bps(bytes, duration_s);
        let evicted = if self.samples.len() == self.window {
            self.samples.pop_front()
        } else {
            None
        };
        self.samples.push_back(sample);
        // Samples are never NaN, so `max` is a total order here and
        // only evicting the maximum forces a rescan.
        self.max = if evicted.is_some() && evicted == self.max {
            self.samples.iter().copied().reduce(f64::max)
        } else {
            Some(self.max.map_or(sample, |m| m.max(sample)))
        };
    }

    fn estimate_bps(&self) -> Option<f64> {
        self.max
    }

    fn reset(&mut self) {
        self.samples.clear();
        self.max = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One frame of `bits` delivered at `rate_bps`.
    fn feed(est: &mut dyn LinkEstimator, bits: f64, rate_bps: f64) {
        est.observe(bits / 8.0, bits / rate_bps);
    }

    #[test]
    fn empty_estimators_return_none() {
        assert_eq!(EwmaEstimator::default().estimate_bps(), None);
        assert_eq!(MaxFilterEstimator::default().estimate_bps(), None);
    }

    #[test]
    fn constant_rate_is_recovered_exactly() {
        let mut ewma = EwmaEstimator::default();
        let mut maxf = MaxFilterEstimator::default();
        for _ in 0..50 {
            feed(&mut ewma, 100_000.0, 20e6);
            feed(&mut maxf, 100_000.0, 20e6);
        }
        assert!((ewma.estimate_bps().unwrap() - 20e6).abs() < 1e-6);
        assert!((maxf.estimate_bps().unwrap() - 20e6).abs() < 1e-6);
    }

    #[test]
    fn ewma_converges_after_step_change() {
        let mut ewma = EwmaEstimator::new(0.25);
        for _ in 0..40 {
            feed(&mut ewma, 100_000.0, 10e6);
        }
        for _ in 0..40 {
            feed(&mut ewma, 100_000.0, 20e6);
        }
        let est = ewma.estimate_bps().unwrap();
        assert!((est - 20e6).abs() / 20e6 < 0.01, "est {est}");
    }

    #[test]
    fn max_filter_tracks_recent_peak_and_expires_it() {
        let mut maxf = MaxFilterEstimator::new(5);
        feed(&mut maxf, 100_000.0, 30e6);
        for _ in 0..3 {
            feed(&mut maxf, 100_000.0, 10e6);
        }
        // The peak is still inside the 5-sample window.
        assert!((maxf.estimate_bps().unwrap() - 30e6).abs() < 1e-6);
        for _ in 0..5 {
            feed(&mut maxf, 100_000.0, 10e6);
        }
        // Now it has been pushed out.
        assert!((maxf.estimate_bps().unwrap() - 10e6).abs() < 1e-6);
    }

    #[test]
    fn degenerate_observations_are_ignored() {
        let mut ewma = EwmaEstimator::default();
        let mut maxf = MaxFilterEstimator::default();
        for est in [&mut ewma as &mut dyn LinkEstimator, &mut maxf] {
            est.observe(0.0, 1.0);
            est.observe(100.0, 0.0);
            est.observe(-5.0, 1.0);
            assert_eq!(est.estimate_bps(), None);
        }
    }

    #[test]
    fn non_finite_observations_do_not_poison_state() {
        // Regression: NaN fails both `<= 0.0` comparisons, so the old
        // guard admitted it and `prev + alpha * (NaN - prev)` stayed
        // NaN forever. Every non-finite combination must be a no-op.
        let mut ewma = EwmaEstimator::default();
        let mut maxf = MaxFilterEstimator::default();
        for est in [&mut ewma as &mut dyn LinkEstimator, &mut maxf] {
            feed(est, 100_000.0, 20e6);
            for (bytes, dur) in [
                (f64::NAN, 1.0),
                (100.0, f64::NAN),
                (f64::NAN, f64::NAN),
                (f64::INFINITY, 1.0),
                (100.0, f64::INFINITY),
                (f64::NEG_INFINITY, 1.0),
            ] {
                est.observe(bytes, dur);
            }
            let got = est.estimate_bps().expect("estimate survives");
            assert!(
                got.is_finite() && (got - 20e6).abs() < 1e-6,
                "estimate poisoned: {got}"
            );
        }
        // And the rate helper itself never returns NaN/∞.
        assert_eq!(delivery_rate_bps(f64::NAN, 1.0), 0.0);
        assert_eq!(delivery_rate_bps(1.0, f64::NAN), 0.0);
        assert_eq!(delivery_rate_bps(f64::INFINITY, 1.0), 0.0);
        assert_eq!(delivery_rate_bps(1.0, 0.0), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut ewma = EwmaEstimator::default();
        let mut maxf = MaxFilterEstimator::default();
        feed(&mut ewma, 100_000.0, 15e6);
        feed(&mut maxf, 100_000.0, 15e6);
        ewma.reset();
        maxf.reset();
        assert_eq!(ewma.estimate_bps(), None);
        assert_eq!(maxf.estimate_bps(), None);
    }

    #[test]
    fn estimators_work_through_the_trait_object() {
        let mut ests: Vec<Box<dyn LinkEstimator>> = vec![
            Box::new(EwmaEstimator::default()),
            Box::new(MaxFilterEstimator::default()),
        ];
        for est in ests.iter_mut() {
            est.observe(12_500.0, 0.005); // 100 kbit in 5 ms = 20 Mbps
            assert!((est.estimate_bps().unwrap() - 20e6).abs() < 1e-6);
        }
    }
}
