//! Noisy profiling-sample generation (Algorithm 2, line 3).
//!
//! The real system measures per-stream outcomes by actually running the
//! pipeline; we sample the ground-truth surfaces with multiplicative
//! Gaussian measurement noise. The GP outcome models in `pamo-core`
//! never see the surfaces — only these samples.

use rand::Rng;

use crate::config::VideoConfig;
use crate::outcome::Outcome;
use crate::surfaces::SurfaceModel;

/// One profiling measurement of a single stream.
#[derive(Debug, Clone)]
pub struct ProfileSample {
    /// The configuration that was measured.
    pub config: VideoConfig,
    /// Uplink bandwidth (bits/s) of the server used for the measurement.
    pub uplink_bps: f64,
    /// The measured per-stream outcome.
    pub outcome: Outcome,
}

impl ProfileSample {
    /// GP input features: `[r/2160, s/30, B/100Mbps]`, unit-ish scales.
    pub fn features(&self) -> [f64; N_FEATURES] {
        features_of(&self.config, self.uplink_bps)
    }
}

/// Length of a [`features_of`] vector.
pub const N_FEATURES: usize = 3;

/// Shared feature mapping (profiling and prediction must agree). An
/// array, so the per-query feature vectors of a posterior scan cost no
/// allocation.
pub fn features_of(config: &VideoConfig, uplink_bps: f64) -> [f64; N_FEATURES] {
    [
        config.resolution / 2160.0,
        config.fps / 30.0,
        uplink_bps / 100e6,
    ]
}

/// A measurement channel over one clip's ground-truth surfaces.
#[derive(Debug, Clone)]
pub struct Profiler {
    surfaces: SurfaceModel,
    /// Relative (multiplicative) noise on resource/latency measurements.
    rel_noise: f64,
    /// Absolute noise on accuracy (mAP points).
    acc_noise: f64,
}

impl Profiler {
    /// Default measurement noise: 2 % relative on resources/latency,
    /// ±0.01 mAP on accuracy — typical run-to-run spread on a Jetson.
    pub fn new(surfaces: SurfaceModel) -> Self {
        Profiler {
            surfaces,
            rel_noise: 0.02,
            acc_noise: 0.01,
        }
    }

    /// Override noise levels (0.0 gives exact surface values).
    pub fn with_noise(mut self, rel_noise: f64, acc_noise: f64) -> Self {
        assert!(rel_noise >= 0.0 && acc_noise >= 0.0, "negative noise");
        self.rel_noise = rel_noise;
        self.acc_noise = acc_noise;
        self
    }

    /// The underlying (hidden) ground truth — test oracles only.
    pub fn surfaces(&self) -> &SurfaceModel {
        &self.surfaces
    }

    /// Measure one configuration on a server with the given uplink.
    pub fn measure<R: Rng + ?Sized>(
        &self,
        config: &VideoConfig,
        uplink_bps: f64,
        rng: &mut R,
    ) -> ProfileSample {
        let s = &self.surfaces;
        let noisy = |v: f64, rng: &mut R| -> f64 {
            let z = eva_stats::rng::standard_normal(rng);
            (v * (1.0 + self.rel_noise * z)).max(0.0)
        };
        let acc_true = s.accuracy(config);
        let acc =
            (acc_true + self.acc_noise * eva_stats::rng::standard_normal(rng)).clamp(0.0, 1.0);
        let outcome = Outcome {
            latency_s: noisy(s.e2e_latency_secs(config, uplink_bps), rng),
            accuracy: acc,
            network_bps: noisy(s.bandwidth_bps(config), rng),
            compute_tflops: noisy(s.compute_tflops(config), rng),
            power_w: noisy(s.power_w(config), rng),
        };
        ProfileSample {
            config: *config,
            uplink_bps,
            outcome,
        }
    }

    /// Measure `n` uniformly random grid configurations (the Fig. 8
    /// training-set generator: "randomly selected resolution and frame
    /// sampling rate").
    pub fn measure_random<R: Rng + ?Sized>(
        &self,
        space: &crate::config::ConfigSpace,
        uplink_bps: f64,
        n: usize,
        rng: &mut R,
    ) -> Vec<ProfileSample> {
        (0..n)
            .map(|_| {
                let idx = rng.gen_range(0..space.len());
                self.measure(&space.at(idx), uplink_bps, rng)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clip::ClipProfile;
    use crate::config::ConfigSpace;
    use eva_stats::rng::seeded;

    fn profiler() -> Profiler {
        Profiler::new(SurfaceModel::new(ClipProfile::reference()))
    }

    #[test]
    fn noiseless_measurement_matches_surface() {
        let p = profiler().with_noise(0.0, 0.0);
        let c = VideoConfig::new(1080.0, 10.0);
        let s = p.measure(&c, 20e6, &mut seeded(1));
        let truth = p.surfaces();
        assert_eq!(s.outcome.latency_s, truth.e2e_latency_secs(&c, 20e6));
        assert_eq!(s.outcome.accuracy, truth.accuracy(&c));
        assert_eq!(s.outcome.network_bps, truth.bandwidth_bps(&c));
    }

    #[test]
    fn noise_is_centered_on_truth() {
        let p = profiler();
        let c = VideoConfig::new(720.0, 15.0);
        let mut rng = seeded(2);
        let n = 5000;
        let mean_bw: f64 = (0..n)
            .map(|_| p.measure(&c, 20e6, &mut rng).outcome.network_bps)
            .sum::<f64>()
            / n as f64;
        let truth = p.surfaces().bandwidth_bps(&c);
        assert!(
            (mean_bw - truth).abs() / truth < 0.005,
            "{mean_bw} vs {truth}"
        );
    }

    #[test]
    fn accuracy_stays_in_unit_interval() {
        let p = profiler().with_noise(0.0, 0.5); // huge accuracy noise
        let c = VideoConfig::new(2160.0, 30.0);
        let mut rng = seeded(3);
        for _ in 0..200 {
            let s = p.measure(&c, 20e6, &mut rng);
            assert!((0.0..=1.0).contains(&s.outcome.accuracy));
        }
    }

    #[test]
    fn features_are_unit_scaled() {
        let c = VideoConfig::new(2160.0, 30.0);
        assert_eq!(features_of(&c, 100e6), [1.0, 1.0, 1.0]);
        let c2 = VideoConfig::new(1080.0, 15.0);
        assert_eq!(features_of(&c2, 50e6), [0.5, 0.5, 0.5]);
    }

    #[test]
    fn random_profiling_covers_grid() {
        let p = profiler();
        let space = ConfigSpace::default();
        let samples = p.measure_random(&space, 20e6, 300, &mut seeded(4));
        assert_eq!(samples.len(), 300);
        // Should touch a decent fraction of the 72 grid cells.
        let mut seen: Vec<(u64, u64)> = samples
            .iter()
            .map(|s| (s.config.resolution as u64, s.config.fps as u64))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() > 50, "only {} distinct cells", seen.len());
    }

    #[test]
    fn measurements_reproducible_per_seed() {
        let p = profiler();
        let c = VideoConfig::new(900.0, 20.0);
        let a = p.measure(&c, 10e6, &mut seeded(7));
        let b = p.measure(&c, 10e6, &mut seeded(7));
        assert_eq!(a.outcome, b.outcome);
    }
}
