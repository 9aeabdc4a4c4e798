//! Ground-truth outcome response surfaces (paper Eq. 2-5).
//!
//! Shape calibration against the paper's Figure 2 (two MOT16 clips on a
//! Jetson Xavier NX behind a 100 Mbps link):
//!
//! | quantity            | Fig. 2 anchor                         | our surface            |
//! |---------------------|---------------------------------------|------------------------|
//! | mAP                 | ~0.8 max, saturating in `r`, mild `s` | `θ_acc(r)·ε_acc(s)`    |
//! | e2e latency         | ~0.3-0.8 s at r≈2000, flat in `s`     | quadratic in `r`       |
//! | bandwidth           | ~15 Mbps at (2000, 30)                | `0.125·r²` bits/frame  |
//! | computation         | ~40 TFLOPs/s at (2000, 30)            | `3.33e-7·r²` TFLOP/fr  |
//! | power               | ~100 W at (2000, 30) for 2 clips      | compute + γ·bits       |
//!
//! `γ = 0.5e-5 J/bit` follows Eq. 4 (and \[34\] therein). Absolute values
//! need not match the authors' testbed — the reproduction targets the
//! *shape*: who grows how fast in which knob.

use crate::clip::ClipProfile;
use crate::config::VideoConfig;

/// Transmission energy per bit (J/bit), Eq. 4's `γ`.
pub(crate) const GAMMA_J_PER_BIT: f64 = 0.5e-5;

/// Frame size coefficient: `bits(r) = BITS_COEFF * r²` for the
/// reference clip (0.5 Mbit at r = 2000).
pub(crate) const BITS_COEFF: f64 = 0.125;

/// FLOPs per frame coefficient: `flops(r) = FLOPS_COEFF * r²` TFLOP
/// (1.33 TFLOP at r = 2000 — YOLOv8-scale detector on a 2000 px frame).
pub(crate) const FLOPS_COEFF: f64 = 3.33e-7;

/// Per-frame compute time coefficient: `p(r) = PROC_COEFF * r²` seconds
/// (≈ 0.23 s at r = 2000 — Xavier-NX-class effective throughput).
pub(crate) const PROC_COEFF: f64 = 5.8e-8;

/// Active compute power draw of one inference stream (W). Combined with
/// `p(r)·s`, gives the compute term of Eq. 4 as energy/s.
pub(crate) const ACTIVE_POWER_W: f64 = 8.0;

/// Asymptotic mAP of the reference clip at infinite resolution/rate.
pub(crate) const MAX_MAP: f64 = 0.86;

/// Resolution scale (px) of the accuracy saturation curve.
pub(crate) const ACC_RES_SCALE: f64 = 700.0;

/// Frame-rate scale (fps) of the accuracy temporal-coverage curve.
pub(crate) const ACC_FPS_SCALE: f64 = 6.0;

/// Ground-truth outcome surfaces for one clip.
///
/// All methods are deterministic; measurement noise is added by
/// [`crate::profiler::Profiler`].
#[derive(Debug, Clone)]
pub struct SurfaceModel {
    clip: ClipProfile,
}

impl SurfaceModel {
    /// Surfaces for a specific clip.
    pub fn new(clip: ClipProfile) -> Self {
        SurfaceModel { clip }
    }

    /// `θ_acc(r)` — resolution term of Eq. 2: concave, saturating.
    pub(crate) fn theta_acc(&self, resolution: f64) -> f64 {
        debug_assert!(resolution > 0.0);
        let sat = 1.0 - (-resolution / ACC_RES_SCALE).exp();
        (MAX_MAP * self.clip.accuracy_scale * sat).clamp(0.0, 1.0)
    }

    /// `ε_acc(s)` — frame-rate term of Eq. 2: temporal coverage of the
    /// detector output; high-motion clips decay faster at low rates.
    pub(crate) fn eps_acc(&self, fps: f64) -> f64 {
        debug_assert!(fps > 0.0);
        let scale = ACC_FPS_SCALE * self.clip.motion;
        // At 30 fps this is ~1; at 1 fps it drops to ~0.6-0.8.
        let floor = 0.55;
        floor + (1.0 - floor) * (1.0 - (-fps / scale).exp())
    }

    /// Stream accuracy (mAP) under a configuration — Eq. 2's summand.
    pub fn accuracy(&self, c: &VideoConfig) -> f64 {
        self.theta_acc(c.resolution) * self.eps_acc(c.fps)
    }

    /// `θ_bit(r)` — encoded frame size in bits (quadratic in `r`).
    pub fn bits_per_frame(&self, resolution: f64) -> f64 {
        debug_assert!(resolution > 0.0);
        BITS_COEFF * resolution * resolution * self.clip.bitrate_factor
    }

    /// Uplink bandwidth demand in bits/s — Eq. 3's `f_net` summand.
    pub fn bandwidth_bps(&self, c: &VideoConfig) -> f64 {
        self.bits_per_frame(c.resolution) * c.fps
    }

    /// Per-frame detector FLOPs, in TFLOP (quadratic in `r`).
    pub(crate) fn tflop_per_frame(&self, resolution: f64) -> f64 {
        FLOPS_COEFF * resolution * resolution * self.clip.complexity
    }

    /// Compute demand in TFLOP/s — Eq. 3's `f_com` summand.
    pub fn compute_tflops(&self, c: &VideoConfig) -> f64 {
        self.tflop_per_frame(c.resolution) * c.fps
    }

    /// `θ_lcom(r)` = `p_i` — per-frame processing time on a server (s).
    pub fn proc_time_secs(&self, resolution: f64) -> f64 {
        PROC_COEFF * resolution * resolution * self.clip.complexity
    }

    /// Per-frame compute energy `θ_eng(r)` in joules.
    pub(crate) fn compute_energy_j(&self, resolution: f64) -> f64 {
        self.proc_time_secs(resolution) * ACTIVE_POWER_W
    }

    /// Total power draw of the stream (W) — Eq. 4's summand evaluated
    /// over one second: transmission plus computation energy per second.
    pub fn power_w(&self, c: &VideoConfig) -> f64 {
        let transmission = GAMMA_J_PER_BIT * self.bits_per_frame(c.resolution) * c.fps;
        let compute = self.compute_energy_j(c.resolution) * c.fps;
        transmission + compute
    }

    /// Uncontended end-to-end latency (s) given the uplink bandwidth of
    /// the assigned server — Eq. 5's summand
    /// `θ_lcom(r) + θ_bit(r) / B_q`.
    pub fn e2e_latency_secs(&self, c: &VideoConfig, uplink_bps: f64) -> f64 {
        assert!(uplink_bps > 0.0, "e2e_latency_secs: non-positive uplink");
        self.proc_time_secs(c.resolution) + self.bits_per_frame(c.resolution) / uplink_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clip::mot16_library;

    fn reference() -> SurfaceModel {
        SurfaceModel::new(ClipProfile::reference())
    }

    #[test]
    fn fig2_anchor_bandwidth() {
        // ~15 Mbps at (2000 px, 30 fps) with the reference clip.
        let m = reference();
        let bw = m.bandwidth_bps(&VideoConfig::new(2000.0, 30.0));
        assert!((bw - 15e6).abs() / 15e6 < 0.05, "bw = {bw:e}");
    }

    #[test]
    fn fig2_anchor_computation() {
        // ~40 TFLOPs/s at (2000, 30).
        let m = reference();
        let c = m.compute_tflops(&VideoConfig::new(2000.0, 30.0));
        assert!((c - 40.0).abs() / 40.0 < 0.05, "compute = {c}");
    }

    #[test]
    fn fig2_anchor_latency_range() {
        let m = reference();
        let lat = m.e2e_latency_secs(&VideoConfig::new(2000.0, 30.0), 100e6);
        // Paper's surface tops out below a second; compute-dominated.
        assert!(lat > 0.1 && lat < 0.5, "latency = {lat}");
        // Latency does not depend on fps (Sec. 2.2 observation).
        let lat_low_fps = m.e2e_latency_secs(&VideoConfig::new(2000.0, 1.0), 100e6);
        assert_eq!(lat, lat_low_fps);
    }

    #[test]
    fn fig2_anchor_power_scale() {
        let m = reference();
        let p = m.power_w(&VideoConfig::new(2000.0, 30.0));
        // Tens of watts per heavy stream (Fig. 2 shows ~100 W for 2 clips
        // incl. board overhead; per-stream dozens is the right order).
        assert!(p > 30.0 && p < 160.0, "power = {p}");
    }

    #[test]
    fn accuracy_saturates_and_is_monotone() {
        let m = reference();
        let mut prev = 0.0;
        for r in [360.0, 720.0, 1080.0, 1440.0, 2160.0] {
            let a = m.accuracy(&VideoConfig::new(r, 30.0));
            assert!(a > prev, "not increasing at r = {r}");
            prev = a;
        }
        // Diminishing returns: the 1440->2160 gain is smaller than 360->720.
        let gain_lo =
            m.accuracy(&VideoConfig::new(720.0, 30.0)) - m.accuracy(&VideoConfig::new(360.0, 30.0));
        let gain_hi = m.accuracy(&VideoConfig::new(2160.0, 30.0))
            - m.accuracy(&VideoConfig::new(1440.0, 30.0));
        assert!(gain_hi < gain_lo / 2.0);
        // Never exceeds the asymptote.
        assert!(prev <= MAX_MAP);
    }

    #[test]
    fn accuracy_increases_with_fps() {
        let m = reference();
        let lo = m.accuracy(&VideoConfig::new(1080.0, 1.0));
        let hi = m.accuracy(&VideoConfig::new(1080.0, 30.0));
        assert!(hi > lo);
    }

    #[test]
    fn motion_steepens_fps_sensitivity() {
        let calm = SurfaceModel::new(ClipProfile::new("calm", 1.0, 1.0, 1.0, 0.6));
        let busy = SurfaceModel::new(ClipProfile::new("busy", 1.0, 1.0, 1.0, 1.6));
        let drop = |m: &SurfaceModel| {
            m.accuracy(&VideoConfig::new(1080.0, 30.0)) - m.accuracy(&VideoConfig::new(1080.0, 2.0))
        };
        assert!(drop(&busy) > drop(&calm));
    }

    #[test]
    fn resource_surfaces_are_quadratic_in_resolution() {
        let m = reference();
        // Doubling resolution quadruples bits, flops, proc time, energy.
        for f in [
            SurfaceModel::bits_per_frame as fn(&SurfaceModel, f64) -> f64,
            SurfaceModel::tflop_per_frame,
            SurfaceModel::proc_time_secs,
            SurfaceModel::compute_energy_j,
        ] {
            let ratio = f(&m, 1440.0) / f(&m, 720.0);
            assert!((ratio - 4.0).abs() < 1e-9, "ratio = {ratio}");
        }
    }

    #[test]
    fn resource_surfaces_linear_in_fps() {
        let m = reference();
        let c10 = VideoConfig::new(1080.0, 10.0);
        let c30 = VideoConfig::new(1080.0, 30.0);
        assert!((m.bandwidth_bps(&c30) / m.bandwidth_bps(&c10) - 3.0).abs() < 1e-9);
        assert!((m.compute_tflops(&c30) / m.compute_tflops(&c10) - 3.0).abs() < 1e-9);
        assert!((m.power_w(&c30) / m.power_w(&c10) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn clip_factors_shift_surfaces_consistently() {
        // Every library clip shares the monotone structure (Fig. 2's
        // "consistent pattern"), just scaled.
        for clip in mot16_library() {
            let m = SurfaceModel::new(clip.clone());
            let a_lo = m.accuracy(&VideoConfig::new(480.0, 10.0));
            let a_hi = m.accuracy(&VideoConfig::new(1800.0, 30.0));
            assert!(a_hi > a_lo, "{}", clip.name);
            assert!(
                m.bits_per_frame(1080.0) > m.bits_per_frame(480.0),
                "{}",
                clip.name
            );
        }
    }

    #[test]
    fn harder_clip_costs_more_compute() {
        let easy = SurfaceModel::new(ClipProfile::new("easy", 1.0, 0.9, 1.0, 1.0));
        let hard = SurfaceModel::new(ClipProfile::new("hard", 1.0, 1.2, 1.0, 1.0));
        assert!(hard.proc_time_secs(1080.0) > easy.proc_time_secs(1080.0));
        assert!(
            hard.compute_tflops(&VideoConfig::new(1080.0, 10.0))
                > easy.compute_tflops(&VideoConfig::new(1080.0, 10.0))
        );
    }

    #[test]
    fn latency_splits_into_compute_and_transmission() {
        let m = reference();
        let c = VideoConfig::new(1080.0, 10.0);
        let fast_link = m.e2e_latency_secs(&c, 1e9);
        let slow_link = m.e2e_latency_secs(&c, 5e6);
        assert!(slow_link > fast_link);
        let diff = slow_link - fast_link;
        let expected = m.bits_per_frame(1080.0) * (1.0 / 5e6 - 1.0 / 1e9);
        assert!((diff - expected).abs() < 1e-12);
    }
}
