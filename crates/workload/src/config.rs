//! The discrete video-configuration knob space.
//!
//! The paper's decision variables per stream are resolution `r` and
//! frame sampling rate `s` (placement is delegated to Algorithm 1).
//! Sec. 2.2 profiles resolutions up to ~2000 px and rates up to 30 fps;
//! we use 9 resolution and 8 frame-rate knobs over the same ranges.

/// Default resolution knobs (pixel height of the long edge).
pub(crate) const DEFAULT_RESOLUTIONS: [f64; 9] = [
    360.0, 480.0, 600.0, 720.0, 900.0, 1080.0, 1440.0, 1800.0, 2160.0,
];

/// Default frame-rate knobs (fps).
pub(crate) const DEFAULT_FRAME_RATES: [f64; 8] = [1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0];

/// One stream's configuration: resolution and frame sampling rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoConfig {
    /// Resolution in pixels (long-edge height).
    pub resolution: f64,
    /// Frame sampling rate in fps.
    pub fps: f64,
}

impl VideoConfig {
    /// Construct and validate.
    pub fn new(resolution: f64, fps: f64) -> Self {
        assert!(resolution > 0.0, "VideoConfig: non-positive resolution");
        assert!(fps > 0.0, "VideoConfig: non-positive fps");
        VideoConfig { resolution, fps }
    }

    /// Inter-frame period in seconds.
    #[cfg(test)]
    pub(crate) fn period_secs(&self) -> f64 {
        1.0 / self.fps
    }
}

/// The finite knob grid shared by all streams.
#[derive(Debug, Clone)]
pub struct ConfigSpace {
    resolutions: Vec<f64>,
    frame_rates: Vec<f64>,
}

impl Default for ConfigSpace {
    fn default() -> Self {
        ConfigSpace {
            resolutions: DEFAULT_RESOLUTIONS.to_vec(),
            frame_rates: DEFAULT_FRAME_RATES.to_vec(),
        }
    }
}

impl ConfigSpace {
    /// Custom knob grid. Values must be positive and strictly increasing.
    #[cfg(test)]
    pub(crate) fn new(resolutions: Vec<f64>, frame_rates: Vec<f64>) -> Self {
        assert!(!resolutions.is_empty() && !frame_rates.is_empty());
        assert!(
            resolutions.windows(2).all(|w| w[0] < w[1]) && resolutions[0] > 0.0,
            "resolutions must be positive and increasing"
        );
        assert!(
            frame_rates.windows(2).all(|w| w[0] < w[1]) && frame_rates[0] > 0.0,
            "frame rates must be positive and increasing"
        );
        ConfigSpace {
            resolutions,
            frame_rates,
        }
    }

    /// Resolution knob values (`C_r` of the paper).
    pub fn resolutions(&self) -> &[f64] {
        &self.resolutions
    }

    /// Frame-rate knob values (`C_f` of the paper).
    pub fn frame_rates(&self) -> &[f64] {
        &self.frame_rates
    }

    /// Number of configurations per stream (`C_r * C_f`).
    pub fn len(&self) -> usize {
        self.resolutions.len() * self.frame_rates.len()
    }

    /// True when the grid is empty (cannot happen via constructors).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerate every configuration (row-major: resolution outer).
    pub fn iter(&self) -> impl Iterator<Item = VideoConfig> + '_ {
        self.resolutions.iter().flat_map(move |&r| {
            self.frame_rates
                .iter()
                .map(move |&s| VideoConfig::new(r, s))
        })
    }

    /// Config at flat index (inverse of enumeration order).
    pub fn at(&self, index: usize) -> VideoConfig {
        let nf = self.frame_rates.len();
        let (ri, fi) = (index / nf, index % nf);
        VideoConfig::new(self.resolutions[ri], self.frame_rates[fi])
    }

    /// Flat index of the knob pair `(resolution_idx, fps_idx)`.
    #[cfg(test)]
    pub(crate) fn flat_index(&self, resolution_idx: usize, fps_idx: usize) -> usize {
        resolution_idx * self.frame_rates.len() + fps_idx
    }

    /// Normalize a config to `[0,1]²` for GP inputs: both knobs scaled
    /// by their maxima (resolution and rate both start near 0).
    pub fn normalize(&self, c: &VideoConfig) -> Vec<f64> {
        vec![
            c.resolution / self.resolutions.last().copied().unwrap_or(1.0),
            c.fps / self.frame_rates.last().copied().unwrap_or(1.0),
        ]
    }

    /// Flat grid index (enumeration order, see [`ConfigSpace::at`]) of
    /// the configuration nearest an arbitrary `[0,1]²` point, knob by
    /// knob. Of equally near knobs the first (smallest) wins; a NaN
    /// coordinate snaps to the smallest knob.
    pub fn snap_index(&self, u: &[f64]) -> usize {
        assert_eq!(u.len(), 2, "snap_index: expected 2-d input");
        let nearest = |grid: &[f64], target: f64| -> usize {
            let mut best = (0, (grid[0] - target).abs());
            for (k, &g) in grid.iter().enumerate().skip(1) {
                let d = (g - target).abs();
                if d < best.1 {
                    best = (k, d);
                }
            }
            best.0
        };
        let r_target = u[0] * self.resolutions.last().copied().unwrap_or(1.0);
        let s_target = u[1] * self.frame_rates.last().copied().unwrap_or(1.0);
        nearest(&self.resolutions, r_target) * self.frame_rates.len()
            + nearest(&self.frame_rates, s_target)
    }

    /// Snap an arbitrary `[0,1]²` point back to the nearest grid config:
    /// the configuration at [`ConfigSpace::snap_index`].
    pub fn denormalize_snap(&self, u: &[f64]) -> VideoConfig {
        self.at(self.snap_index(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_space_size_matches_paper_scale() {
        let s = ConfigSpace::default();
        assert_eq!(s.len(), 72);
        assert_eq!(s.resolutions().len(), 9);
        assert_eq!(s.frame_rates().len(), 8);
    }

    #[test]
    fn enumeration_roundtrips_with_at() {
        let s = ConfigSpace::default();
        for (i, c) in s.iter().enumerate() {
            let c2 = s.at(i);
            assert_eq!(c, c2, "index {i}");
        }
    }

    #[test]
    fn flat_index_inverts_at() {
        let s = ConfigSpace::default();
        let c = s.at(s.flat_index(3, 5));
        assert_eq!(c.resolution, DEFAULT_RESOLUTIONS[3]);
        assert_eq!(c.fps, DEFAULT_FRAME_RATES[5]);
    }

    #[test]
    fn normalize_roundtrip_on_grid_points() {
        let s = ConfigSpace::default();
        for c in s.iter() {
            let u = s.normalize(&c);
            assert!(u.iter().all(|&x| (0.0..=1.0).contains(&x)));
            let back = s.denormalize_snap(&u);
            assert_eq!(back, c);
        }
    }

    #[test]
    fn snap_clamps_to_extremes() {
        let s = ConfigSpace::default();
        let low = s.denormalize_snap(&[0.0, 0.0]);
        assert_eq!(low.resolution, 360.0);
        assert_eq!(low.fps, 1.0);
        let high = s.denormalize_snap(&[1.0, 1.0]);
        assert_eq!(high.resolution, 2160.0);
        assert_eq!(high.fps, 30.0);
    }

    /// The nearest-knob scan `snap_index` replaced: `min_by` over
    /// `total_cmp` of the distances, which keeps the first minimum.
    fn scan_snap(s: &ConfigSpace, u: &[f64]) -> VideoConfig {
        let nearest = |grid: &[f64], target: f64| -> f64 {
            grid.iter()
                .copied()
                .min_by(|a, b| (a - target).abs().total_cmp(&(b - target).abs()))
                .unwrap_or(target)
        };
        VideoConfig::new(
            nearest(s.resolutions(), u[0] * 2160.0),
            nearest(s.frame_rates(), u[1] * 30.0),
        )
    }

    #[test]
    fn snap_index_matches_the_nearest_knob_scan() {
        let s = ConfigSpace::default();
        let mut coords = vec![
            0.0,
            -0.0,
            -1.5,
            2.5,
            f64::NAN,
            f64::INFINITY,
            -f64::INFINITY,
        ];
        // Every knob, every midpoint between neighbours (a tie) and a
        // nudge either side of it, on both axes.
        for (grid, max) in [(s.resolutions(), 2160.0), (s.frame_rates(), 30.0)] {
            coords.extend(grid.iter().map(|g| g / max));
            for w in grid.windows(2) {
                let mid = 0.5 * (w[0] + w[1]) / max;
                coords.extend([mid, mid * (1.0 - 1e-12), mid * (1.0 + 1e-12)]);
            }
        }
        coords.extend((0..=200).map(|k| k as f64 / 200.0));
        for &a in &coords {
            for &b in &coords {
                let u = [a, b];
                assert_eq!(s.at(s.snap_index(&u)), scan_snap(&s, &u), "u = {u:?}");
            }
        }
        // A midpoint snaps to the smaller knob.
        let tie = 0.5 * (480.0 + 600.0) / 2160.0;
        assert_eq!(s.denormalize_snap(&[tie, 0.0]).resolution, 480.0);
        assert_eq!(s.snap_index(&[f64::NAN, f64::NAN]), 0);
    }

    #[test]
    fn period_is_inverse_rate() {
        let c = VideoConfig::new(720.0, 25.0);
        assert!((c.period_secs() - 0.04).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn rejects_unsorted_knobs() {
        let _ = ConfigSpace::new(vec![720.0, 480.0], vec![10.0]);
    }
}
