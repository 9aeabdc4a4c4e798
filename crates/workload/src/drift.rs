//! Time-varying video content.
//!
//! Sec. 1 motivates preference- and model-refresh with "potential
//! resource contentions and ever-changing video contents". This module
//! provides the changing contents: a bounded random walk over the clip
//! content factors, producing a fresh [`Scenario`] per scheduling epoch
//! while servers and uplinks stay fixed.

use rand::Rng;

use crate::clip::ClipProfile;
use crate::config::ConfigSpace;
use crate::scenario::Scenario;

/// Bounds on each drifting factor (same plausibility ranges as
/// [`ClipProfile::random`]).
const ACC_RANGE: (f64, f64) = (0.80, 1.05);
const COMPLEXITY_RANGE: (f64, f64) = (0.85, 1.25);
const BITRATE_RANGE: (f64, f64) = (0.75, 1.35);
const MOTION_RANGE: (f64, f64) = (0.5, 1.7);

/// A deployment whose camera contents drift over time.
#[derive(Debug, Clone)]
pub struct DriftingScenario {
    clips: Vec<ClipProfile>,
    uplink_bps: Vec<f64>,
    space: ConfigSpace,
    /// Per-epoch relative step size of the factor random walk.
    step: f64,
}

impl DriftingScenario {
    /// Start from an initial scenario with the given drift step
    /// (e.g. 0.05 = 5 % factor movement per epoch).
    pub fn new(initial: &Scenario, step: f64) -> Self {
        assert!((0.0..1.0).contains(&step), "drift step out of range");
        DriftingScenario {
            clips: (0..initial.n_videos())
                .map(|i| initial.clip(i).clone())
                .collect(),
            uplink_bps: initial.uplinks().to_vec(),
            space: initial.config_space().clone(),
            step,
        }
    }

    /// The current epoch's scenario snapshot.
    pub fn snapshot(&self) -> Scenario {
        Scenario::new(
            self.clips.clone(),
            self.uplink_bps.clone(),
            self.space.clone(),
        )
    }

    /// Advance one epoch: every clip's factors take a bounded
    /// multiplicative random-walk step.
    pub fn advance<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for clip in &mut self.clips {
            let mut walk = |v: f64, (lo, hi): (f64, f64)| -> f64 {
                let factor = 1.0 + self.step * (rng.gen::<f64>() * 2.0 - 1.0);
                (v * factor).clamp(lo, hi)
            };
            let acc = walk(clip.accuracy_scale, ACC_RANGE);
            let complexity = walk(clip.complexity, COMPLEXITY_RANGE);
            let bitrate = walk(clip.bitrate_factor, BITRATE_RANGE);
            let motion = walk(clip.motion, MOTION_RANGE);
            *clip = ClipProfile::new(clip.name.clone(), acc, complexity, bitrate, motion);
        }
    }

    /// Mean absolute relative difference of the content factors against
    /// another snapshot's clips — a drift magnitude measure.
    pub fn divergence_from(&self, other: &Scenario) -> f64 {
        assert_eq!(self.clips.len(), other.n_videos());
        let mut total = 0.0;
        let mut count = 0.0;
        for (i, clip) in self.clips.iter().enumerate() {
            let o = other.clip(i);
            for (a, b) in [
                (clip.accuracy_scale, o.accuracy_scale),
                (clip.complexity, o.complexity),
                (clip.bitrate_factor, o.bitrate_factor),
                (clip.motion, o.motion),
            ] {
                total += (a - b).abs() / b.abs().max(1e-12);
                count += 1.0;
            }
        }
        total / count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_stats::rng::seeded;

    fn base() -> Scenario {
        Scenario::uniform(4, 3, 20e6, 51)
    }

    #[test]
    fn snapshot_matches_initial_before_drift() {
        let sc = base();
        let d = DriftingScenario::new(&sc, 0.05);
        assert_eq!(d.divergence_from(&sc), 0.0);
        let snap = d.snapshot();
        assert_eq!(snap.n_videos(), 4);
        assert_eq!(snap.uplinks(), sc.uplinks());
    }

    #[test]
    fn drift_accumulates_over_epochs() {
        let sc = base();
        let mut d = DriftingScenario::new(&sc, 0.05);
        let mut rng = seeded(1);
        let mut prev_div = 0.0;
        let mut grew = 0;
        for _ in 0..20 {
            d.advance(&mut rng);
            let div = d.divergence_from(&sc);
            if div > prev_div {
                grew += 1;
            }
            prev_div = div;
        }
        assert!(prev_div > 0.01, "no drift accumulated: {prev_div}");
        // A random walk won't grow every step, but mostly should early on.
        assert!(grew >= 10, "drift rarely grew ({grew}/20)");
    }

    #[test]
    fn factors_stay_in_bounds() {
        let sc = base();
        let mut d = DriftingScenario::new(&sc, 0.3); // aggressive drift
        let mut rng = seeded(2);
        for _ in 0..200 {
            d.advance(&mut rng);
        }
        let snap = d.snapshot();
        for i in 0..snap.n_videos() {
            let c = snap.clip(i);
            assert!((0.80..=1.05).contains(&c.accuracy_scale), "{c:?}");
            assert!((0.85..=1.25).contains(&c.complexity), "{c:?}");
            assert!((0.75..=1.35).contains(&c.bitrate_factor), "{c:?}");
            assert!((0.5..=1.7).contains(&c.motion), "{c:?}");
        }
    }

    #[test]
    fn zero_step_never_moves() {
        let sc = base();
        let mut d = DriftingScenario::new(&sc, 0.0);
        let mut rng = seeded(3);
        for _ in 0..10 {
            d.advance(&mut rng);
        }
        assert_eq!(d.divergence_from(&sc), 0.0);
    }

    #[test]
    fn drift_is_seed_reproducible() {
        let sc = base();
        let run = |seed: u64| {
            let mut d = DriftingScenario::new(&sc, 0.1);
            let mut rng = seeded(seed);
            for _ in 0..5 {
                d.advance(&mut rng);
            }
            d.divergence_from(&sc)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
