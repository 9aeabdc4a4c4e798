//! The fault processes: seeded up/down Markov chains, transient
//! slowdowns, and per-frame loss.
//!
//! All processes are deterministic given their parameters and seed, and
//! materialize into piecewise-constant traces over a simulation horizon
//! — the same shape as `eva-net`'s `LinkTrace`, so the DES samples them
//! the same way. Queries past the horizon hold the last value (the
//! process is frozen, not undefined).

use eva_sched::{Ticks, TICKS_PER_SEC};

/// Convert seconds to ticks (rounded, floored at 0).
pub fn secs_to_ticks(secs: f64) -> Ticks {
    (secs * TICKS_PER_SEC as f64).round().max(0.0) as Ticks
}

/// A two-state up/down Markov chain with exponential dwells — the
/// classic crash/recovery model. `mttf_s` is the mean up-dwell (mean
/// time to failure), `mttr_s` the mean down-dwell (mean time to
/// repair). Used both for server crash/recovery and camera
/// dropout/rejoin.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityModel {
    /// Mean up dwell (seconds); `f64::INFINITY` = never fails.
    pub mttf_s: f64,
    /// Mean down dwell (seconds).
    pub mttr_s: f64,
    /// Seed for the dwell draws.
    pub seed: u64,
}

impl AvailabilityModel {
    /// A resource that never fails.
    pub(crate) fn always_up() -> Self {
        AvailabilityModel {
            mttf_s: f64::INFINITY,
            mttr_s: 1.0,
            seed: 0,
        }
    }

    /// Crash/recovery with the given MTTF / MTTR (seconds).
    pub(crate) fn crash_recovery(mttf_s: f64, mttr_s: f64, seed: u64) -> Self {
        assert!(
            mttf_s > 0.0 && mttr_s > 0.0,
            "AvailabilityModel: non-positive dwell"
        );
        AvailabilityModel {
            mttf_s,
            mttr_s,
            seed,
        }
    }

    /// True when this model can never produce a down interval.
    pub(crate) fn is_always_up(&self) -> bool {
        !self.mttf_s.is_finite()
    }

    /// Long-run availability `MTTF / (MTTF + MTTR)`.
    #[cfg(test)]
    pub(crate) fn availability(&self) -> f64 {
        if self.is_always_up() {
            1.0
        } else {
            self.mttf_s / (self.mttf_s + self.mttr_s)
        }
    }

    /// Materialize the chain over `[0, horizon)` ticks. The resource
    /// starts up (epoch 0 always sees a healthy fleet; the first
    /// failure arrives after an exponential MTTF dwell).
    pub(crate) fn materialize(&self, horizon: Ticks) -> AvailabilityTrace {
        assert!(horizon > 0, "AvailabilityModel: empty horizon");
        let mut toggles = Vec::new();
        if !self.is_always_up() {
            let mut rng = SplitMix::new(self.seed);
            let mut t: Ticks = 0;
            let mut up = true;
            loop {
                let mean = if up { self.mttf_s } else { self.mttr_s };
                t += secs_to_ticks(rng.exp(mean)).max(1);
                if t >= horizon {
                    break;
                }
                toggles.push(t);
                up = !up;
            }
        }
        AvailabilityTrace { toggles, horizon }
    }
}

/// A materialized up/down trajectory: the resource starts up at `t = 0`
/// and flips state at each toggle instant.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityTrace {
    /// State-flip instants, strictly increasing. Even index = goes
    /// down, odd index = comes back up.
    toggles: Vec<Ticks>,
    horizon: Ticks,
}

impl AvailabilityTrace {
    /// A trace with no failures over any horizon.
    pub fn perfect(horizon: Ticks) -> Self {
        AvailabilityTrace {
            toggles: Vec::new(),
            horizon,
        }
    }

    /// A trace with explicit state-flip instants (even index = failure,
    /// odd = recovery) — lets tests and benches place outages exactly.
    pub fn from_toggles(toggles: Vec<Ticks>, horizon: Ticks) -> Self {
        assert!(
            toggles.windows(2).all(|w| w[0] < w[1]),
            "AvailabilityTrace: toggles must be strictly increasing"
        );
        AvailabilityTrace { toggles, horizon }
    }

    /// Is the resource up at time `t`?
    pub fn is_up(&self, t: Ticks) -> bool {
        // Number of toggles at or before t; even = up.
        let flips = self.toggles.partition_point(|&x| x <= t);
        flips % 2 == 0
    }

    /// Is the resource up for the *whole* closed interval `[a, b]`?
    /// Models "every heartbeat in the window was answered".
    pub fn is_up_throughout(&self, a: Ticks, b: Ticks) -> bool {
        debug_assert!(a <= b, "is_up_throughout: reversed interval");
        if !self.is_up(a) {
            return false;
        }
        // Up at a, and no toggle lands inside (a, b].
        let next = self.toggles.partition_point(|&x| x <= a);
        self.toggles.get(next).is_none_or(|&x| x > b)
    }

    /// Earliest time `>= t` at which the resource is up.
    pub fn next_up_at(&self, t: Ticks) -> Ticks {
        if self.is_up(t) {
            return t;
        }
        let flips = self.toggles.partition_point(|&x| x <= t);
        // flips is odd (down); the next toggle brings it back up. A
        // trace that ends down stays down: report past-horizon.
        self.toggles
            .get(flips)
            .copied()
            .unwrap_or(self.horizon.max(t) + 1)
    }

    /// Fraction of the interval `[a, b)` the resource spent up
    /// (1.0 for an empty interval).
    pub fn up_fraction(&self, a: Ticks, b: Ticks) -> f64 {
        if b <= a {
            return 1.0;
        }
        let mut up_ticks: Ticks = 0;
        let mut t = a;
        while t < b {
            let flips = self.toggles.partition_point(|&x| x <= t);
            let seg_end = self.toggles.get(flips).copied().unwrap_or(b).min(b);
            if flips % 2 == 0 {
                up_ticks += seg_end - t;
            }
            t = seg_end;
        }
        up_ticks as f64 / (b - a) as f64
    }

    /// The state-flip instants (even index = failure, odd = recovery).
    pub fn toggles(&self) -> &[Ticks] {
        &self.toggles
    }

    /// The horizon the trace was materialized for.
    pub fn horizon(&self) -> Ticks {
        self.horizon
    }
}

/// Transient server slowdown (straggler) process: a two-state Markov
/// chain toggling between nominal speed and a service-time inflation
/// `factor > 1`, with exponential dwells.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownModel {
    /// Service-time multiplier while straggling (`>= 1`).
    pub factor: f64,
    /// Mean dwell at nominal speed (seconds); `INFINITY` = never slow.
    pub mean_normal_s: f64,
    /// Mean dwell in the slow state (seconds).
    pub mean_slow_s: f64,
    /// Seed for the dwell draws.
    pub seed: u64,
}

impl SlowdownModel {
    /// A server that never straggles.
    pub(crate) fn none() -> Self {
        SlowdownModel {
            factor: 1.0,
            mean_normal_s: f64::INFINITY,
            mean_slow_s: 1.0,
            seed: 0,
        }
    }

    /// Straggler bursts inflating service time by `factor`.
    pub(crate) fn bursts(factor: f64, mean_normal_s: f64, mean_slow_s: f64, seed: u64) -> Self {
        assert!(factor >= 1.0, "SlowdownModel: factor < 1");
        assert!(
            mean_normal_s > 0.0 && mean_slow_s > 0.0,
            "SlowdownModel: non-positive dwell"
        );
        SlowdownModel {
            factor,
            mean_normal_s,
            mean_slow_s,
            seed,
        }
    }

    /// True when the process never leaves nominal speed.
    pub(crate) fn is_none(&self) -> bool {
        self.factor <= 1.0 || !self.mean_normal_s.is_finite()
    }

    /// Materialize over `[0, horizon)` (starts at nominal speed).
    pub(crate) fn materialize(&self, horizon: Ticks) -> SlowdownTrace {
        assert!(horizon > 0, "SlowdownModel: empty horizon");
        let mut toggles = Vec::new();
        if !self.is_none() {
            let mut rng = SplitMix::new(self.seed ^ 0x5351_4C4F_5744_4F57);
            let mut t: Ticks = 0;
            let mut slow = false;
            loop {
                let mean = if slow {
                    self.mean_slow_s
                } else {
                    self.mean_normal_s
                };
                t += secs_to_ticks(rng.exp(mean)).max(1);
                if t >= horizon {
                    break;
                }
                toggles.push(t);
                slow = !slow;
            }
        }
        SlowdownTrace {
            toggles,
            factor: self.factor.max(1.0),
        }
    }
}

/// A materialized slowdown trajectory: `factor_at(t)` is 1.0 at nominal
/// speed and `factor` while straggling.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownTrace {
    /// State-flip instants (even index = slow begins, odd = ends).
    toggles: Vec<Ticks>,
    factor: f64,
}

impl SlowdownTrace {
    /// A trace that never straggles.
    pub fn nominal() -> Self {
        SlowdownTrace {
            toggles: Vec::new(),
            factor: 1.0,
        }
    }

    /// A trace with explicit state-flip instants (even index = slow
    /// begins, odd = ends) — lets tests place straggler bursts exactly.
    pub fn from_toggles(toggles: Vec<Ticks>, factor: f64) -> Self {
        assert!(factor >= 1.0, "SlowdownTrace: factor < 1");
        assert!(
            toggles.windows(2).all(|w| w[0] < w[1]),
            "SlowdownTrace: toggles must be strictly increasing"
        );
        SlowdownTrace { toggles, factor }
    }

    /// Service-time multiplier at time `t` (`>= 1`).
    pub fn factor_at(&self, t: Ticks) -> f64 {
        let flips = self.toggles.partition_point(|&x| x <= t);
        if flips % 2 == 0 {
            1.0
        } else {
            self.factor
        }
    }

    /// Next state-flip strictly after `t` (`None` once the trace is in
    /// its final state).
    pub fn next_toggle_after(&self, t: Ticks) -> Option<Ticks> {
        let idx = self.toggles.partition_point(|&x| x <= t);
        self.toggles.get(idx).copied()
    }

    /// The state-flip instants (even index = slow begins, odd = ends).
    pub fn toggles(&self) -> &[Ticks] {
        &self.toggles
    }

    /// Service-time multiplier while straggling (`>= 1`).
    pub fn factor(&self) -> f64 {
        self.factor
    }
}

/// Per-frame Bernoulli loss, deterministic in `(stream, frame,
/// attempt)`: the same plan always loses the same transmissions, so
/// retry behaviour replays exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossProcess {
    /// Loss probability per transmission attempt, in `[0, 1)`.
    pub p: f64,
    /// Seed mixed into every draw.
    pub seed: u64,
}

impl LossProcess {
    /// A loss-free link.
    pub fn none() -> Self {
        LossProcess { p: 0.0, seed: 0 }
    }

    /// Independent per-attempt loss with probability `p`.
    pub fn bernoulli(p: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "LossProcess: p outside [0, 1)");
        LossProcess { p, seed }
    }

    /// Is attempt `attempt` of frame `frame` of stream `stream` lost?
    pub fn is_lost(&self, stream: usize, frame: u64, attempt: u32) -> bool {
        if self.p <= 0.0 {
            return false;
        }
        let mut h = SplitMix::new(
            self.seed
                ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ frame.wrapping_mul(0xBF58_476D_1CE4_E5B9)
                ^ (attempt as u64).wrapping_mul(0x94D0_49BB_1331_11EB),
        );
        h.next_f64() < self.p
    }
}

/// Internal deterministic generator (splitmix64) — keeps `eva-fault`
/// dependency-free and fault schedules reproducible across platforms.
#[derive(Debug, Clone)]
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix {
            state: seed ^ 0x6661_756C_7473_2121,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` (53-bit mantissa).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential with the given mean (inverse CDF).
    fn exp(&mut self, mean: f64) -> f64 {
        if !mean.is_finite() {
            return f64::INFINITY;
        }
        -mean * (1.0 - self.next_f64()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: Ticks = 600 * TICKS_PER_SEC;

    #[test]
    fn always_up_has_no_toggles() {
        let t = AvailabilityModel::always_up().materialize(HORIZON);
        assert!(t.toggles().is_empty());
        assert!(t.is_up(0));
        assert!(t.is_up(HORIZON - 1));
        assert!(t.is_up_throughout(0, HORIZON));
        assert_eq!(t.up_fraction(0, HORIZON), 1.0);
        assert_eq!(t.next_up_at(12345), 12345);
    }

    #[test]
    fn traces_are_deterministic_and_seed_sensitive() {
        let m = AvailabilityModel::crash_recovery(30.0, 10.0, 7);
        assert_eq!(m.materialize(HORIZON), m.materialize(HORIZON));
        let other = AvailabilityModel::crash_recovery(30.0, 10.0, 8);
        assert_ne!(m.materialize(HORIZON), other.materialize(HORIZON));
    }

    #[test]
    fn crash_recovery_alternates_and_matches_long_run_availability() {
        let m = AvailabilityModel::crash_recovery(30.0, 10.0, 3);
        let t = m.materialize(3600 * TICKS_PER_SEC);
        assert!(t.toggles().len() > 10, "too few events");
        // Starts up; alternates down/up.
        assert!(t.is_up(0));
        assert!(!t.is_up(t.toggles()[0]));
        assert!(t.is_up(t.toggles()[1]));
        let frac = t.up_fraction(0, 3600 * TICKS_PER_SEC);
        let nominal = m.availability();
        assert!(
            (frac - nominal).abs() < 0.1,
            "empirical {frac} vs nominal {nominal}"
        );
    }

    #[test]
    fn next_up_at_jumps_to_recovery() {
        let m = AvailabilityModel::crash_recovery(5.0, 5.0, 11);
        let t = m.materialize(HORIZON);
        let down_at = t.toggles()[0];
        let up_at = t.toggles()[1];
        assert_eq!(t.next_up_at(down_at), up_at);
        assert_eq!(t.next_up_at(up_at), up_at);
    }

    #[test]
    fn is_up_throughout_detects_flaps() {
        let m = AvailabilityModel::crash_recovery(5.0, 2.0, 13);
        let t = m.materialize(HORIZON);
        let fail = t.toggles()[0];
        let recover = t.toggles()[1];
        // A window straddling the outage is not continuously up even if
        // both endpoints are.
        assert!(t.is_up(fail - 1));
        assert!(t.is_up(recover));
        assert!(!t.is_up_throughout(fail - 1, recover));
        assert!(t.is_up_throughout(0, fail - 1));
    }

    #[test]
    fn up_fraction_partial_interval() {
        // Hand-built trace: down during [10, 30) of [0, 40).
        let t = AvailabilityTrace {
            toggles: vec![10, 30],
            horizon: 40,
        };
        assert_eq!(t.up_fraction(0, 40), 0.5);
        assert_eq!(t.up_fraction(10, 30), 0.0);
        assert_eq!(t.up_fraction(0, 10), 1.0);
        assert_eq!(t.up_fraction(20, 35), 1.0 / 3.0);
    }

    #[test]
    fn slowdown_none_is_nominal_everywhere() {
        let t = SlowdownModel::none().materialize(HORIZON);
        assert_eq!(t.factor_at(0), 1.0);
        assert_eq!(t.factor_at(HORIZON), 1.0);
        assert_eq!(t.next_toggle_after(0), None);
    }

    #[test]
    fn slowdown_bursts_alternate() {
        let m = SlowdownModel::bursts(3.0, 10.0, 5.0, 21);
        let t = m.materialize(HORIZON);
        assert!(t.next_toggle_after(0).is_some());
        let first = t.next_toggle_after(0).unwrap();
        assert_eq!(t.factor_at(first - 1), 1.0);
        assert_eq!(t.factor_at(first), 3.0);
    }

    #[test]
    fn loss_zero_never_loses() {
        let l = LossProcess::none();
        for k in 0..1000u64 {
            assert!(!l.is_lost(0, k, 0));
        }
    }

    #[test]
    fn loss_rate_matches_probability() {
        let l = LossProcess::bernoulli(0.3, 99);
        let lost = (0..10_000u64).filter(|&k| l.is_lost(1, k, 0)).count();
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn loss_is_deterministic_but_attempt_sensitive() {
        let l = LossProcess::bernoulli(0.5, 5);
        assert_eq!(l.is_lost(2, 17, 0), l.is_lost(2, 17, 0));
        // Across many frames, attempt 0 and 1 must disagree somewhere
        // (retries re-roll the dice).
        assert!((0..200u64).any(|k| l.is_lost(2, k, 0) != l.is_lost(2, k, 1)));
    }
}
