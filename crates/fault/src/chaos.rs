//! Composed chaos: one seeded spec that stacks churn storms × link
//! collapse × crash bursts × control-plane stragglers.
//!
//! A [`ChaosSpec`] is the overload experiment's single source of
//! truth: every ingredient derives its own decorrelated sub-seed from
//! the spec seed, so one `u64` reproduces the whole composed storm.
//! The spec deliberately speaks in plain numbers — rates, dwells,
//! factors — rather than serving-layer types: `eva-fault` sits below
//! `eva-serve` in the layering, so the serving loop (or the
//! `ext_overload` experiment) composes [`ChurnStorm`] into its own
//! arrival model while this crate materializes the parts it owns
//! (crash [`FaultPlan`]s and seeded time windows for link collapse /
//! control stragglers).
//!
//! Windows reuse the two-state exponential-dwell machinery of
//! [`SlowdownModel`], so they inherit its determinism guarantees.

use eva_sched::{Ticks, TICKS_PER_SEC};

use crate::plan::FaultPlan;
use crate::process::{secs_to_ticks, SlowdownModel};

/// MMPP churn-storm parameters (composed into the serving layer's
/// arrival model by the caller): a calm regime and a storm regime with
/// exponential regime dwells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnStorm {
    /// Arrival rate in the calm regime (tenants/s).
    pub calm_rate_hz: f64,
    /// Arrival rate in the storm regime (tenants/s).
    pub storm_rate_hz: f64,
    /// Mean dwell in each regime, `[calm, storm]` seconds.
    pub mean_dwell_s: [f64; 2],
    /// Mean tenant hold time (seconds).
    pub mean_hold_s: f64,
}

/// Server crash-burst parameters (exponential MTTF/MTTR per server).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashBursts {
    /// Mean time to failure per server (seconds).
    pub mttf_s: f64,
    /// Mean time to recovery per server (seconds).
    pub mttr_s: f64,
}

/// Link-collapse parameters: seeded windows during which every uplink
/// is scaled by `factor` (< 1 collapses capacity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCollapse {
    /// Uplink multiplier while collapsed (0 < factor ≤ 1).
    pub factor: f64,
    /// Mean dwell at full capacity (seconds).
    pub mean_normal_s: f64,
    /// Mean dwell collapsed (seconds).
    pub mean_collapsed_s: f64,
}

/// Control-plane straggler parameters: seeded windows during which the
/// controller's decision budget is divided by `factor` (the control
/// plane itself runs slow, so it affords less work per window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlStragglers {
    /// Budget divisor while straggling (≥ 1).
    pub factor: f64,
    /// Mean dwell at nominal controller speed (seconds).
    pub mean_normal_s: f64,
    /// Mean dwell straggling (seconds).
    pub mean_slow_s: f64,
}

/// A `[t0_s, t1_s)` window carrying a multiplier (link factor or
/// straggler divisor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosWindow {
    /// Window start (seconds).
    pub t0_s: f64,
    /// Window end (seconds).
    pub t1_s: f64,
    /// The window's multiplier.
    pub factor: f64,
}

/// Seeded composition of the four chaos ingredients. Any subset may be
/// active; an all-`None` spec is inert (its fault plan is zero-rate
/// and both window sets are empty).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosSpec {
    /// Master seed; each ingredient decorrelates its own sub-seed.
    pub seed: u64,
    /// Tenant churn storm (composed by the serving layer).
    pub churn_storm: Option<ChurnStorm>,
    /// Server crash bursts.
    pub crash_bursts: Option<CrashBursts>,
    /// Uplink collapse windows.
    pub link_collapse: Option<LinkCollapse>,
    /// Control-plane straggler windows.
    pub stragglers: Option<ControlStragglers>,
}

impl ChaosSpec {
    /// An inert spec (no chaos, any seed).
    pub fn none(seed: u64) -> Self {
        ChaosSpec {
            seed,
            ..ChaosSpec::default()
        }
    }

    /// Sub-seed for ingredient `k` (decorrelated by the usual odd
    /// multiplicative constant).
    fn sub_seed(&self, k: u64) -> u64 {
        self.seed ^ (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// The churn sub-seed (for the serving layer's arrival trace).
    pub fn churn_seed(&self) -> u64 {
        self.sub_seed(0)
    }

    /// The crash-burst [`FaultPlan`] for an `n_servers` × `n_cameras`
    /// system (zero-rate when `crash_bursts` is `None`).
    pub fn fault_plan(&self, n_servers: usize, n_cameras: usize) -> FaultPlan {
        let plan = FaultPlan::none(n_servers, n_cameras);
        match self.crash_bursts {
            Some(c) => plan.with_server_crashes(c.mttf_s, c.mttr_s, self.sub_seed(1)),
            None => plan,
        }
    }

    /// The seeded link-collapse windows over `[0, horizon_s)`, each
    /// carrying the collapse factor. Empty when `link_collapse` is
    /// `None`.
    pub fn link_windows(&self, horizon_s: f64) -> Vec<ChaosWindow> {
        match self.link_collapse {
            Some(l) => windows(
                l.mean_normal_s,
                l.mean_collapsed_s,
                self.sub_seed(2),
                horizon_s,
                l.factor,
            ),
            None => Vec::new(),
        }
    }

    /// The seeded control-straggler windows over `[0, horizon_s)`,
    /// each carrying the budget divisor. Empty when `stragglers` is
    /// `None`.
    pub fn straggler_windows(&self, horizon_s: f64) -> Vec<ChaosWindow> {
        match self.stragglers {
            Some(s) => windows(
                s.mean_normal_s,
                s.mean_slow_s,
                self.sub_seed(3),
                horizon_s,
                s.factor,
            ),
            None => Vec::new(),
        }
    }

    /// Whether the spec injects anything at all.
    #[cfg(test)]
    pub(crate) fn is_inert(&self) -> bool {
        self.churn_storm.is_none()
            && self.crash_bursts.is_none()
            && self.link_collapse.is_none()
            && self.stragglers.is_none()
    }
}

/// Alternating normal/active windows from the two-state
/// exponential-dwell process (normal first), as `[t0, t1)` seconds.
fn windows(
    mean_normal_s: f64,
    mean_active_s: f64,
    seed: u64,
    horizon_s: f64,
    factor: f64,
) -> Vec<ChaosWindow> {
    let horizon: Ticks = secs_to_ticks(horizon_s).max(1);
    // The factor handed to the model is irrelevant (we only read the
    // toggles); 2.0 satisfies its `factor >= 1` contract.
    let trace = SlowdownModel::bursts(2.0, mean_normal_s, mean_active_s, seed).materialize(horizon);
    let toggles = trace_toggles(&trace, horizon);
    toggles
        .chunks(2)
        .map(|w| ChaosWindow {
            t0_s: w[0] as f64 / TICKS_PER_SEC as f64,
            t1_s: w
                .get(1)
                .map_or(horizon_s, |&t| t as f64 / TICKS_PER_SEC as f64),
            factor,
        })
        .collect()
}

/// Extract the flip instants of a materialized slowdown trace by
/// walking [`next_toggle_after`](crate::process::SlowdownTrace::next_toggle_after).
fn trace_toggles(trace: &crate::process::SlowdownTrace, horizon: Ticks) -> Vec<Ticks> {
    let mut out = Vec::new();
    let mut t: Ticks = 0;
    if trace.factor_at(0) > 1.0 {
        out.push(0);
    }
    while let Some(next) = trace.next_toggle_after(t) {
        if next >= horizon {
            break;
        }
        out.push(next);
        t = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_spec(seed: u64) -> ChaosSpec {
        ChaosSpec {
            seed,
            churn_storm: Some(ChurnStorm {
                calm_rate_hz: 0.01,
                storm_rate_hz: 0.5,
                mean_dwell_s: [60.0, 15.0],
                mean_hold_s: 45.0,
            }),
            crash_bursts: Some(CrashBursts {
                mttf_s: 90.0,
                mttr_s: 20.0,
            }),
            link_collapse: Some(LinkCollapse {
                factor: 0.4,
                mean_normal_s: 50.0,
                mean_collapsed_s: 12.0,
            }),
            stragglers: Some(ControlStragglers {
                factor: 4.0,
                mean_normal_s: 40.0,
                mean_slow_s: 20.0,
            }),
        }
    }

    #[test]
    fn inert_spec_produces_nothing() {
        let spec = ChaosSpec::none(7);
        assert!(spec.is_inert());
        assert!(spec.fault_plan(4, 8).is_zero());
        assert!(spec.link_windows(600.0).is_empty());
        assert!(spec.straggler_windows(600.0).is_empty());
    }

    #[test]
    fn composition_is_deterministic_per_seed() {
        let a = full_spec(42);
        let b = full_spec(42);
        assert_eq!(a.link_windows(600.0), b.link_windows(600.0));
        assert_eq!(a.straggler_windows(600.0), b.straggler_windows(600.0));
        assert_eq!(
            a.fault_plan(4, 8).server_availability(600 * TICKS_PER_SEC),
            b.fault_plan(4, 8).server_availability(600 * TICKS_PER_SEC)
        );
        let c = full_spec(43);
        assert_ne!(a.link_windows(3600.0), c.link_windows(3600.0));
    }

    #[test]
    fn ingredients_are_decorrelated() {
        // Same dwells for link collapse and stragglers: different
        // sub-seeds must still give different flip schedules.
        let spec = ChaosSpec {
            seed: 42,
            link_collapse: Some(LinkCollapse {
                factor: 0.5,
                mean_normal_s: 50.0,
                mean_collapsed_s: 12.0,
            }),
            stragglers: Some(ControlStragglers {
                factor: 2.0,
                mean_normal_s: 50.0,
                mean_slow_s: 12.0,
            }),
            ..ChaosSpec::default()
        };
        let links: Vec<(f64, f64)> = spec
            .link_windows(3600.0)
            .iter()
            .map(|w| (w.t0_s, w.t1_s))
            .collect();
        let slow: Vec<(f64, f64)> = spec
            .straggler_windows(3600.0)
            .iter()
            .map(|w| (w.t0_s, w.t1_s))
            .collect();
        assert_ne!(links, slow);
    }

    #[test]
    fn windows_are_ordered_and_within_horizon() {
        let spec = full_spec(9);
        let h = 1800.0;
        for w in spec
            .link_windows(h)
            .iter()
            .chain(&spec.straggler_windows(h))
        {
            assert!(w.t0_s < w.t1_s, "{w:?}");
            assert!(w.t0_s >= 0.0 && w.t1_s <= h + 1e-9, "{w:?}");
        }
        let lw = spec.link_windows(h);
        for pair in lw.windows(2) {
            assert!(pair[0].t1_s <= pair[1].t0_s, "overlapping windows");
        }
        assert!(!lw.is_empty(), "dwells this short must produce windows");
    }

    #[test]
    fn window_factors_carry_through() {
        let spec = full_spec(5);
        assert!(spec.link_windows(600.0).iter().all(|w| w.factor == 0.4));
        assert!(spec
            .straggler_windows(600.0)
            .iter()
            .all(|w| w.factor == 4.0));
    }
}
