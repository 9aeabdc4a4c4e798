//! [`FaultPlan`]: the bundle of fault processes a scenario carries, plus
//! the [`RetryPolicy`] governing lost-frame retransmission.
//!
//! A plan is pure description — nothing is materialized until the DES
//! (or the online loop) asks for traces over a concrete horizon. The
//! zero plan ([`FaultPlan::none`]) materializes to perfect traces and
//! is the observational identity: simulations and online runs carrying
//! it must be bit-identical to runs carrying no plan at all.

use crate::process::{
    AvailabilityModel, AvailabilityTrace, LossProcess, SlowdownModel, SlowdownTrace,
};
use eva_sched::{Ticks, TICKS_PER_SEC};

/// Fault processes attached to one server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerFaults {
    /// Crash/recovery chain (up/down).
    pub availability: AvailabilityModel,
    /// Transient slowdown (straggler) chain.
    pub slowdown: SlowdownModel,
}

impl ServerFaults {
    /// A server that never crashes and never straggles.
    pub(crate) fn none() -> Self {
        ServerFaults {
            availability: AvailabilityModel::always_up(),
            slowdown: SlowdownModel::none(),
        }
    }

    /// True when neither process can fire.
    pub(crate) fn is_zero(&self) -> bool {
        self.availability.is_always_up() && self.slowdown.is_none()
    }
}

/// Fault processes attached to one camera (and its uplink).
#[derive(Debug, Clone, PartialEq)]
pub struct CameraFaults {
    /// Dropout/rejoin chain — frames captured while the camera is down
    /// simply never exist.
    pub availability: AvailabilityModel,
    /// Per-transmission frame loss on the camera's uplink.
    pub loss: LossProcess,
}

impl CameraFaults {
    /// A camera that never drops out on a loss-free uplink.
    pub(crate) fn none() -> Self {
        CameraFaults {
            availability: AvailabilityModel::always_up(),
            loss: LossProcess::none(),
        }
    }

    /// True when neither process can fire.
    pub(crate) fn is_zero(&self) -> bool {
        self.availability.is_always_up() && self.loss.p <= 0.0
    }
}

/// Bounded retransmission with exponential backoff: attempt `k`
/// (0-based) of a lost frame waits `base_backoff * 2^(k-1)` before
/// being resent, up to `max_retries` resends, after which the frame
/// counts as dropped — never stuck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Resend attempts after the initial transmission (0 = no retry).
    pub max_retries: u32,
    /// Backoff before the first resend (seconds).
    pub base_backoff_s: f64,
}

impl RetryPolicy {
    /// The default policy: three resends, 20 ms initial backoff.
    pub fn standard() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_s: 0.020,
        }
    }

    /// No retransmission: a lost frame is immediately dropped.
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff_s: 0.0,
        }
    }

    /// Backoff (ticks) before resend attempt `attempt` (1-based; the
    /// initial send is attempt 0 and has no backoff). Doubles each
    /// retry: base, 2*base, 4*base, ...
    pub fn backoff_ticks(&self, attempt: u32) -> Ticks {
        if attempt == 0 {
            return 0;
        }
        let scaled = self.base_backoff_s * f64::powi(2.0, attempt as i32 - 1);
        (scaled * TICKS_PER_SEC as f64).round().max(0.0) as Ticks
    }
}

/// The full fault description for a scenario: one [`ServerFaults`] per
/// server, one [`CameraFaults`] per camera, and the retry policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Per-server fault processes (length = number of servers).
    pub servers: Vec<ServerFaults>,
    /// Per-camera fault processes (length = number of cameras).
    pub cameras: Vec<CameraFaults>,
    /// Lost-frame retransmission policy.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// The zero plan: nothing ever fails. Observationally identical to
    /// carrying no plan at all.
    pub fn none(n_servers: usize, n_cameras: usize) -> Self {
        FaultPlan {
            servers: vec![ServerFaults::none(); n_servers],
            cameras: vec![CameraFaults::none(); n_cameras],
            retry: RetryPolicy::standard(),
        }
    }

    /// Identical crash/recovery chains on every server (seeds are
    /// decorrelated per server).
    pub fn with_server_crashes(mut self, mttf_s: f64, mttr_s: f64, seed: u64) -> Self {
        for (i, s) in self.servers.iter_mut().enumerate() {
            s.availability = AvailabilityModel::crash_recovery(
                mttf_s,
                mttr_s,
                seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
            );
        }
        self
    }

    /// Straggler bursts on every server (seeds decorrelated).
    pub fn with_server_stragglers(
        mut self,
        factor: f64,
        mean_normal_s: f64,
        mean_slow_s: f64,
        seed: u64,
    ) -> Self {
        for (i, s) in self.servers.iter_mut().enumerate() {
            s.slowdown = SlowdownModel::bursts(
                factor,
                mean_normal_s,
                mean_slow_s,
                seed.wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(i as u64 + 1)),
            );
        }
        self
    }

    /// Dropout/rejoin chains on every camera (seeds decorrelated).
    pub fn with_camera_dropout(mut self, mttf_s: f64, mttr_s: f64, seed: u64) -> Self {
        for (i, c) in self.cameras.iter_mut().enumerate() {
            c.availability = AvailabilityModel::crash_recovery(
                mttf_s,
                mttr_s,
                seed.wrapping_add(0x94D0_49BB_1331_11EBu64.wrapping_mul(i as u64 + 1)),
            );
        }
        self
    }

    /// Bernoulli per-frame loss on every camera uplink (seeds
    /// decorrelated via the stream index inside [`LossProcess`]).
    pub fn with_frame_loss(mut self, p: f64, seed: u64) -> Self {
        for c in self.cameras.iter_mut() {
            c.loss = LossProcess::bernoulli(p, seed);
        }
        self
    }

    /// Replace the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// True when no process anywhere can fire — the plan is the
    /// observational identity.
    pub fn is_zero(&self) -> bool {
        self.servers.iter().all(ServerFaults::is_zero)
            && self.cameras.iter().all(CameraFaults::is_zero)
    }

    /// Materialize every server availability trace over `horizon`.
    pub fn server_availability(&self, horizon: Ticks) -> Vec<AvailabilityTrace> {
        self.servers
            .iter()
            .map(|s| s.availability.materialize(horizon))
            .collect()
    }

    /// Materialize every server slowdown trace over `horizon`.
    pub fn server_slowdown(&self, horizon: Ticks) -> Vec<SlowdownTrace> {
        self.servers
            .iter()
            .map(|s| s.slowdown.materialize(horizon))
            .collect()
    }

    /// Materialize every camera availability trace over `horizon`.
    pub fn camera_availability(&self, horizon: Ticks) -> Vec<AvailabilityTrace> {
        self.cameras
            .iter()
            .map(|c| c.availability.materialize(horizon))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_zero() {
        let p = FaultPlan::none(4, 8);
        assert!(p.is_zero());
        assert_eq!(p.servers.len(), 4);
        assert_eq!(p.cameras.len(), 8);
    }

    #[test]
    fn builders_clear_zero_flag() {
        assert!(!FaultPlan::none(2, 2)
            .with_server_crashes(60.0, 10.0, 1)
            .is_zero());
        assert!(!FaultPlan::none(2, 2)
            .with_server_stragglers(2.0, 30.0, 5.0, 1)
            .is_zero());
        assert!(!FaultPlan::none(2, 2)
            .with_camera_dropout(120.0, 15.0, 1)
            .is_zero());
        assert!(!FaultPlan::none(2, 2).with_frame_loss(0.05, 1).is_zero());
    }

    #[test]
    fn per_server_seeds_are_decorrelated() {
        let p = FaultPlan::none(3, 0).with_server_crashes(30.0, 10.0, 42);
        let horizon = 600 * TICKS_PER_SEC;
        let traces = p.server_availability(horizon);
        assert_ne!(traces[0], traces[1]);
        assert_ne!(traces[1], traces[2]);
    }

    #[test]
    fn backoff_doubles() {
        let r = RetryPolicy {
            max_retries: 4,
            base_backoff_s: 0.010,
        };
        assert_eq!(r.backoff_ticks(0), 0);
        let b1 = r.backoff_ticks(1);
        assert!(b1 > 0);
        assert_eq!(r.backoff_ticks(2), 2 * b1);
        assert_eq!(r.backoff_ticks(3), 4 * b1);
    }

    #[test]
    fn no_retry_policy() {
        let r = RetryPolicy::no_retry();
        assert_eq!(r.max_retries, 0);
        assert_eq!(r.backoff_ticks(1), 0);
    }
}
