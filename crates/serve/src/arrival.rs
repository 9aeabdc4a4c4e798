//! Seeded arrival–departure processes for continuous serving.
//!
//! A [`ChurnTrace`] is a deterministic, pre-generated list of tenant
//! arrival and departure events over a horizon. Generating the whole
//! trace up front (rather than sampling inside the serving loop) keeps
//! the serving loop's RNG stream untouched by churn — the zero-rate
//! trace is *empty*, so a zero-rate serving run consumes exactly the
//! same random numbers as a plain online run and stays bit-identical.
//!
//! Two models:
//!
//! * **Poisson**: exponential inter-arrival times at a constant rate —
//!   the classic open-arrival assumption,
//! * **MMPP(2)**: a Markov-modulated Poisson process with two states
//!   (e.g. calm / storm) whose state dwell times are exponential. This
//!   produces the bursty arrival clumps that stress admission control
//!   far harder than a rate-matched Poisson process does.
//!
//! Each arriving tenant holds the system for an exponential "hold"
//! (service) time, giving an M/G/∞-style departure stream.

use rand::Rng;

/// The arrival process shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Constant-rate Poisson arrivals.
    Poisson {
        /// Mean arrivals per second (0.0 disables churn entirely).
        rate_hz: f64,
    },
    /// Two-state Markov-modulated Poisson process. State 0 is the
    /// initial state.
    Mmpp {
        /// Per-state arrival rates (arrivals per second).
        rate_hz: [f64; 2],
        /// Per-state mean dwell times in seconds (exponential).
        mean_dwell_s: [f64; 2],
    },
}

impl ArrivalModel {
    /// True when the model can never emit an arrival.
    pub(crate) fn is_silent(&self) -> bool {
        match *self {
            ArrivalModel::Poisson { rate_hz } => rate_hz <= 0.0,
            ArrivalModel::Mmpp { rate_hz, .. } => rate_hz.iter().all(|&r| r <= 0.0),
        }
    }
}

/// Parameters of a churn trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Arrival process.
    pub model: ArrivalModel,
    /// Mean tenant hold (service) time in seconds, exponential.
    pub mean_hold_s: f64,
    /// Trace horizon in seconds; events at `t >= horizon_s` are dropped.
    pub horizon_s: f64,
    /// RNG seed — the trace is a pure function of this config.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            model: ArrivalModel::Poisson { rate_hz: 0.1 },
            mean_hold_s: 30.0,
            horizon_s: 120.0,
            seed: 0,
        }
    }
}

/// What a churn event does to the tenant set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// A new tenant (camera) requests admission.
    Arrive,
    /// A previously arrived tenant leaves.
    Depart,
}

/// One timestamped churn event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// Event time in seconds from the start of the run.
    pub time_s: f64,
    /// Tenant identifier — arrival order (0, 1, 2, …). A `Depart`
    /// always refers to an earlier `Arrive` with the same id.
    pub tenant: u64,
    /// Arrival or departure.
    pub action: ChurnAction,
}

/// A complete, time-ordered churn trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnTrace {
    events: Vec<ChurnEvent>,
    n_arrivals: u64,
}

/// Exponential draw with the given mean. `u ∈ [0, 1)` from the RNG;
/// `1 - u ∈ (0, 1]` keeps `ln` finite.
fn exp_sample<R: Rng + ?Sized>(rng: &mut R, mean_s: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() * mean_s
}

impl ChurnTrace {
    /// Generate the trace. Deterministic in `cfg`; a silent model
    /// produces an empty trace without consuming any randomness beyond
    /// the (locally seeded) generator this function owns.
    pub fn generate(cfg: &ChurnConfig) -> Self {
        assert!(cfg.mean_hold_s > 0.0, "mean_hold_s must be positive");
        assert!(cfg.horizon_s >= 0.0, "horizon_s must be non-negative");
        if cfg.model.is_silent() || cfg.horizon_s == 0.0 {
            return ChurnTrace::default();
        }
        let mut rng = eva_stats::rng::seeded(cfg.seed);
        let mut events: Vec<ChurnEvent> = Vec::new();
        let mut tenant: u64 = 0;
        let mut t = 0.0_f64;

        // Unify both models as a state machine: Poisson is an MMPP with
        // one state and an infinite dwell.
        let (rates, dwells) = match cfg.model {
            ArrivalModel::Poisson { rate_hz } => ([rate_hz, rate_hz], [f64::INFINITY; 2]),
            ArrivalModel::Mmpp {
                rate_hz,
                mean_dwell_s,
            } => {
                assert!(
                    mean_dwell_s.iter().all(|&d| d > 0.0),
                    "MMPP dwell times must be positive"
                );
                (rate_hz, mean_dwell_s)
            }
        };
        let mut state = 0usize;
        let mut switch_at = if dwells[state].is_finite() {
            exp_sample(&mut rng, dwells[state])
        } else {
            f64::INFINITY
        };

        loop {
            let rate = rates[state];
            // Competing exponentials: by memorylessness, re-drawing the
            // arrival candidate after each state switch is exact.
            let arrival_at = if rate > 0.0 {
                t + exp_sample(&mut rng, 1.0 / rate)
            } else {
                f64::INFINITY
            };
            if arrival_at.min(switch_at) >= cfg.horizon_s {
                break;
            }
            if arrival_at <= switch_at {
                events.push(ChurnEvent {
                    time_s: arrival_at,
                    tenant,
                    action: ChurnAction::Arrive,
                });
                let depart_at = arrival_at + exp_sample(&mut rng, cfg.mean_hold_s);
                if depart_at < cfg.horizon_s {
                    events.push(ChurnEvent {
                        time_s: depart_at,
                        tenant,
                        action: ChurnAction::Depart,
                    });
                }
                tenant += 1;
                t = arrival_at;
            } else {
                t = switch_at;
                state = 1 - state;
                switch_at = t + if dwells[state].is_finite() {
                    exp_sample(&mut rng, dwells[state])
                } else {
                    f64::INFINITY
                };
            }
        }

        // Departures were pushed out of order (a short-hold tenant can
        // leave before the next arrival). Stable sort on time keeps
        // same-instant events in generation order.
        events.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
        ChurnTrace {
            events,
            n_arrivals: tenant,
        }
    }

    /// All events, time-ordered.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// True when the trace contains no events at all.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of arrivals in the trace.
    #[cfg(test)]
    pub(crate) fn n_arrivals(&self) -> u64 {
        self.n_arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson(rate_hz: f64, horizon_s: f64, seed: u64) -> ChurnConfig {
        ChurnConfig {
            model: ArrivalModel::Poisson { rate_hz },
            mean_hold_s: 20.0,
            horizon_s,
            seed,
        }
    }

    #[test]
    fn trace_is_deterministic_in_seed() {
        let a = ChurnTrace::generate(&poisson(0.5, 300.0, 7));
        let b = ChurnTrace::generate(&poisson(0.5, 300.0, 7));
        assert_eq!(a, b);
        let c = ChurnTrace::generate(&poisson(0.5, 300.0, 8));
        assert_ne!(a, c);
    }

    #[test]
    fn zero_rate_trace_is_empty() {
        let t = ChurnTrace::generate(&poisson(0.0, 1000.0, 3));
        assert!(t.is_empty());
        assert_eq!(t.n_arrivals(), 0);
        let silent_mmpp = ChurnConfig {
            model: ArrivalModel::Mmpp {
                rate_hz: [0.0, 0.0],
                mean_dwell_s: [10.0, 10.0],
            },
            ..poisson(0.0, 1000.0, 3)
        };
        assert!(ChurnTrace::generate(&silent_mmpp).is_empty());
    }

    #[test]
    fn arrival_count_tracks_rate() {
        // λ·T = 0.2 · 5000 = 1000 expected arrivals; Poisson sd ≈ 32.
        let t = ChurnTrace::generate(&poisson(0.2, 5000.0, 11));
        let n = t.n_arrivals() as f64;
        assert!((n - 1000.0).abs() < 150.0, "n = {n}");
    }

    #[test]
    fn events_are_time_ordered_and_within_horizon() {
        let t = ChurnTrace::generate(&poisson(1.0, 200.0, 5));
        for w in t.events().windows(2) {
            assert!(w[0].time_s <= w[1].time_s);
        }
        for e in t.events() {
            assert!(e.time_s >= 0.0 && e.time_s < 200.0);
        }
    }

    #[test]
    fn every_departure_follows_its_arrival() {
        let t = ChurnTrace::generate(&poisson(0.8, 400.0, 13));
        let mut arrived = std::collections::HashSet::new();
        let mut departed = std::collections::HashSet::new();
        for e in t.events() {
            match e.action {
                ChurnAction::Arrive => {
                    assert!(arrived.insert(e.tenant), "duplicate arrival {e:?}");
                }
                ChurnAction::Depart => {
                    assert!(arrived.contains(&e.tenant), "depart before arrive {e:?}");
                    assert!(departed.insert(e.tenant), "duplicate departure {e:?}");
                }
            }
        }
        assert_eq!(arrived.len() as u64, t.n_arrivals());
    }

    #[test]
    fn mmpp_is_burstier_than_rate_matched_poisson() {
        // Storm state 20× the calm rate; compare the variance of
        // per-window arrival counts (index of dispersion). Averaged over
        // seeds to keep the test robust.
        let horizon = 2000.0;
        let mut mmpp_disp = 0.0;
        let mut poisson_disp = 0.0;
        let n_seeds = 5;
        for seed in 0..n_seeds {
            let m = ChurnTrace::generate(&ChurnConfig {
                model: ArrivalModel::Mmpp {
                    rate_hz: [0.02, 0.4],
                    mean_dwell_s: [100.0, 20.0],
                },
                mean_hold_s: 20.0,
                horizon_s: horizon,
                seed,
            });
            // Rate-matched Poisson: stationary MMPP rate =
            // (0.02·100 + 0.4·20) / 120.
            let avg_rate = (0.02 * 100.0 + 0.4 * 20.0) / 120.0;
            let p = ChurnTrace::generate(&poisson(avg_rate, horizon, seed + 100));
            mmpp_disp += dispersion(&m, horizon);
            poisson_disp += dispersion(&p, horizon);
        }
        assert!(
            mmpp_disp > 1.5 * poisson_disp,
            "mmpp {mmpp_disp} vs poisson {poisson_disp}"
        );
    }

    /// Index of dispersion of arrival counts over 50 s windows.
    fn dispersion(t: &ChurnTrace, horizon: f64) -> f64 {
        let w = 50.0;
        let n_win = (horizon / w) as usize;
        let mut counts = vec![0.0_f64; n_win];
        for e in t.events() {
            if e.action == ChurnAction::Arrive {
                let i = ((e.time_s / w) as usize).min(n_win - 1);
                counts[i] += 1.0;
            }
        }
        let mean = counts.iter().sum::<f64>() / n_win as f64;
        let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / n_win as f64;
        if mean == 0.0 {
            0.0
        } else {
            var / mean
        }
    }
}
