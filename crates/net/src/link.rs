//! Time-varying uplink bandwidth processes.
//!
//! A [`LinkModel`] describes one camera's uplink as a deterministic
//! (seeded) random process `B(t)`; [`LinkModel::trace`] materializes it
//! into a piecewise-constant [`LinkTrace`] over a simulation horizon.
//! Three families cover the usual measurement-study shapes:
//!
//! * **Constant** — the paper's fixed-`B` assumption (and the
//!   bit-identity anchor: a constant trace must reproduce the fixed
//!   `trans` simulation exactly),
//! * **Markov** — Gilbert-Elliott-style rate switching between a small
//!   set of states with exponentially distributed dwell times (fading /
//!   contention bursts),
//! * **Sinusoid** — a diurnal-style slow oscillation plus bounded
//!   per-quantum noise.

use eva_sched::{Ticks, TICKS_PER_SEC};

/// Floor on modeled rates (bits/s): keeps per-frame transmission times
/// finite even in deep fades.
pub(crate) const MIN_RATE_BPS: f64 = 1e3;

/// Time quantum of the sinusoid trace (seconds).
const SINUSOID_QUANTUM_S: f64 = 0.25;

/// One state of a Markov-modulated link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkovState {
    /// Link rate while in this state (bits/s).
    pub rate_bps: f64,
    /// Mean dwell time in this state (seconds); dwells are exponential.
    pub mean_dwell_s: f64,
}

/// A per-camera time-varying uplink bandwidth process. Deterministic
/// given its parameters (and seed, for the stochastic families).
#[derive(Debug, Clone, PartialEq)]
pub enum LinkModel {
    /// Fixed rate — the paper's provisioned-uplink assumption.
    Constant {
        /// Link rate (bits/s).
        rate_bps: f64,
    },
    /// Markov-modulated rate switching: the link sits in one of
    /// `states`, staying an exponential dwell, then jumps to another
    /// state (uniformly among the others).
    Markov {
        /// The rate states (at least two).
        states: Vec<MarkovState>,
        /// Seed for dwell and transition draws.
        seed: u64,
    },
    /// Slow sinusoidal oscillation with per-quantum noise — the
    /// diurnal shape of campus/ISP uplink studies, time-compressed.
    Sinusoid {
        /// Mean rate (bits/s).
        mean_bps: f64,
        /// Peak deviation from the mean (bits/s).
        amplitude_bps: f64,
        /// Oscillation period (seconds).
        period_s: f64,
        /// Relative noise magnitude per quantum (e.g. 0.05 = ±5%).
        noise_rel: f64,
        /// Seed for the noise draws.
        seed: u64,
    },
}

impl LinkModel {
    /// A fixed-rate link.
    pub fn constant(rate_bps: f64) -> Self {
        assert!(rate_bps > 0.0, "LinkModel: non-positive rate");
        LinkModel::Constant { rate_bps }
    }

    /// Two-state Gilbert-Elliott rate switching.
    pub fn gilbert_elliott(
        good_bps: f64,
        bad_bps: f64,
        dwell_good_s: f64,
        dwell_bad_s: f64,
        seed: u64,
    ) -> Self {
        LinkModel::markov(
            vec![
                MarkovState {
                    rate_bps: good_bps,
                    mean_dwell_s: dwell_good_s,
                },
                MarkovState {
                    rate_bps: bad_bps,
                    mean_dwell_s: dwell_bad_s,
                },
            ],
            seed,
        )
    }

    /// Three-state Markov switching (good / degraded / bad; tests only).
    #[cfg(test)]
    pub(crate) fn three_state(rates_bps: [f64; 3], dwells_s: [f64; 3], seed: u64) -> Self {
        LinkModel::markov(
            rates_bps
                .iter()
                .zip(&dwells_s)
                .map(|(&rate_bps, &mean_dwell_s)| MarkovState {
                    rate_bps,
                    mean_dwell_s,
                })
                .collect(),
            seed,
        )
    }

    /// General Markov-modulated link over explicit states.
    pub(crate) fn markov(states: Vec<MarkovState>, seed: u64) -> Self {
        assert!(states.len() >= 2, "LinkModel::markov: need >= 2 states");
        assert!(
            states
                .iter()
                .all(|s| s.rate_bps > 0.0 && s.mean_dwell_s > 0.0),
            "LinkModel::markov: degenerate state"
        );
        LinkModel::Markov { states, seed }
    }

    /// Sinusoidal diurnal oscillation plus per-quantum noise.
    pub fn sinusoid(
        mean_bps: f64,
        amplitude_bps: f64,
        period_s: f64,
        noise_rel: f64,
        seed: u64,
    ) -> Self {
        assert!(
            mean_bps > 0.0 && period_s > 0.0,
            "LinkModel: degenerate sinusoid"
        );
        assert!(
            amplitude_bps >= 0.0 && amplitude_bps < mean_bps,
            "LinkModel: amplitude must leave the rate positive"
        );
        assert!(
            (0.0..1.0).contains(&noise_rel),
            "LinkModel: noise_rel in [0, 1)"
        );
        LinkModel::Sinusoid {
            mean_bps,
            amplitude_bps,
            period_s,
            noise_rel,
            seed,
        }
    }

    /// The same process with every rate multiplied by `factor` — the
    /// hook `ChaosSpec`-style link collapse uses to degrade one member
    /// of a bundle without touching its dwell structure or seed.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "LinkModel::scaled: factor must be finite and positive"
        );
        match self {
            LinkModel::Constant { rate_bps } => LinkModel::Constant {
                rate_bps: rate_bps * factor,
            },
            LinkModel::Markov { states, seed } => LinkModel::Markov {
                states: states
                    .iter()
                    .map(|s| MarkovState {
                        rate_bps: s.rate_bps * factor,
                        mean_dwell_s: s.mean_dwell_s,
                    })
                    .collect(),
                seed: *seed,
            },
            LinkModel::Sinusoid {
                mean_bps,
                amplitude_bps,
                period_s,
                noise_rel,
                seed,
            } => LinkModel::Sinusoid {
                mean_bps: mean_bps * factor,
                amplitude_bps: amplitude_bps * factor,
                period_s: *period_s,
                noise_rel: *noise_rel,
                seed: *seed,
            },
        }
    }

    /// Long-run mean rate of the process (bits/s) — what an oracle
    /// planner would use as `B`.
    pub fn nominal_bps(&self) -> f64 {
        match self {
            LinkModel::Constant { rate_bps } => *rate_bps,
            LinkModel::Markov { states, .. } => {
                let weight: f64 = states.iter().map(|s| s.mean_dwell_s).sum();
                states
                    .iter()
                    .map(|s| s.rate_bps * s.mean_dwell_s)
                    .sum::<f64>()
                    / weight
            }
            LinkModel::Sinusoid { mean_bps, .. } => *mean_bps,
        }
    }

    /// Materialize the process over `[0, horizon)` ticks as a
    /// piecewise-constant trace. Deterministic: the same model and
    /// horizon always produce the same trace.
    pub fn trace(&self, horizon: Ticks) -> LinkTrace {
        assert!(horizon > 0, "LinkModel::trace: empty horizon");
        let (starts, rates) = match self {
            LinkModel::Constant { rate_bps } => (vec![0], vec![*rate_bps]),
            LinkModel::Markov { states, seed } => {
                let mut rng = SplitMix::new(*seed);
                let mut state = (rng.next_u64() % states.len() as u64) as usize;
                let mut t: Ticks = 0;
                let mut starts = Vec::new();
                let mut rates = Vec::new();
                while t < horizon {
                    starts.push(t);
                    rates.push(states[state].rate_bps.max(MIN_RATE_BPS));
                    let dwell_s = rng.exp(states[state].mean_dwell_s);
                    t += secs_to_ticks(dwell_s).max(1);
                    state = if states.len() == 2 {
                        1 - state
                    } else {
                        // Uniform among the other states.
                        let step = 1 + (rng.next_u64() % (states.len() as u64 - 1)) as usize;
                        (state + step) % states.len()
                    };
                }
                (starts, rates)
            }
            LinkModel::Sinusoid {
                mean_bps,
                amplitude_bps,
                period_s,
                noise_rel,
                seed,
            } => {
                let mut rng = SplitMix::new(*seed);
                let quantum = secs_to_ticks(SINUSOID_QUANTUM_S).max(1);
                let mut starts = Vec::new();
                let mut rates = Vec::new();
                let mut t: Ticks = 0;
                while t < horizon {
                    let t_s = t as f64 / TICKS_PER_SEC as f64;
                    let carrier = mean_bps
                        + amplitude_bps * (2.0 * std::f64::consts::PI * t_s / period_s).sin();
                    let noise = noise_rel * mean_bps * (2.0 * rng.next_f64() - 1.0);
                    starts.push(t);
                    rates.push((carrier + noise).max(MIN_RATE_BPS));
                    t += quantum;
                }
                (starts, rates)
            }
        };
        LinkTrace {
            starts,
            rates,
            horizon,
        }
    }
}

/// A materialized `B(t)`: piecewise-constant rate segments covering
/// `[0, horizon)`. Queries past the horizon hold the last rate (the
/// process is frozen, not undefined — simulations may peek slightly
/// past the end when a transmission straddles it).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkTrace {
    starts: Vec<Ticks>,
    rates: Vec<f64>,
    horizon: Ticks,
}

impl LinkTrace {
    /// Instantaneous rate at time `t` (bits/s).
    pub fn rate_at(&self, t: Ticks) -> f64 {
        self.rate_from(&mut 0, t)
    }

    /// [`LinkTrace::rate_at`] for a reader that asks about later and
    /// later times. `seen` is the reader's position in the trace (start
    /// it at 0); the search starts there and leaves the position of `t`
    /// behind, so a reader whose times never decrease pays O(1) per
    /// read. Any `seen` gives the same rate (see [`count_at_or_before`]).
    pub fn rate_from(&self, seen: &mut usize, t: Ticks) -> f64 {
        // starts[0] == 0, so at least one segment starts at or before t.
        self.rates[count_at_or_before(&self.starts, seen, t) - 1]
    }

    /// The segments as `(start, end, rate_bps)` triples, in time order.
    #[cfg(test)]
    pub(crate) fn segments(&self) -> impl Iterator<Item = (Ticks, Ticks, f64)> + '_ {
        self.starts.iter().enumerate().map(move |(i, &start)| {
            let end = self
                .starts
                .get(i + 1)
                .copied()
                .unwrap_or(self.horizon.max(start));
            (start, end, self.rates[i])
        })
    }

    /// Number of constant-rate segments.
    #[cfg(test)]
    pub(crate) fn n_segments(&self) -> usize {
        self.starts.len()
    }

    /// The horizon the trace was materialized for (ticks).
    #[cfg(test)]
    pub(crate) fn horizon(&self) -> Ticks {
        self.horizon
    }

    /// Time-weighted mean rate over `[0, horizon)` (bits/s).
    #[cfg(test)]
    pub(crate) fn mean_bps(&self) -> f64 {
        let mut acc = 0.0;
        let mut span = 0.0;
        for (start, end, rate) in self.segments() {
            let w = end.saturating_sub(start) as f64;
            acc += rate * w;
            span += w;
        }
        if span > 0.0 {
            acc / span
        } else {
            self.rates[0]
        }
    }

    /// Smallest segment rate (bits/s).
    #[cfg(test)]
    pub(crate) fn min_bps(&self) -> f64 {
        self.rates.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest segment rate (bits/s).
    #[cfg(test)]
    pub(crate) fn max_bps(&self) -> f64 {
        self.rates.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Instants [`count_at_or_before`] steps over one by one before it falls
/// back to a binary search.
const FORWARD_SCAN: usize = 4;

/// The number of `instants` (strictly increasing) at or before `t`,
/// searched from `*seen` and then stored there. A reader whose times
/// never decrease keeps `seen` between calls and steps forward a few
/// instants per call; when `t` lies before the `*seen`-th instant or
/// more than a few instants ahead, the search falls back to a binary
/// search. The count does not depend on `*seen`.
pub fn count_at_or_before(instants: &[Ticks], seen: &mut usize, t: Ticks) -> usize {
    let mut n = *seen;
    if n > instants.len() || (n > 0 && instants[n - 1] > t) {
        n = 0;
    }
    let mut steps = 0;
    while instants.get(n).is_some_and(|&x| x <= t) {
        if steps == FORWARD_SCAN {
            n += instants[n..].partition_point(|&x| x <= t);
            break;
        }
        n += 1;
        steps += 1;
    }
    *seen = n;
    n
}

/// Convert seconds to ticks (rounded).
pub fn secs_to_ticks(secs: f64) -> Ticks {
    (secs * TICKS_PER_SEC as f64).round().max(0.0) as Ticks
}

/// Internal deterministic generator (splitmix64) — keeps `eva-net`
/// dependency-free and traces reproducible across platforms.
#[derive(Debug, Clone)]
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
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
        -mean * (1.0 - self.next_f64()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: Ticks = 60 * TICKS_PER_SEC;

    #[test]
    fn constant_trace_is_one_segment() {
        let t = LinkModel::constant(20e6).trace(HORIZON);
        assert_eq!(t.n_segments(), 1);
        assert_eq!(t.rate_at(0), 20e6);
        assert_eq!(t.rate_at(HORIZON - 1), 20e6);
        assert_eq!(t.rate_at(HORIZON + 12345), 20e6); // frozen past horizon
        assert_eq!(t.mean_bps(), 20e6);
    }

    #[test]
    fn traces_are_deterministic() {
        let m = LinkModel::gilbert_elliott(25e6, 8e6, 3.0, 1.5, 42);
        assert_eq!(m.trace(HORIZON), m.trace(HORIZON));
        let s = LinkModel::sinusoid(20e6, 5e6, 30.0, 0.05, 7);
        assert_eq!(s.trace(HORIZON), s.trace(HORIZON));
    }

    #[test]
    fn different_seeds_differ() {
        let a = LinkModel::gilbert_elliott(25e6, 8e6, 3.0, 1.5, 1).trace(HORIZON);
        let b = LinkModel::gilbert_elliott(25e6, 8e6, 3.0, 1.5, 2).trace(HORIZON);
        assert_ne!(a, b);
    }

    #[test]
    fn markov_trace_visits_both_states() {
        let t = LinkModel::gilbert_elliott(25e6, 8e6, 3.0, 1.5, 3).trace(HORIZON);
        assert!(t.n_segments() > 5, "only {} segments", t.n_segments());
        assert_eq!(t.min_bps(), 8e6);
        assert_eq!(t.max_bps(), 25e6);
        // Dwell-weighted mean sits strictly between the states.
        let mean = t.mean_bps();
        assert!(mean > 8e6 && mean < 25e6, "mean {mean}");
    }

    #[test]
    fn markov_mean_approaches_nominal() {
        let m = LinkModel::gilbert_elliott(25e6, 8e6, 3.0, 1.5, 9);
        let nominal = m.nominal_bps();
        // (25*3 + 8*1.5) / 4.5 ≈ 19.33 Mbps.
        assert!((nominal - (25e6 * 3.0 + 8e6 * 1.5) / 4.5).abs() < 1.0);
        let long = m.trace(3600 * TICKS_PER_SEC);
        assert!(
            (long.mean_bps() - nominal).abs() / nominal < 0.1,
            "empirical {} vs nominal {}",
            long.mean_bps(),
            nominal
        );
    }

    #[test]
    fn three_state_uses_all_rates() {
        let t = LinkModel::three_state([30e6, 15e6, 5e6], [2.0, 2.0, 2.0], 5).trace(HORIZON);
        let mut seen = [false; 3];
        for (_, _, r) in t.segments() {
            for (i, &rate) in [30e6, 15e6, 5e6].iter().enumerate() {
                if (r - rate).abs() < 1.0 {
                    seen[i] = true;
                }
            }
        }
        assert_eq!(seen, [true; 3], "states visited: {seen:?}");
    }

    #[test]
    fn sinusoid_oscillates_around_mean() {
        let t = LinkModel::sinusoid(20e6, 5e6, 10.0, 0.0, 0).trace(HORIZON);
        assert!(t.max_bps() > 24e6, "max {}", t.max_bps());
        assert!(t.min_bps() < 16e6, "min {}", t.min_bps());
        assert!((t.mean_bps() - 20e6).abs() / 20e6 < 0.02);
    }

    #[test]
    fn segments_tile_the_horizon() {
        for model in [
            LinkModel::constant(10e6),
            LinkModel::gilbert_elliott(25e6, 8e6, 3.0, 1.5, 11),
            LinkModel::sinusoid(20e6, 5e6, 10.0, 0.05, 11),
        ] {
            let t = model.trace(HORIZON);
            let mut expected_start = 0;
            for (start, end, rate) in t.segments() {
                assert_eq!(start, expected_start);
                assert!(end > start || end == t.horizon());
                assert!(rate >= MIN_RATE_BPS);
                expected_start = end;
            }
            assert!(expected_start >= HORIZON);
        }
    }

    #[test]
    fn rate_at_agrees_with_segments() {
        let t = LinkModel::gilbert_elliott(25e6, 8e6, 0.5, 0.5, 13).trace(HORIZON);
        for (start, end, rate) in t.segments() {
            assert_eq!(t.rate_at(start), rate);
            if end > start + 1 {
                assert_eq!(t.rate_at(end - 1), rate);
            }
        }
    }

    #[test]
    fn scaled_multiplies_rates_and_keeps_dwell_structure() {
        let m = LinkModel::gilbert_elliott(25e6, 8e6, 3.0, 1.5, 42);
        let half = m.scaled(0.5);
        assert!((half.nominal_bps() - m.nominal_bps() * 0.5).abs() < 1.0);
        // Same seed and dwells: segment boundaries are identical, only
        // the rates scale.
        let (a, b) = (m.trace(HORIZON), half.trace(HORIZON));
        assert_eq!(a.n_segments(), b.n_segments());
        for ((s0, e0, r0), (s1, e1, r1)) in a.segments().zip(b.segments()) {
            assert_eq!((s0, e0), (s1, e1));
            assert!((r1 - r0 * 0.5).abs() < 1e-6);
        }
        let s = LinkModel::sinusoid(20e6, 5e6, 30.0, 0.0, 7).scaled(2.0);
        assert!((s.nominal_bps() - 40e6).abs() < 1.0);
        assert!((LinkModel::constant(10e6).scaled(0.25).nominal_bps() - 2.5e6).abs() < 1e-9);
    }

    /// The binary search every lookup used to be.
    fn searched_rate(t: &LinkTrace, at: Ticks) -> f64 {
        t.rates[t.starts.partition_point(|&s| s <= at) - 1]
    }

    mod forward_reads {
        use proptest::prelude::*;

        use super::*;

        /// A Markov, a sinusoid or a constant model.
        fn model(kind: usize, seed: u64) -> LinkModel {
            match kind {
                0 => LinkModel::gilbert_elliott(25e6, 8e6, 0.2, 0.1, seed),
                1 => LinkModel::three_state([30e6, 15e6, 5e6], [0.1, 0.3, 0.05], seed),
                2 => LinkModel::sinusoid(20e6, 5e6, 10.0, 0.05, seed),
                _ => LinkModel::constant(10e6),
            }
        }

        /// Query times over `[0, 1.2 · horizon)`: mostly small forward
        /// steps, with jumps ahead, steps back and reads past the
        /// horizon.
        fn queries(horizon: Ticks) -> impl Strategy<Value = Vec<Ticks>> {
            prop::collection::vec((0usize..10, 0u64..u64::MAX), 1..200).prop_map(move |steps| {
                let mut t: Ticks = 0;
                steps
                    .into_iter()
                    .map(|(kind, r)| {
                        t = match kind {
                            // Back to any earlier time.
                            0 => r % (t + 1),
                            // Anywhere, past the horizon included.
                            1 => r % (horizon + horizon / 5),
                            // Far ahead.
                            2 => t + r % (horizon / 4),
                            // A small step forward (often within a segment).
                            _ => t + r % (TICKS_PER_SEC / 5),
                        };
                        t
                    })
                    .collect()
            })
        }

        proptest! {
            /// A reader that keeps its position reads exactly the rate
            /// (the same bits) the binary search finds, whatever order
            /// it asks in.
            #[test]
            fn held_position_reads_the_searched_rate(
                kind in 0usize..4,
                seed in 0u64..1_000,
                times in queries(HORIZON),
            ) {
                let trace = model(kind, seed).trace(HORIZON);
                let mut seen = 0;
                for &t in &times {
                    let want = searched_rate(&trace, t);
                    prop_assert_eq!(trace.rate_from(&mut seen, t).to_bits(), want.to_bits());
                    prop_assert_eq!(trace.rate_at(t).to_bits(), want.to_bits());
                }
            }

            /// The count does not depend on where the search starts,
            /// out-of-range positions included.
            #[test]
            fn count_ignores_the_start_position(
                mut instants in prop::collection::vec(0u64..1_000, 0..40),
                seen in 0usize..50,
                t in 0u64..1_100,
            ) {
                instants.sort_unstable();
                instants.dedup();
                let mut from = seen;
                let n = count_at_or_before(&instants, &mut from, t);
                prop_assert_eq!(n, instants.partition_point(|&x| x <= t));
                prop_assert_eq!(from, n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "need >= 2 states")]
    fn rejects_single_state_markov() {
        let _ = LinkModel::markov(
            vec![MarkovState {
                rate_bps: 1e6,
                mean_dwell_s: 1.0,
            }],
            0,
        );
    }
}
