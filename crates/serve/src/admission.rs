//! Admission control: accept a tenant only if a feasibility probe finds
//! a placement that keeps the incumbents' benefit above a floor.
//!
//! The probe is the survivor-restricted Algorithm 1 path
//! ([`Scenario::evaluate_surviving`]) run once per candidate
//! configuration of the newcomer, with every incumbent pinned to its
//! currently deployed configuration. The incumbents' stream timings,
//! frame sizes and outcome sums are prepared once per probe
//! ([`Scenario::last_camera_probe`]); each candidate replaces only the
//! newcomer's entries. Candidates whose utilisation sum
//! [`exceeds_capacity`](eva_sched::exceeds_capacity) of the live servers
//! are skipped before Algorithm 1, which would refuse them too. That
//! makes the probe cheap — at most one grouping + assignment per grid
//! point, no BO — while still answering the only question admission
//! needs answered: *does a zero-jitter placement exist that hosts
//! everyone, and does hosting the newcomer degrade the incumbents by
//! more than the configured floor?*
//!
//! Candidates that are feasible but floor-violating are queued (to be
//! retried when capacity frees up: a departure, a server restore, or an
//! epoch boundary); candidates with no feasible placement at any
//! configuration are queued on the same grounds, and either is rejected
//! outright once the queue is full.

use eva_obs::{emit_warn, span, ObsEvent, Phase, Recorder};
use eva_sched::Assignment;
use eva_workload::{Outcome, Scenario, VideoConfig};

/// Admission policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum tolerated drop in the incumbents' benefit (benefit
    /// units; benefit is ≤ 0 with 0 at utopia, so a drop of 0.05 is
    /// 5% of one unit-weight objective's full range).
    pub max_benefit_drop: f64,
    /// Hard cap on concurrently served tenants (admission stops probing
    /// once reached; 0 disables serving entirely).
    pub max_live: usize,
    /// Capacity of the retry queue; a blocked arrival is rejected once
    /// the queue holds this many waiting tenants.
    pub queue_capacity: usize,
    /// Age-based shedding: a queued tenant waiting longer than this is
    /// shed (oldest first) instead of retried. `f64::INFINITY`
    /// disables age shedding (the pre-overload default).
    pub max_queue_age_s: f64,
    /// High-water mark on queue depth: at or above this many waiters
    /// the serving loop switches the rescheduler to coalesced batch
    /// repairs and sheds down to the mark. `usize::MAX` disables
    /// (the pre-overload default).
    pub high_water: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_benefit_drop: 0.05,
            max_live: 64,
            queue_capacity: 8,
            max_queue_age_s: f64::INFINITY,
            high_water: usize::MAX,
        }
    }
}

/// The successful probe's evidence: what the newcomer gets and what it
/// costs the incumbents.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// The configuration chosen for the newcomer.
    pub newcomer_config: VideoConfig,
    /// The full zero-jitter placement hosting incumbents + newcomer.
    pub assignment: Assignment,
    /// Incumbent benefit before admitting (caller-supplied baseline).
    pub incumbent_before: f64,
    /// Incumbent benefit after admitting, under the probe placement
    /// (same benefit function, incumbents-only outcome).
    pub incumbent_after: f64,
    /// Benefit of the whole post-admission system (incumbents +
    /// newcomer) — the quantity the probe maximizes across candidates.
    pub total_benefit: f64,
}

/// The admission controller's verdict on one arrival.
#[derive(Debug, Clone)]
pub enum AdmissionDecision {
    /// Admit under the reported placement.
    Accept(Box<ProbeReport>),
    /// Park in the retry queue.
    Queue {
        /// Why the tenant could not be admitted right now.
        reason: &'static str,
    },
    /// Turn away (queue full or serving disabled).
    Reject {
        /// Why the tenant was turned away.
        reason: &'static str,
    },
}

/// Stateless admission policy. State (live set, queue) lives in the
/// serving loop; the controller only answers "can this tenant join the
/// current system?".
#[derive(Debug, Clone, Default)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
}

impl AdmissionController {
    /// Build with the given policy.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController { cfg }
    }

    /// The policy in force.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Probe admission of the newcomer.
    ///
    /// `trial` must contain the incumbents as cameras `0..m` and the
    /// newcomer as camera `m`, where `m = incumbent_configs.len()`;
    /// `incumbent_before` is the incumbents' current benefit under the
    /// deployed placement, and `benefit` scores an aggregate
    /// [`Outcome`] (higher is better). `live_tenants` / `queue_len`
    /// are the serving loop's current counts, used for the cap and
    /// queue-overflow checks.
    ///
    /// The probe scans the newcomer's whole config grid with incumbents
    /// pinned, keeps the feasible candidate maximizing total system
    /// benefit, and accepts iff that candidate keeps
    /// `incumbent_after >= incumbent_before - max_benefit_drop`.
    /// Candidates over the live servers' utilisation capacity are
    /// skipped unplaced (counted as `serve.admission_skipped`); the
    /// decision is the one a full scan would reach.
    #[allow(clippy::too_many_arguments)]
    pub fn admit(
        &self,
        trial: &Scenario,
        incumbent_configs: &[VideoConfig],
        alive: Option<&[bool]>,
        incumbent_before: f64,
        benefit: &dyn Fn(&Outcome) -> f64,
        live_tenants: usize,
        queue_len: usize,
        rec: &dyn Recorder,
    ) -> AdmissionDecision {
        let _probe = span(rec, Phase::Admission);
        if rec.enabled() {
            rec.add("serve.admission_probes", 1);
        }
        let m = incumbent_configs.len();
        let Ok(mut probe) = trial.last_camera_probe(incumbent_configs, alive) else {
            // A malformed probe scenario is a caller bug; degrade to a
            // reject instead of panicking the serving loop.
            emit_warn(
                rec,
                ObsEvent::warn(
                    "admission_probe_malformed",
                    "trial scenario camera count mismatch",
                )
                .with("trial_cameras", trial.n_videos() as u64)
                .with("expected", (m + 1) as u64),
            );
            return AdmissionDecision::Reject {
                reason: "malformed probe scenario",
            };
        };
        if self.cfg.max_live == 0 {
            return AdmissionDecision::Reject {
                reason: "serving disabled (max_live = 0)",
            };
        }
        if live_tenants >= self.cfg.max_live {
            return self.queue_or_reject(queue_len, "tenant cap reached");
        }

        let mut skipped = 0u64;
        let mut best: Option<ProbeReport> = None;
        for cand in trial.config_space().iter() {
            let out = match probe.evaluate(cand, rec) {
                Ok(Some(out)) => out,
                Ok(None) => {
                    skipped += 1;
                    continue; // over capacity: Algorithm 1 cannot place it
                }
                Err(_) => continue, // no zero-jitter placement at this config
            };
            let total = benefit(&out.outcome);
            if !total.is_finite() {
                continue;
            }
            if best.as_ref().is_none_or(|b| total > b.total_benefit) {
                let incumbent_after = if m == 0 {
                    incumbent_before
                } else {
                    match probe.pinned_outcome(out.assignment.placement()) {
                        Ok(incumbents) => benefit(&incumbents),
                        Err(_) => continue, // unreachable: Algorithm 1 placed every stream
                    }
                };
                best = Some(ProbeReport {
                    newcomer_config: cand,
                    assignment: out.assignment,
                    incumbent_before,
                    incumbent_after,
                    total_benefit: total,
                });
            }
        }

        if skipped > 0 && rec.enabled() {
            rec.add("serve.admission_skipped", skipped);
        }
        match best {
            None => self.queue_or_reject(queue_len, "no feasible placement"),
            Some(report) => {
                if report.incumbent_after >= incumbent_before - self.cfg.max_benefit_drop {
                    AdmissionDecision::Accept(Box::new(report))
                } else {
                    self.queue_or_reject(queue_len, "incumbent benefit floor")
                }
            }
        }
    }

    fn queue_or_reject(&self, queue_len: usize, reason: &'static str) -> AdmissionDecision {
        if queue_len < self.cfg.queue_capacity {
            AdmissionDecision::Queue { reason }
        } else {
            AdmissionDecision::Reject { reason }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_obs::NoopRecorder;
    use eva_sched::exceeds_capacity;
    use eva_workload::outcome::idx;
    use eva_workload::{Cameras, ClipProfile};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    /// The probe as it was before the incumbents were prepared once: one
    /// [`Scenario::evaluate_surviving`] per candidate over the full
    /// joint configuration. The differential oracle of [`admit`].
    ///
    /// [`admit`]: AdmissionController::admit
    #[allow(clippy::too_many_arguments)]
    fn admit_reference(
        ctl: &AdmissionController,
        trial: &Scenario,
        incumbent_configs: &[VideoConfig],
        alive: Option<&[bool]>,
        incumbent_before: f64,
        benefit: &dyn Fn(&Outcome) -> f64,
        live_tenants: usize,
        queue_len: usize,
        rec: &dyn Recorder,
    ) -> AdmissionDecision {
        let _probe = span(rec, Phase::Admission);
        if rec.enabled() {
            rec.add("serve.admission_probes", 1);
        }
        let m = incumbent_configs.len();
        if trial.n_videos() != m + 1 {
            return AdmissionDecision::Reject {
                reason: "malformed probe scenario",
            };
        }
        if ctl.cfg.max_live == 0 {
            return AdmissionDecision::Reject {
                reason: "serving disabled (max_live = 0)",
            };
        }
        if live_tenants >= ctl.cfg.max_live {
            return ctl.queue_or_reject(queue_len, "tenant cap reached");
        }
        let mut configs = incumbent_configs.to_vec();
        let Some(placeholder) = trial.config_space().iter().next() else {
            return AdmissionDecision::Reject {
                reason: "empty config space",
            };
        };
        configs.push(placeholder);
        let n_live = alive.map_or(trial.planning_uplinks().len(), |a| {
            a.iter().filter(|&&up| up).count()
        });
        let incumbent_utilization: f64 = (0..m)
            .map(|i| trial.stream_timing(i, &configs[i]).utilization())
            .sum();
        let mut skipped = 0u64;
        let mut best: Option<ProbeReport> = None;
        for cand in trial.config_space().iter() {
            let utilization = incumbent_utilization + trial.stream_timing(m, &cand).utilization();
            if exceeds_capacity(utilization, n_live) {
                skipped += 1;
                continue;
            }
            configs[m] = cand;
            let Ok(out) = trial.evaluate_surviving(&configs, alive, rec) else {
                continue;
            };
            let total = benefit(&out.outcome);
            if !total.is_finite() {
                continue;
            }
            if best.as_ref().is_none_or(|b| total > b.total_benefit) {
                let incumbent_after = if m == 0 {
                    incumbent_before
                } else {
                    let placement = out.assignment.placement();
                    let incumbents = trial.outcome_over(&configs, placement, Cameras::Prefix(m));
                    benefit(&incumbents.expect("Algorithm 1 placed every stream"))
                };
                best = Some(ProbeReport {
                    newcomer_config: cand,
                    assignment: out.assignment,
                    incumbent_before,
                    incumbent_after,
                    total_benefit: total,
                });
            }
        }
        if skipped > 0 && rec.enabled() {
            rec.add("serve.admission_skipped", skipped);
        }
        match best {
            None => ctl.queue_or_reject(queue_len, "no feasible placement"),
            Some(report) => {
                if report.incumbent_after >= incumbent_before - ctl.cfg.max_benefit_drop {
                    AdmissionDecision::Accept(Box::new(report))
                } else {
                    ctl.queue_or_reject(queue_len, "incumbent benefit floor")
                }
            }
        }
    }

    /// Counts every span per phase, every counter increment, and every
    /// histogram sample by value bits.
    #[derive(Default)]
    struct Counting(RefCell<BTreeMap<String, u64>>);

    impl Counting {
        fn bump(&self, key: String, by: u64) {
            *self.0.borrow_mut().entry(key).or_insert(0) += by;
        }

        fn counts(self) -> BTreeMap<String, u64> {
            self.0.into_inner()
        }
    }

    impl Recorder for Counting {
        fn enabled(&self) -> bool {
            true
        }
        fn record_span(&self, phase: Phase, _nanos: u64) {
            self.bump(format!("span {phase:?}"), 1);
        }
        fn add(&self, name: &'static str, delta: u64) {
            self.bump(format!("counter {name}"), delta);
        }
        fn observe(&self, name: &'static str, value: f64) {
            self.bump(format!("observe {name} {:x}", value.to_bits()), 1);
        }
        fn event(&self, event: ObsEvent) {
            self.bump(format!("event {event:?}"), 1);
        }
        fn mirrors_warnings(&self) -> bool {
            false
        }
    }

    /// A decision with every float as its bits, so `==` is bit identity.
    fn decision_bits(d: &AdmissionDecision) -> String {
        match d {
            AdmissionDecision::Accept(r) => format!(
                "accept {:x} {:x} {:?} {:x} {:x} {:x} {:x}",
                r.newcomer_config.resolution.to_bits(),
                r.newcomer_config.fps.to_bits(),
                r.assignment,
                r.assignment.total_comm_latency.to_bits(),
                r.incumbent_before.to_bits(),
                r.incumbent_after.to_bits(),
                r.total_benefit.to_bits(),
            ),
            AdmissionDecision::Queue { reason } => format!("queue {reason}"),
            AdmissionDecision::Reject { reason } => format!("reject {reason}"),
        }
    }

    const RESOLUTIONS: [f64; 9] = [
        360.0, 480.0, 600.0, 720.0, 900.0, 1080.0, 1440.0, 1800.0, 2160.0,
    ];
    const FRAME_RATES: [f64; 8] = [1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0];
    const UPLINKS_MBPS: [f64; 6] = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The prepared probe and the per-candidate reference reach the
        /// same decision, bit for bit, and record the same spans,
        /// counters and histogram samples: random incumbents (high-rate
        /// ones that split included), newcomer clips, liveness masks,
        /// heterogeneous uplinks, tenant caps and queue states.
        #[test]
        fn prepared_probe_matches_the_per_candidate_reference(
            incumbents in prop::collection::vec(
                (0usize..9, 0usize..5, (0.82f64..1.05, 0.86f64..1.2, 0.8f64..1.3, 0.6f64..1.6)),
                0..=6,
            ),
            newcomer in (0.82f64..1.05, 0.86f64..1.2, 0.8f64..1.3, 0.6f64..1.6),
            servers in prop::collection::vec((0usize..6, 0usize..4), 1..=6),
            (max_live, live_tenants, queue_capacity, queue_len) in
                (0usize..12, 0usize..6, 0usize..3, 0usize..3),
            (drop, weights) in (
                0.0f64..0.3,
                (0.0f64..2.0, 0.0f64..2.0, 0.0f64..2.0, 0.0f64..2.0),
            ),
        ) {
            let clip = |i: usize, (a, c, b, m): (f64, f64, f64, f64)| {
                ClipProfile::new(format!("prop{i}"), a, c, b, m)
            };
            let mut clips: Vec<ClipProfile> = incumbents
                .iter()
                .enumerate()
                .map(|(i, &(_, _, f))| clip(i, f))
                .collect();
            clips.push(clip(incumbents.len(), newcomer));
            let uplinks: Vec<f64> = servers.iter().map(|&(k, _)| UPLINKS_MBPS[k] * 1e6).collect();
            let trial = Scenario::new(clips, uplinks, eva_workload::ConfigSpace::default());
            let configs: Vec<VideoConfig> = incumbents
                .iter()
                .map(|&(r, f, _)| VideoConfig::new(RESOLUTIONS[r], FRAME_RATES[f]))
                .collect();
            // Server `j` is down when its draw is 0; all-up is `None`.
            let mask: Vec<bool> = servers.iter().map(|&(_, up)| up != 0).collect();
            let alive = (!mask.iter().all(|&up| up)).then_some(mask.as_slice());
            let (wa, wl, wn, wc) = weights;
            let benefit = move |o: &Outcome| {
                wa * o.accuracy - wl * o.latency_s - wn * o.network_bps / 1e8
                    - wc * o.compute_tflops
            };
            let ctl = AdmissionController::new(AdmissionConfig {
                max_benefit_drop: drop,
                max_live,
                queue_capacity,
                ..AdmissionConfig::default()
            });
            let before = -0.5;
            let (fast_rec, slow_rec) = (Counting::default(), Counting::default());
            let fast = ctl.admit(
                &trial, &configs, alive, before, &benefit, live_tenants, queue_len, &fast_rec,
            );
            let slow = admit_reference(
                &ctl, &trial, &configs, alive, before, &benefit, live_tenants, queue_len,
                &slow_rec,
            );
            prop_assert_eq!(decision_bits(&fast), decision_bits(&slow));
            prop_assert_eq!(fast_rec.counts(), slow_rec.counts());
        }
    }

    /// A simple benefit: accuracy minus scaled latency and bandwidth —
    /// higher is better, monotone the right way in each objective.
    fn bench_benefit(o: &Outcome) -> f64 {
        o.accuracy - 0.5 * o.latency_s - o.network_bps / 100e6
    }

    fn trial(n_incumbents: usize, n_servers: usize) -> (Scenario, Vec<VideoConfig>) {
        let sc = Scenario::uniform(n_incumbents + 1, n_servers, 20e6, 17);
        let incumbents = vec![VideoConfig::new(720.0, 5.0); n_incumbents];
        (sc, incumbents)
    }

    fn incumbent_baseline(sc: &Scenario, incumbents: &[VideoConfig]) -> f64 {
        // Deploy incumbents alone (newcomer's surface unused): evaluate
        // an incumbents-only scenario built from the same clips.
        let sub = Scenario::new(
            (0..incumbents.len()).map(|i| sc.clip(i).clone()).collect(),
            sc.uplinks().to_vec(),
            sc.config_space().clone(),
        );
        let out = sub.evaluate(incumbents).expect("baseline feasible");
        bench_benefit(&out.outcome)
    }

    #[test]
    fn accepts_when_capacity_is_ample() {
        let (sc, incumbents) = trial(2, 3);
        let before = incumbent_baseline(&sc, &incumbents);
        let ctl = AdmissionController::new(AdmissionConfig::default());
        let d = ctl.admit(
            &sc,
            &incumbents,
            None,
            before,
            &bench_benefit,
            2,
            0,
            &NoopRecorder,
        );
        let AdmissionDecision::Accept(report) = d else {
            panic!("expected accept, got {d:?}");
        };
        // The probe placement covers all three cameras.
        let sources: std::collections::HashSet<usize> = report
            .assignment
            .streams
            .iter()
            .map(|s| s.id.source)
            .collect();
        assert_eq!(sources.len(), 3);
        assert!(report.incumbent_after.is_finite());
    }

    #[test]
    fn respects_tenant_cap_and_queue_capacity() {
        let (sc, incumbents) = trial(2, 3);
        let ctl = AdmissionController::new(AdmissionConfig {
            max_live: 2,
            queue_capacity: 1,
            ..AdmissionConfig::default()
        });
        let d = ctl.admit(
            &sc,
            &incumbents,
            None,
            0.0,
            &bench_benefit,
            2,
            0,
            &NoopRecorder,
        );
        assert!(matches!(d, AdmissionDecision::Queue { .. }), "{d:?}");
        // Queue full -> reject.
        let d = ctl.admit(
            &sc,
            &incumbents,
            None,
            0.0,
            &bench_benefit,
            2,
            1,
            &NoopRecorder,
        );
        assert!(matches!(d, AdmissionDecision::Reject { .. }), "{d:?}");
    }

    #[test]
    fn infeasible_system_is_not_accepted() {
        // One server already saturated by heavy incumbents: nothing fits.
        let sc = Scenario::uniform(4, 1, 20e6, 3);
        let incumbents = vec![VideoConfig::new(2160.0, 30.0); 3];
        let ctl = AdmissionController::new(AdmissionConfig::default());
        let d = ctl.admit(
            &sc,
            &incumbents,
            None,
            0.0,
            &bench_benefit,
            3,
            0,
            &NoopRecorder,
        );
        assert!(
            !matches!(d, AdmissionDecision::Accept(_)),
            "must not accept an infeasible system: {d:?}"
        );
    }

    #[test]
    fn strict_floor_queues_admissible_but_costly_tenants() {
        let (sc, incumbents) = trial(2, 2);
        let before = incumbent_baseline(&sc, &incumbents);
        // A zero-tolerance floor with a benefit that punishes any added
        // network load: admitting anything measurably hurts.
        let harsh = |o: &Outcome| -o.to_vec()[idx::NETWORK];
        let before_harsh = -incumbents
            .iter()
            .enumerate()
            .map(|(i, c)| sc.surfaces(i).bandwidth_bps(c))
            .sum::<f64>();
        let _ = before; // baseline under bench_benefit unused here
        let ctl = AdmissionController::new(AdmissionConfig {
            max_benefit_drop: 0.0,
            ..AdmissionConfig::default()
        });
        let d = ctl.admit(
            &sc,
            &incumbents,
            None,
            before_harsh,
            &harsh,
            2,
            0,
            &NoopRecorder,
        );
        // Incumbent outcome itself is unchanged by the newcomer in the
        // network dimension (sums over the subset), so this *accepts*:
        // the floor protects incumbents, not total benefit.
        assert!(matches!(d, AdmissionDecision::Accept(_)), "{d:?}");
    }

    #[test]
    fn dead_servers_are_respected() {
        let (sc, incumbents) = trial(2, 3);
        let before = incumbent_baseline(&sc, &incumbents);
        let alive = vec![true, false, true];
        let ctl = AdmissionController::new(AdmissionConfig::default());
        let d = ctl.admit(
            &sc,
            &incumbents,
            Some(&alive),
            before,
            &bench_benefit,
            2,
            0,
            &NoopRecorder,
        );
        if let AdmissionDecision::Accept(report) = d {
            assert!(report.assignment.server_of.iter().all(|&s| s != 1));
        }
    }
}
