//! The serving control plane: the [`ServingSession`] step machine that
//! every serving run executes (and every online run, epoch-synchronous
//! and churn-free, through [`crate::online::run_online`]), with
//! decision budgets, load shedding, coalesced repairs, and
//! checkpoint/restore.
//!
//! [`run_serving`](crate::serving::run_serving) runs a session with an
//! unlimited budget: every epoch runs the full PaMO pipeline and every
//! event gets an immediate replan. Under a composed overload storm
//! (churn burst × crash burst × link collapse × control-plane
//! stragglers) that assumption breaks — the decision loop itself
//! becomes the bottleneck, and a scheduler that insists on full
//! decisions stops *serving* while it keeps *optimizing*. An enforced
//! budget adds the missing feedback loop:
//!
//! * **Decision deadline budgets.** Each epoch window grants a
//!   [`DecisionBudget`] of work units (divided by the active
//!   straggler factor of the [`ChaosSpec`]). All control work charges
//!   the budget *before* running — a refused charge degrades the
//!   action instead of overrunning, so `spent ≤ limit` holds by
//!   construction and `budget_overruns` stays 0 unless a mandatory
//!   floor (the bootstrap decision) is forced.
//! * **An escalation ladder.** The affordable rung
//!   ([`DecisionRung::Full`] → `Repair` → `Stale`) decides how much of
//!   the pipeline runs: a full budgeted PaMO decision, a re-placement
//!   of the deployed configurations, or serving the stale plan.
//!   Every degradation is emitted as a structured warn event carrying
//!   its rung, and every epoch records the rung it ran at.
//! * **Backpressure and shedding.** Blocked arrivals wait in a
//!   [`RetryQueue`]; waiters past the age bound are shed oldest-first,
//!   and above the high-water mark the loop stops probing arrivals
//!   (straight to the queue) and coalesces structural replans into
//!   batched full solves.
//! * **Checkpoint/restore.** A [`ServingSession`] runs the whole loop
//!   as an explicit step machine over *modeled* time (work units ×
//!   `unit_time_s` — never the wall clock), so its state after `n`
//!   steps is a pure function of its parameters, its seed and `n`. A
//!   [`ControlPlaneSnapshot`] is therefore just the seed and the step
//!   count, plus FNV-1a digests of the parameters and of the state at
//!   that step. [`ServingSession::restore`] rebuilds the session from
//!   the same parameters, replays the steps silently (no telemetry, no
//!   repeated stderr warnings) and checks both digests, so
//!   a restored session finishes with a bit-identical [`ServingRun`],
//!   and a checkpoint fed to a session with other parameters is an
//!   error. Restoring costs the CPU the run spent up to that step
//!   (DESIGN §13 has the measurement).
//!
//! Budgeted or not, every reaction time is modeled the same way (see
//! [`crate::serving`]): the wait until the handling step plus the
//! handler's charged units × `unit_time_s` × the straggler divisor.

use std::collections::BTreeSet;
use std::fmt::{Debug, Write};

use eva_fault::process::secs_to_ticks;
use eva_fault::{AvailabilityTrace, ChaosSpec, ChaosWindow, FaultPlan};
use eva_obs::{
    cost, emit_warn, span, BudgetPolicy, DecisionBudget, DecisionRung, NoopRecorder, ObsEvent,
    Phase, Recorder,
};
use eva_sched::{Assignment, TICKS_PER_SEC};
use eva_serve::{
    AdmissionController, AdmissionDecision, ChurnAction, ChurnEvent, ChurnTrace, ProbeReport,
    ReplanScope, ReplanTrigger, Rescheduler, RetryQueue,
};
use eva_workload::{
    Cameras, ClipProfile, DriftingScenario, Outcome, Scenario, VideoConfig, N_OBJECTIVES,
};
use rand::rngs::StdRng;

use crate::benefit::{normalized_benefit, TruePreference};
use crate::error::CoreError;
use crate::online::EpochRecord;
use crate::pamo::{Pamo, PamoConfig};
use crate::serving::{ServeEvent, ServingConfig, ServingRun};

/// The step cursor: where in the serving run the session stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cursor {
    /// About to run epoch `usize`'s boundary decision.
    Boundary(usize),
    /// Inside epoch `usize`'s event window.
    Window(usize),
    /// About to run the end-of-horizon flush.
    Flush,
    /// Run complete.
    Done,
}

/// A timeline entry: churn or a server liveness toggle.
#[derive(Debug, Clone, Copy)]
enum Happening {
    Churn(ChurnEvent),
    Server { server: usize, up: bool },
}

/// The churn tenant's content — a pure function of the churn seed, so
/// retries (queue drains) and both reaction disciplines see the same
/// clip for the same tenant.
fn churn_clip(churn_seed: u64, tenant: u64, index: usize) -> ClipProfile {
    let seed = eva_stats::rng::child_seed(churn_seed, tenant.wrapping_add(0xC11F));
    let mut rng = eva_stats::rng::seeded(seed);
    ClipProfile::random(&mut rng, index)
}

/// The fallback ladder: scan the (resolution-, fps-ordered) config grid
/// for uniform joint configurations that still admit a zero-jitter
/// placement on the surviving servers, and keep the best one by planned
/// benefit. Cheap by construction — the grid is small and scheduling a
/// uniform config is a single Algorithm-1 run.
pub(crate) fn fallback_uniform(
    scenario: &Scenario,
    pref: &TruePreference,
    alive: Option<&[bool]>,
    rec: &dyn Recorder,
) -> Option<(Vec<VideoConfig>, Assignment)> {
    let _fallback_span = span(rec, Phase::Fallback);
    let m = scenario.n_videos();
    let mut best: Option<(f64, Vec<VideoConfig>, Assignment)> = None;
    for c in scenario.config_space().iter() {
        let configs = vec![c; m];
        let Ok(out) = scenario.evaluate_surviving(&configs, alive, &NoopRecorder) else {
            continue;
        };
        let b = pref.benefit(&out.outcome);
        if !b.is_finite() {
            continue;
        }
        if best.as_ref().is_none_or(|(bb, _, _)| b > *bb) {
            best = Some((b, configs, out.assignment));
        }
    }
    best.map(|(_, c, a)| (c, a))
}

fn scope_label(scope: ReplanScope) -> &'static str {
    match scope {
        ReplanScope::Incremental { .. } => "incremental",
        ReplanScope::Full => "full",
    }
}

/// An admission probe's verdict.
enum Probe {
    Accept(Box<Trial>),
    Queue,
    Reject,
}

/// An accepted probe: its report, the trial scenario (the session's
/// with the tenant appended) and that scenario's preference. Installing
/// the tenant adopts the pair instead of rebuilding it.
struct Trial {
    report: ProbeReport,
    scenario: Scenario,
    pref: TruePreference,
}

/// Overload-control knobs layered on top of a [`ServingConfig`].
///
/// The chaos spec contributes the crash-burst fault plan and the
/// link-collapse / straggler windows; its churn storm is composed by
/// the *caller* into `ServingConfig::arrivals` (set `arrivals` to the
/// storm's MMPP and `churn_seed` to [`ChaosSpec::churn_seed`]) so the
/// serving layer keeps owning arrival generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// The composed chaos injected into the run.
    pub chaos: ChaosSpec,
    /// Budget ladder + modeled-time policy.
    pub policy: BudgetPolicy,
    /// `true`: enforce the per-window budget (degrade through the
    /// ladder). `false`: unlimited budget — the *blind* baseline that
    /// spends whatever the full pipeline costs; work is still metered
    /// so deadline misses are still counted against `policy`.
    pub enforce_budget: bool,
}

impl OverloadConfig {
    /// The budget-enforcing configuration.
    pub fn budgeted(chaos: ChaosSpec, policy: BudgetPolicy) -> Self {
        OverloadConfig {
            chaos,
            policy,
            enforce_budget: true,
        }
    }

    /// The unbudgeted baseline under the same chaos and the same
    /// deadline accounting.
    pub fn unbudgeted(chaos: ChaosSpec, policy: BudgetPolicy) -> Self {
        OverloadConfig {
            chaos,
            policy,
            enforce_budget: false,
        }
    }
}

/// Mutable loop state of a [`ServingSession`]: the deployed plan, the
/// admitted tenants, the shedding retry queue, the coalescing counter,
/// and the accumulated outputs.
struct SessionState {
    serving: ServingConfig,
    policy: BudgetPolicy,
    enforce: bool,
    controller: AdmissionController,
    rescheduler: Rescheduler,
    base: Scenario,
    base_n: usize,
    extras: Vec<(u64, ClipProfile)>,
    configs: Vec<VideoConfig>,
    scenario: Scenario,
    /// The true preference over `scenario`, refreshed only when the
    /// scenario is: building its normalizer walks the whole config grid.
    pref: TruePreference,
    assignment: Option<Assignment>,
    truly_up: Vec<bool>,
    belief: Vec<bool>,
    /// `false`: plan on every server whatever `belief` says (the
    /// fault-oblivious baseline of [`crate::online::run_online`]).
    fault_aware: bool,
    queue: RetryQueue,
    /// Departed-but-unprocessed tenants (deferred or budget-starved).
    zombies: BTreeSet<u64>,
    events: Vec<ServeEvent>,
    accepted: u64,
    rejected: u64,
    min_floor_margin: f64,
    value_integral: f64,
    seg_start: f64,
    rate: f64,
    degraded: bool,
    /// Arrival probes skipped while above the high-water mark; the
    /// next structural replan coalesces them into one batched solve.
    pending_batch: u64,
}

impl SessionState {
    /// The ladder rung affordable right now.
    fn rung(&self, budget: &DecisionBudget) -> DecisionRung {
        if self.enforce {
            self.policy.rung_for(budget.remaining())
        } else {
            DecisionRung::Full
        }
    }

    /// Modeled reaction latency: already-elapsed wait plus `units` of
    /// control work at the current straggler-scaled unit time.
    fn reaction(&self, wait: f64, units: u64, divisor: f64) -> f64 {
        wait + self.policy.modeled_time_s(units) * divisor
    }

    /// Work units to probe one admission against the current system:
    /// one [`cost::ADMISSION_CANDIDATE`] per trial camera, not per grid
    /// candidate, so skipping candidates moves no reaction time.
    fn probe_cost(&self) -> u64 {
        cost::ADMISSION_CANDIDATE * (self.scenario.n_videos() as u64 + 1)
    }

    fn advance_value(&mut self, t: f64) {
        if t > self.seg_start {
            self.value_integral += self.rate * (t - self.seg_start);
            self.seg_start = t;
        }
    }

    fn recompute_rate(&mut self) {
        let (Some(a), Some(out)) = (&self.assignment, self.deployed_outcome()) else {
            self.rate = 0.0;
            return;
        };
        let n = self.scenario.n_videos();
        let quality = normalized_benefit(self.pref.benefit(&out), 0.0, self.pref.min_reference());
        let mut down = vec![false; n];
        for (i, st) in a.streams.iter().enumerate() {
            if !self.truly_up[a.server_of[i]] {
                down[st.id.source] = true;
            }
        }
        let served = (0..n)
            .filter(|&c| !down[c] && !self.is_zombie_camera(c))
            .count();
        self.rate = served as f64 * quality;
    }

    fn is_zombie_camera(&self, camera: usize) -> bool {
        camera >= self.base_n
            && self
                .extras
                .get(camera - self.base_n)
                .is_some_and(|(id, _)| self.zombies.contains(id))
    }

    /// Every camera's outcome under the deployed plan (`None` while dark).
    fn deployed_outcome(&self) -> Option<Outcome> {
        let a = self.assignment.as_ref()?;
        let outcome = self
            .scenario
            .outcome_over(&self.configs, a.placement(), Cameras::All);
        outcome.ok()
    }

    /// The servers the controller plans on: `None` for all of them.
    fn mask_vec(&self) -> Option<Vec<bool>> {
        if !self.fault_aware || self.belief.iter().all(|&b| b) {
            None
        } else {
            Some(self.belief.clone())
        }
    }

    /// Rebuild the scenario (and its preference) from the epoch base
    /// plus the admitted tenants: every camera's cost extremes afresh,
    /// as a drifted base needs.
    fn rebuild_scenario(&mut self) {
        let mut clips: Vec<ClipProfile> = (0..self.base_n)
            .map(|i| self.base.clip(i).clone())
            .collect();
        clips.extend(self.extras.iter().map(|(_, c)| c.clone()));
        self.scenario = Scenario::new(
            clips,
            self.base.uplinks().to_vec(),
            self.base.config_space().clone(),
        );
        self.pref = TruePreference::new(&self.scenario, *self.pref.weights());
    }

    #[allow(clippy::too_many_arguments)]
    fn push_event(
        &mut self,
        rec: &dyn Recorder,
        time_s: f64,
        kind: &'static str,
        tenant: Option<u64>,
        outcome: &'static str,
        scope: Option<&'static str>,
        reaction_s: f64,
        rung: DecisionRung,
    ) {
        if rec.enabled() {
            rec.observe("serve.reaction_s", reaction_s);
        }
        self.events.push(ServeEvent {
            time_s,
            kind,
            tenant,
            outcome,
            scope,
            reaction_s,
            live_tenants: self.extras.len(),
            rung: rung.as_str(),
        });
    }

    /// Shed over-age waiters (and, above the mark, excess depth) and
    /// record one `"shed"` event per dropped tenant.
    fn shed(&mut self, rec: &dyn Recorder, now_s: f64, high_water_too: bool) {
        let mut dropped = self.queue.expire(now_s);
        if high_water_too {
            dropped.extend(self.queue.shed_to_high_water());
        }
        if dropped.is_empty() {
            return;
        }
        let _shed_span = span(rec, Phase::Shed);
        if rec.enabled() {
            rec.add("serve.shed", dropped.len() as u64);
        }
        for entry in dropped {
            emit_warn(
                rec,
                ObsEvent::warn("tenant_shed", "retry queue shed a waiting tenant")
                    .with("tenant", entry.tenant)
                    .with("waited_s", now_s - entry.enqueued_at_s),
            );
            self.push_event(
                rec,
                now_s,
                "arrival",
                Some(entry.tenant),
                "shed",
                None,
                now_s - entry.enqueued_at_s,
                DecisionRung::Stale,
            );
        }
    }

    /// Probe admission of `tenant`; `queue_len` counts the *other*
    /// waiting tenants.
    fn admit_probe(&self, rec: &dyn Recorder, tenant: u64, queue_len: usize) -> Probe {
        if self.assignment.is_none() || self.configs.len() != self.scenario.n_videos() {
            return if queue_len < self.controller.config().queue_capacity {
                Probe::Queue
            } else {
                Probe::Reject
            };
        }
        let clip = churn_clip(
            self.serving.churn_seed,
            tenant,
            self.base_n + tenant as usize,
        );
        // The incumbents' cost extremes carry over: the preference
        // evaluates only the newcomer's config grid.
        let trial = match self.scenario.with_camera(clip) {
            Ok(trial) => trial,
            Err(err) => {
                // Unreachable: the session builds its scenarios without
                // per-camera attachments. Refuse rather than panic.
                emit_warn(
                    rec,
                    ObsEvent::warn("admission_probe_malformed", "trial scenario refused")
                        .with("tenant", tenant)
                        .with("error", err.to_string()),
                );
                return Probe::Reject;
            }
        };
        let pref = TruePreference::new(&trial, *self.pref.weights());
        // The trial keeps the incumbents' surfaces and the uplinks.
        let incumbent_before = self
            .deployed_outcome()
            .map_or(f64::NEG_INFINITY, |o| pref.benefit(&o));
        let mask = self.mask_vec();
        match self.controller.admit(
            &trial,
            &self.configs,
            mask.as_deref(),
            incumbent_before,
            &|o| pref.benefit(o),
            self.extras.len(),
            queue_len,
            rec,
        ) {
            AdmissionDecision::Accept(report) => Probe::Accept(Box::new(Trial {
                report: *report,
                scenario: trial,
                pref,
            })),
            AdmissionDecision::Queue { .. } => Probe::Queue,
            AdmissionDecision::Reject { .. } => Probe::Reject,
        }
    }

    /// Row-repair `trigger` (already charged by the caller); when the
    /// repair fails, a full re-solve is the last resort, affordable
    /// only on the full rung. Each trigger is repaired and counted once.
    fn repair_or_resolve(
        &mut self,
        rec: &dyn Recorder,
        trigger: ReplanTrigger,
        budget: &DecisionBudget,
        rung: DecisionRung,
    ) -> Option<(Assignment, &'static str)> {
        let mask = self.mask_vec();
        let repaired = self.rescheduler.replan_limited(
            &self.scenario,
            &self.configs,
            mask.as_deref(),
            trigger,
            rec,
        );
        let planned = match repaired {
            Some(ok) => Some(ok),
            None if rung == DecisionRung::Full && budget.try_charge(cost::FULL_SOLVE) => self
                .rescheduler
                .replan_full(&self.scenario, &self.configs, mask.as_deref(), rec)
                .ok(),
            None => None,
        };
        planned.map(|(a, scope)| (a, scope_label(scope)))
    }

    /// One batched full re-solve (already charged by the caller)
    /// absorbing this trigger plus every probe skipped under pressure.
    fn coalesce(&mut self, rec: &dyn Recorder) -> Option<(Assignment, &'static str)> {
        let batched = self.pending_batch + 1;
        self.pending_batch = 0;
        let mask = self.mask_vec();
        self.rescheduler
            .replan_coalesced(&self.scenario, &self.configs, mask.as_deref(), batched, rec)
            .ok()
            .map(|a| (a, "coalesced"))
    }

    /// Queue `tenant` (arrived at `arrived_s`) for a retry, or reject it
    /// when the queue is full. Returns the event outcome.
    fn enqueue(&mut self, tenant: u64, arrived_s: f64) -> &'static str {
        if self.queue.try_push(tenant, arrived_s) {
            "queued"
        } else {
            self.rejected += 1;
            "rejected"
        }
    }

    /// Install an accepted tenant within budget: charge a repair,
    /// escalate to a charged full solve on the full rung, and roll the
    /// admit back (returning `None` → re-queue) when neither is
    /// affordable or feasible. The trial's scenario and preference are
    /// exactly what `rebuild_scenario` would build after the push.
    fn budgeted_accept(
        &mut self,
        rec: &dyn Recorder,
        tenant: u64,
        trial: Trial,
        budget: &DecisionBudget,
        rung: DecisionRung,
    ) -> Option<&'static str> {
        if !budget.try_charge(cost::REPAIR_EVENT) {
            return None;
        }
        let clip = churn_clip(
            self.serving.churn_seed,
            tenant,
            self.base_n + tenant as usize,
        );
        self.extras.push((tenant, clip));
        self.configs.push(trial.report.newcomer_config);
        let previous = (
            std::mem::replace(&mut self.scenario, trial.scenario),
            std::mem::replace(&mut self.pref, trial.pref),
        );
        let camera = self.configs.len() - 1;
        match self.repair_or_resolve(rec, ReplanTrigger::Arrival { camera }, budget, rung) {
            Some((a, scope)) => {
                let report = &trial.report;
                let floor = report.incumbent_before - self.controller.config().max_benefit_drop;
                self.min_floor_margin = self.min_floor_margin.min(report.incumbent_after - floor);
                self.assignment = Some(a);
                Some(scope)
            }
            None => {
                self.extras.pop();
                self.configs.pop();
                (self.scenario, self.pref) = previous;
                None
            }
        }
    }

    /// Handle one arrival under the ladder. `wait` is the
    /// already-elapsed deferral (0 when handled at event time).
    fn handle_arrival(
        &mut self,
        rec: &dyn Recorder,
        ev: ChurnEvent,
        now: f64,
        wait: f64,
        budget: &DecisionBudget,
        divisor: f64,
    ) {
        let mut rung = self.rung(budget);
        let before = budget.spent();
        let pressured = self.enforce && self.queue.under_pressure();
        // Stale rung or backpressure: no probe, straight to the queue.
        let skip_probe =
            rung == DecisionRung::Stale || pressured || !budget.try_charge(self.probe_cost());
        if skip_probe {
            if rung != DecisionRung::Stale {
                rung = DecisionRung::Stale;
                emit_warn(
                    rec,
                    ObsEvent::warn("probe_skipped", "arrival queued without an admission probe")
                        .with("tenant", ev.tenant)
                        .with("rung", rung.as_str())
                        .with("pressured", pressured),
                );
            }
            if pressured {
                self.pending_batch += 1;
            }
            let outcome = self.enqueue(ev.tenant, ev.time_s);
            let reaction = self.reaction(wait, budget.spent() - before, divisor);
            self.push_event(
                rec,
                now,
                "arrival",
                Some(ev.tenant),
                outcome,
                None,
                reaction,
                rung,
            );
            return;
        }
        let probe = self.admit_probe(rec, ev.tenant, self.queue.len());
        let (outcome, scope) = match probe {
            Probe::Accept(trial) => {
                match self.budgeted_accept(rec, ev.tenant, *trial, budget, rung) {
                    Some(scope) => {
                        self.accepted += 1;
                        ("accepted", Some(scope))
                    }
                    None => {
                        // Feasible but unaffordable: wait for a richer
                        // window instead of overrunning.
                        (self.enqueue(ev.tenant, ev.time_s), None)
                    }
                }
            }
            Probe::Queue => (self.enqueue(ev.tenant, ev.time_s), None),
            Probe::Reject => {
                self.rejected += 1;
                ("rejected", None)
            }
        };
        let reaction = self.reaction(wait, budget.spent() - before, divisor);
        self.push_event(
            rec,
            now,
            "arrival",
            Some(ev.tenant),
            outcome,
            scope,
            reaction,
            rung,
        );
    }

    /// Handle one departure. Returns `false` when the ladder could not
    /// afford a consistent replan — the caller re-defers the event and
    /// marks the tenant a zombie (served-value stops counting it).
    fn handle_departure(
        &mut self,
        rec: &dyn Recorder,
        ev: ChurnEvent,
        now: f64,
        wait: f64,
        budget: &DecisionBudget,
        divisor: f64,
    ) -> bool {
        let rung = self.rung(budget);
        let before = budget.spent();
        let Some(pos) = self.extras.iter().position(|(id, _)| *id == ev.tenant) else {
            // Not admitted: silently drop it from the wait queue.
            self.queue.remove(ev.tenant);
            let reaction = self.reaction(wait, 0, divisor);
            self.push_event(
                rec,
                now,
                "departure",
                Some(ev.tenant),
                "ignored",
                None,
                reaction,
                rung,
            );
            return true;
        };
        if rung == DecisionRung::Stale {
            return false;
        }
        let pressured = self.enforce && self.queue.under_pressure();
        let charge = if pressured {
            cost::FULL_SOLVE
        } else {
            cost::REPAIR_EVENT
        };
        if !budget.try_charge(charge) {
            return false;
        }
        let camera = self.base_n + pos;
        self.extras.remove(pos);
        self.configs.remove(camera);
        self.zombies.remove(&ev.tenant);
        // The remaining cameras' cost extremes carry over.
        match self.scenario.without_camera(camera) {
            Ok(scenario) => {
                self.scenario = scenario;
                self.pref = TruePreference::new(&self.scenario, *self.pref.weights());
            }
            Err(_) => self.rebuild_scenario(),
        }
        let (outcome, scope) = if self.assignment.is_some() {
            let planned = if pressured {
                self.coalesce(rec)
            } else {
                self.repair_or_resolve(rec, ReplanTrigger::Departure { camera }, budget, rung)
            };
            match planned {
                Some((a, scope)) => {
                    self.assignment = Some(a);
                    ("replanned", Some(scope))
                }
                None => {
                    // The departed camera is gone from the scenario;
                    // the old placement no longer describes it. Dark
                    // until the next affordable decision.
                    self.assignment = None;
                    self.degraded = true;
                    ("degraded", None)
                }
            }
        } else {
            ("ignored", None)
        };
        let reaction = self.reaction(wait, budget.spent() - before, divisor);
        self.push_event(
            rec,
            now,
            "departure",
            Some(ev.tenant),
            outcome,
            scope,
            reaction,
            rung,
        );
        if outcome == "replanned" {
            self.drain_queue(rec, now, budget, divisor);
        }
        true
    }

    /// Handle a server toggle at event time (event-driven discipline).
    fn handle_toggle(
        &mut self,
        rec: &dyn Recorder,
        server: usize,
        up: bool,
        now: f64,
        budget: &DecisionBudget,
        divisor: f64,
    ) {
        let rung = self.rung(budget);
        let before = budget.spent();
        self.belief[server] = up;
        let kind = if up { "restore" } else { "failure" };
        let trigger = if up {
            ReplanTrigger::ServerRestore { server }
        } else {
            ReplanTrigger::ServerFailure { server }
        };
        let consistent = self.configs.len() == self.scenario.n_videos() && !self.configs.is_empty();
        let (outcome, scope) = if !consistent {
            ("ignored", None)
        } else {
            let pressured = self.enforce && self.queue.under_pressure();
            let planned = if rung == DecisionRung::Stale {
                None
            } else if pressured {
                if budget.try_charge(cost::FULL_SOLVE) {
                    self.coalesce(rec)
                } else {
                    None
                }
            } else if budget.try_charge(cost::REPAIR_EVENT) {
                self.repair_or_resolve(rec, trigger, budget, rung)
            } else {
                None
            };
            match planned {
                Some((a, scope)) => {
                    self.assignment = Some(a);
                    ("replanned", Some(scope))
                }
                None => {
                    // A toggle leaves the camera set intact, so the
                    // deployed plan stays *consistent* — just stale
                    // with respect to the new liveness. The next
                    // boundary (or a richer window) re-places.
                    emit_warn(
                        rec,
                        ObsEvent::warn("replan_deferred", "server toggle left the plan stale")
                            .with("server", server as u64)
                            .with("up", up)
                            .with("rung", rung.as_str()),
                    );
                    ("deferred", None)
                }
            }
        };
        let reaction = self.reaction(0.0, budget.spent() - before, divisor);
        self.push_event(rec, now, kind, None, outcome, scope, reaction, rung);
        if up && outcome == "replanned" {
            self.drain_queue(rec, now, budget, divisor);
        }
    }

    /// Retry waiting tenants FIFO while the budget affords probes;
    /// stops at the first re-queue, refusal, or the stale rung.
    fn drain_queue(&mut self, rec: &dyn Recorder, now: f64, budget: &DecisionBudget, divisor: f64) {
        loop {
            if self.rung(budget) == DecisionRung::Stale {
                break;
            }
            let Some(entry) = self.queue.pop_front() else {
                break;
            };
            let before = budget.spent();
            if !budget.try_charge(self.probe_cost()) {
                self.queue.push_front(entry);
                break;
            }
            let rung = self.rung(budget);
            match self.admit_probe(rec, entry.tenant, self.queue.len()) {
                Probe::Accept(trial) => {
                    match self.budgeted_accept(rec, entry.tenant, *trial, budget, rung) {
                        Some(scope) => {
                            self.accepted += 1;
                            let reaction = self.reaction(0.0, budget.spent() - before, divisor);
                            self.push_event(
                                rec,
                                now,
                                "arrival",
                                Some(entry.tenant),
                                "accepted",
                                Some(scope),
                                reaction,
                                rung,
                            );
                        }
                        None => {
                            self.queue.push_front(entry);
                            break;
                        }
                    }
                }
                Probe::Queue => {
                    self.queue.push_front(entry);
                    break;
                }
                Probe::Reject => {
                    self.rejected += 1;
                    let reaction = self.reaction(0.0, budget.spent() - before, divisor);
                    self.push_event(
                        rec,
                        now,
                        "arrival",
                        Some(entry.tenant),
                        "rejected",
                        None,
                        reaction,
                        rung,
                    );
                }
            }
        }
    }
}

/// The serving loop: an explicit step machine over the serving
/// timeline, checkpointed ([`ServingSession::snapshot`]) between any
/// two steps and restored ([`ServingSession::restore`]) bit-identically
/// by replay. Every serving run, budgeted or not, and every online run
/// is one session.
pub struct ServingSession {
    serving: ServingConfig,
    overload: OverloadConfig,
    initial: Scenario,
    drift_step: f64,
    seed: u64,
    /// Steps taken so far: a checkpoint's replay length.
    steps: u64,
    horizon_s: f64,
    n_servers: usize,
    timeline: Vec<(f64, Happening)>,
    server_up: Option<Vec<AvailabilityTrace>>,
    link_windows: Vec<ChaosWindow>,
    straggler_windows: Vec<ChaosWindow>,
    pamo: Pamo,
    drifting: DriftingScenario,
    rng: StdRng,
    state: SessionState,
    epochs: Vec<EpochRecord>,
    deferred: Vec<ChurnEvent>,
    idx: usize,
    cursor: Cursor,
    budget: DecisionBudget,
    budget_spent_total: u64,
    budget_overruns_total: u64,
    deadline_hits: u64,
    deadline_misses: u64,
    rung_counts: [u64; 3],
}

fn window_factor_at(windows: &[ChaosWindow], t: f64) -> f64 {
    windows
        .iter()
        .find(|w| w.t0_s <= t && t < w.t1_s)
        .map(|w| w.factor)
        .unwrap_or(1.0)
}

impl ServingSession {
    /// Build a session over `initial` with content drift `drift_step`,
    /// seeding the run RNG from `seed`. The churn trace comes from
    /// `serving` (compose the chaos spec's storm into it); the fault
    /// plan and chaos windows come from `overload.chaos`.
    ///
    /// # Panics
    /// If `drift_step` lies outside `[0, 1)` or is NaN
    /// ([`DriftingScenario::new`]'s check), or if a weight is negative
    /// or NaN or all weights are zero ([`TruePreference::new`]'s check);
    /// [`run_serving`](crate::serving::run_serving) returns
    /// [`CoreError::InvalidInput`] for both instead.
    pub fn new(
        initial: &Scenario,
        drift_step: f64,
        config: &PamoConfig,
        weights: [f64; N_OBJECTIVES],
        serving: &ServingConfig,
        overload: &OverloadConfig,
        seed: u64,
    ) -> Self {
        let plan = overload
            .chaos
            .fault_plan(initial.n_servers(), initial.n_videos());
        ServingSession::with_plan(
            initial,
            drift_step,
            config,
            weights,
            serving,
            overload,
            Some(&plan),
            true,
            serving.churn_trace(),
            seed,
        )
    }

    /// [`new`](Self::new) with a caller-composed crash plan (whose
    /// server count the caller has checked) in place of the one
    /// `overload.chaos` would derive, and a pre-generated churn trace.
    /// A session that is not `fault_aware` still detects failures (its
    /// epoch records carry the detector's view) but plans, admits and
    /// repairs on every server.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_plan(
        initial: &Scenario,
        drift_step: f64,
        config: &PamoConfig,
        weights: [f64; N_OBJECTIVES],
        serving: &ServingConfig,
        overload: &OverloadConfig,
        plan: Option<&FaultPlan>,
        fault_aware: bool,
        trace: ChurnTrace,
        seed: u64,
    ) -> Self {
        let n_servers = initial.n_servers();
        let horizon_s = serving.horizon_s();
        let horizon_ticks = secs_to_ticks(horizon_s).max(1) + 1;
        let server_up = plan
            .filter(|p| !p.is_zero())
            .map(|p| p.server_availability(horizon_ticks));
        let mut timeline: Vec<(f64, Happening)> = trace
            .events()
            .iter()
            .map(|&e| (e.time_s, Happening::Churn(e)))
            .collect();
        if let Some(traces) = &server_up {
            for (server, tr) in traces.iter().enumerate() {
                for (i, &tick) in tr.toggles().iter().enumerate() {
                    let t = tick as f64 / TICKS_PER_SEC as f64;
                    if t < horizon_s {
                        timeline.push((
                            t,
                            Happening::Server {
                                server,
                                up: i % 2 == 1,
                            },
                        ));
                    }
                }
            }
        }
        timeline.sort_by(|a, b| a.0.total_cmp(&b.0));
        let state = SessionState {
            serving: *serving,
            policy: overload.policy,
            enforce: overload.enforce_budget,
            controller: AdmissionController::new(serving.admission),
            rescheduler: Rescheduler::new(),
            base: initial.clone(),
            base_n: initial.n_videos(),
            extras: Vec::new(),
            configs: Vec::new(),
            scenario: initial.clone(),
            pref: TruePreference::new(initial, weights),
            assignment: None,
            truly_up: vec![true; n_servers],
            belief: vec![true; n_servers],
            fault_aware,
            queue: RetryQueue::new(&serving.admission),
            zombies: BTreeSet::new(),
            events: Vec::new(),
            accepted: 0,
            rejected: 0,
            min_floor_margin: f64::INFINITY,
            value_integral: 0.0,
            seg_start: 0.0,
            rate: 0.0,
            degraded: false,
            pending_batch: 0,
        };
        ServingSession {
            serving: *serving,
            overload: *overload,
            initial: initial.clone(),
            drift_step,
            seed,
            steps: 0,
            horizon_s,
            n_servers,
            timeline,
            server_up,
            link_windows: overload.chaos.link_windows(horizon_s),
            straggler_windows: overload.chaos.straggler_windows(horizon_s),
            pamo: Pamo::new(config.clone()),
            drifting: DriftingScenario::new(initial, drift_step),
            rng: eva_stats::rng::seeded(seed),
            state,
            epochs: Vec::with_capacity(serving.n_epochs),
            deferred: Vec::new(),
            idx: 0,
            cursor: if serving.n_epochs == 0 {
                Cursor::Flush
            } else {
                Cursor::Boundary(0)
            },
            budget: DecisionBudget::unlimited(),
            budget_spent_total: 0,
            budget_overruns_total: 0,
            deadline_hits: 0,
            deadline_misses: 0,
            rung_counts: [0; 3],
        }
    }

    /// Whether the run has completed.
    pub fn is_done(&self) -> bool {
        self.cursor == Cursor::Done
    }

    /// The epoch records so far, one per boundary step taken.
    pub(crate) fn epochs(&self) -> &[EpochRecord] {
        &self.epochs
    }

    /// The deployed configurations and placement (`None` while dark).
    pub(crate) fn deployed(&self) -> Option<(&[VideoConfig], &Assignment)> {
        let a = self.state.assignment.as_ref()?;
        Some((&self.state.configs, a))
    }

    /// The scenario the deployed plan serves.
    pub(crate) fn scenario(&self) -> &Scenario {
        &self.state.scenario
    }

    /// The true preference over [`scenario`](Self::scenario).
    pub(crate) fn preference(&self) -> &TruePreference {
        &self.state.pref
    }

    /// The straggler budget divisor active in epoch `e`'s window.
    fn divisor_for_epoch(&self, e: usize) -> f64 {
        window_factor_at(&self.straggler_windows, e as f64 * self.serving.epoch_s).max(1.0)
    }

    /// Advance one step: an epoch-boundary decision, one timeline
    /// event, one window close, or the end-of-horizon flush. Returns
    /// `false` once the run is complete.
    pub fn step(&mut self, rec: &dyn Recorder) -> bool {
        match self.cursor {
            Cursor::Boundary(e) => self.step_boundary(e, rec),
            Cursor::Window(e) => self.step_window(e, rec),
            Cursor::Flush => self.step_flush(rec),
            Cursor::Done => return false,
        }
        self.steps += 1;
        true
    }

    /// Run to completion and return the result.
    pub fn run(&mut self, rec: &dyn Recorder) -> ServingRun {
        while self.step(rec) {}
        self.finish()
    }

    fn step_boundary(&mut self, e: usize, rec: &dyn Recorder) {
        let t0 = e as f64 * self.serving.epoch_s;
        self.state.advance_value(t0);
        let _epoch_span = span(rec, Phase::Epoch);

        // Fresh decision-budget window, shrunk by an active control
        // straggler. The bootstrap window (epoch 0) is mandatory work
        // and runs unlimited — there is no previous plan to serve.
        let divisor = self.divisor_for_epoch(e);
        self.budget = if self.overload.enforce_budget && e > 0 {
            DecisionBudget::limited(
                (self.overload.policy.window_units as f64 / divisor).floor() as u64
            )
        } else {
            DecisionBudget::unlimited()
        };

        // Epoch base: the drifted content, uplinks scaled by an active
        // link collapse (sampled at boundaries).
        let link = window_factor_at(&self.link_windows, t0);
        let snap = self.drifting.snapshot();
        self.state.base = if link != 1.0 {
            let clips: Vec<ClipProfile> =
                (0..snap.n_videos()).map(|i| snap.clip(i).clone()).collect();
            let ups: Vec<f64> = snap.uplinks().iter().map(|u| u * link).collect();
            Scenario::new(clips, ups, snap.config_space().clone())
        } else {
            snap
        };
        self.state.rebuild_scenario();

        // Failure detection.
        if self.serving.event_driven {
            let truly = self.state.truly_up.clone();
            self.state.belief.copy_from_slice(&truly);
        } else if let Some(traces) = &self.server_up {
            let heartbeat = secs_to_ticks(self.serving.heartbeat_s);
            let now_ticks = secs_to_ticks(t0);
            for (s, tr) in traces.iter().enumerate() {
                self.state.belief[s] =
                    tr.is_up_throughout(now_ticks.saturating_sub(heartbeat), now_ticks);
            }
        }

        // Boundary load shedding: expire over-age waiters and trim
        // above the high-water mark before spending any budget.
        self.state.shed(rec, t0, true);

        // Deferred churn lands here when the ladder can afford it;
        // under the stale rung it stays deferred (zombies persist).
        if self.state.rung(&self.budget) != DecisionRung::Stale {
            let mut redeferred: Vec<ChurnEvent> = Vec::new();
            for ev in std::mem::take(&mut self.deferred) {
                let wait = t0 - ev.time_s;
                match ev.action {
                    ChurnAction::Arrive => {
                        self.state
                            .handle_arrival(rec, ev, t0, wait, &self.budget, divisor)
                    }
                    ChurnAction::Depart => {
                        if !self
                            .state
                            .handle_departure(rec, ev, t0, wait, &self.budget, divisor)
                        {
                            redeferred.push(ev);
                        }
                    }
                }
            }
            self.state.zombies.clear();
            for ev in redeferred {
                self.state.zombies.insert(ev.tenant);
                self.deferred.push(ev);
            }
        }

        // The epoch decision, on the affordable ladder rung.
        let pref = &self.state.pref;
        let mask = self.state.mask_vec();
        let mut rung = self.state.rung(&self.budget);
        let epoch_degraded;
        if rung == DecisionRung::Repair
            && (self.state.configs.len() != self.state.scenario.n_videos()
                || self.state.configs.is_empty()
                || !self.budget.try_charge(cost::FULL_SOLVE))
        {
            // Repair needs a consistent deployed plan and one full
            // placement solve; otherwise it degrades to stale.
            rung = DecisionRung::Stale;
        }
        match rung {
            DecisionRung::Full => {
                // A whole-cluster outage leaves nothing to plan on: no
                // decision runs, so nothing draws from the RNG.
                let outage = mask.as_deref().is_some_and(|m| !m.contains(&true));
                let scenario = &self.state.scenario;
                let decided = (!outage).then(|| {
                    self.pamo.decide_surviving_budgeted_recorded(
                        scenario,
                        pref,
                        mask.as_deref(),
                        &self.budget,
                        &mut self.rng,
                        rec,
                    )
                });
                let planned = match decided {
                    None => None,
                    Some(Ok(d)) => Some((d.configs, d.assignment, false)),
                    Some(Err(err)) => {
                        emit_warn(
                            rec,
                            ObsEvent::warn(
                                "decision_failed",
                                format!("epoch {e}: decision failed ({err})"),
                            )
                            .with("epoch", e),
                        );
                        let fallback = fallback_uniform(scenario, pref, mask.as_deref(), rec);
                        if fallback.is_some() && rec.enabled() {
                            rec.add("fault.fallbacks", 1);
                        }
                        fallback.map(|(c, a)| (c, a, true))
                    }
                };
                if planned.is_none() {
                    let (kind, why) = if outage {
                        ("cluster_outage", "no servers alive")
                    } else {
                        ("no_fallback", "no feasible fallback")
                    };
                    emit_warn(
                        rec,
                        ObsEvent::warn(kind, format!("epoch {e}: {why} — serving dark"))
                            .with("epoch", e),
                    );
                }
                epoch_degraded = match planned {
                    Some((c, a, fell_back)) => {
                        self.state.configs = c;
                        self.state.rescheduler.install(&a);
                        self.state.assignment = Some(a);
                        fell_back
                    }
                    None => {
                        self.state.assignment = None;
                        self.state.degraded = true;
                        true
                    }
                };
            }
            DecisionRung::Repair => {
                // Re-place the deployed configurations on the drifted
                // scenario — Algorithm 1 without the BO/GP pipeline.
                match self.state.scenario.schedule_surviving(
                    &self.state.configs,
                    mask.as_deref(),
                    rec,
                ) {
                    Ok(a) => {
                        self.state.rescheduler.install(&a);
                        self.state.assignment = Some(a);
                    }
                    Err(_) => {
                        rung = DecisionRung::Stale;
                    }
                }
                emit_warn(
                    rec,
                    ObsEvent::warn(
                        "decision_degraded",
                        "budget window afforded no full decision",
                    )
                    .with("epoch", e)
                    .with("rung", rung.as_str()),
                );
                epoch_degraded = true;
            }
            DecisionRung::Stale => {
                emit_warn(
                    rec,
                    ObsEvent::warn(
                        "decision_degraded",
                        "budget window afforded no full decision",
                    )
                    .with("epoch", e)
                    .with("rung", rung.as_str()),
                );
                epoch_degraded = true;
            }
        }
        if rung == DecisionRung::Stale && self.state.configs.len() != self.state.scenario.n_videos()
        {
            // A stale plan over a changed camera set cannot be
            // evaluated; serve dark until a richer window.
            self.state.assignment = None;
            self.state.degraded = true;
        }
        self.rung_counts[rung.index()] += 1;
        self.state.degraded |= epoch_degraded || self.state.belief.iter().any(|&b| !b);
        let online_benefit = self
            .state
            .deployed_outcome()
            .map_or(pref.min_reference() - 1.0, |o| pref.benefit(&o));
        self.epochs.push(EpochRecord {
            epoch: e,
            divergence: self.drifting.divergence_from(&self.initial),
            online_benefit,
            static_benefit: None,
            configs: self.state.configs.clone(),
            alive: self.state.belief.clone(),
            degraded: epoch_degraded,
            rung,
        });
        if rec.enabled() {
            rec.add("serve.epochs", 1);
        }
        let divisor = self.divisor_for_epoch(e);
        self.state.drain_queue(rec, t0, &self.budget, divisor);
        self.state.recompute_rate();
        self.cursor = Cursor::Window(e);
    }

    fn step_window(&mut self, e: usize, rec: &dyn Recorder) {
        let t0 = e as f64 * self.serving.epoch_s;
        let t1 = t0 + self.serving.epoch_s;
        if self.idx < self.timeline.len() && self.timeline[self.idx].0 < t1 {
            let (t, what) = self.timeline[self.idx];
            self.idx += 1;
            let divisor = self.divisor_for_epoch(e);
            self.state.advance_value(t.max(t0));
            match what {
                Happening::Server { server, up } => {
                    self.state.truly_up[server] = up;
                    if !up {
                        self.state.degraded = true;
                    }
                    if self.serving.event_driven {
                        self.state
                            .handle_toggle(rec, server, up, t, &self.budget, divisor);
                    }
                }
                Happening::Churn(ev) => {
                    if self.serving.event_driven {
                        match ev.action {
                            ChurnAction::Arrive => {
                                self.state
                                    .handle_arrival(rec, ev, t, 0.0, &self.budget, divisor)
                            }
                            ChurnAction::Depart => {
                                if !self.state.handle_departure(
                                    rec,
                                    ev,
                                    t,
                                    0.0,
                                    &self.budget,
                                    divisor,
                                ) {
                                    self.state.zombies.insert(ev.tenant);
                                    self.deferred.push(ev);
                                }
                            }
                        }
                    } else {
                        if ev.action == ChurnAction::Depart
                            && self.state.extras.iter().any(|(id, _)| *id == ev.tenant)
                        {
                            self.state.zombies.insert(ev.tenant);
                        }
                        self.deferred.push(ev);
                    }
                }
            }
            self.state.recompute_rate();
        } else {
            // Window close: settle the window's deadline verdict and
            // advance the content drift.
            let units = self.budget.spent();
            let divisor = self.divisor_for_epoch(e);
            let modeled = self.overload.policy.modeled_time_s(units) * divisor;
            if modeled <= self.overload.policy.deadline_s {
                self.deadline_hits += 1;
            } else {
                self.deadline_misses += 1;
                emit_warn(
                    rec,
                    ObsEvent::warn("deadline_missed", "decision window exceeded its deadline")
                        .with("epoch", e)
                        .with("modeled_s", modeled)
                        .with("deadline_s", self.overload.policy.deadline_s),
                );
            }
            self.budget_spent_total += units;
            self.budget_overruns_total += self.budget.overruns();
            self.drifting.advance(&mut self.rng);
            self.cursor = if e + 1 < self.serving.n_epochs {
                Cursor::Boundary(e + 1)
            } else {
                Cursor::Flush
            };
        }
    }

    fn step_flush(&mut self, rec: &dyn Recorder) {
        self.state.advance_value(self.horizon_s);
        self.state.shed(rec, self.horizon_s, false);
        let divisor = self
            .divisor_for_epoch(self.serving.n_epochs.saturating_sub(1))
            .max(1.0);
        for ev in std::mem::take(&mut self.deferred) {
            let wait = self.horizon_s - ev.time_s;
            match ev.action {
                ChurnAction::Arrive => {
                    self.state
                        .handle_arrival(rec, ev, self.horizon_s, wait, &self.budget, divisor)
                }
                ChurnAction::Depart => {
                    if !self.state.handle_departure(
                        rec,
                        ev,
                        self.horizon_s,
                        wait,
                        &self.budget,
                        divisor,
                    ) {
                        // End of run: record the never-handled event.
                        let rung = self.state.rung(&self.budget);
                        self.state.push_event(
                            rec,
                            self.horizon_s,
                            "departure",
                            Some(ev.tenant),
                            "deferred",
                            None,
                            wait,
                            rung,
                        );
                    }
                }
            }
        }
        self.cursor = Cursor::Done;
    }

    /// Assemble the result from the current state. Meaningful once
    /// [`is_done`](Self::is_done); callable earlier for inspection.
    pub fn finish(&self) -> ServingRun {
        let stats = self.state.rescheduler.stats();
        ServingRun {
            epochs: self.epochs.clone(),
            events: self.state.events.clone(),
            accepted: self.state.accepted,
            rejected: self.state.rejected,
            queued_peak: self.state.queue.peak(),
            replan_incremental: stats.incremental,
            replan_full: stats.full,
            value_integral: self.state.value_integral,
            horizon_s: self.horizon_s,
            n_servers: self.n_servers,
            min_floor_margin: self.state.min_floor_margin,
            degraded: self.state.degraded,
            shed: self.state.queue.shed_count(),
            replan_coalesced: stats.coalesced,
            budget_spent: self.budget_spent_total,
            budget_overruns: self.budget_overruns_total,
            deadline_hits: self.deadline_hits,
            deadline_misses: self.deadline_misses,
            rung_counts: self.rung_counts,
        }
    }

    /// Checkpoint the session between steps: its seed, the steps taken,
    /// and digests of its parameters and of its state.
    pub fn snapshot(&self) -> ControlPlaneSnapshot {
        ControlPlaneSnapshot {
            seed: self.seed,
            steps: self.steps,
            params: params_digest(
                &self.initial,
                self.drift_step,
                self.pamo.config(),
                self.state.pref.weights(),
                &self.serving,
                &self.overload,
            ),
            state: self.state_digest(),
        }
    }

    /// Rebuild a checkpointed session from the original run parameters
    /// (which a checkpoint does not carry — a restore is "restart with
    /// the same flags"): build it from the checkpoint's seed and replay
    /// its steps. The replay records nothing and prints none of the
    /// replayed steps' warnings. Parameters other than the checkpointed
    /// ones, a step count past the end of the run, or a replay that
    /// reaches another state are [`CoreError::Snapshot`].
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        initial: &Scenario,
        drift_step: f64,
        config: &PamoConfig,
        weights: [f64; N_OBJECTIVES],
        serving: &ServingConfig,
        overload: &OverloadConfig,
        snap: ControlPlaneSnapshot,
    ) -> Result<Self, CoreError> {
        if snap.params != params_digest(initial, drift_step, config, &weights, serving, overload) {
            return Err(CoreError::Snapshot {
                context: "parameters",
            });
        }
        let mut session = ServingSession::new(
            initial, drift_step, config, weights, serving, overload, snap.seed,
        );
        for _ in 0..snap.steps {
            if !session.step(&Replay) {
                return Err(CoreError::Snapshot {
                    context: "step count",
                });
            }
        }
        if session.state_digest() != snap.state {
            return Err(CoreError::Snapshot { context: "state" });
        }
        Ok(session)
    }

    /// Digest of the state a checkpoint pins: the cursor, the timeline
    /// index, the RNG and the outputs so far.
    fn state_digest(&self) -> u64 {
        debug_digest(&(self.cursor, self.idx, &self.rng, self.finish()))
    }
}

/// The recorder a restore replays under: it records nothing, like
/// `NoopRecorder`, and keeps the replayed steps' warnings off stderr,
/// since the checkpointed run already printed them.
struct Replay;

impl Recorder for Replay {
    fn mirrors_warnings(&self) -> bool {
        false
    }
}

/// Current checkpoint format version (4: a checkpoint is a step count,
/// restored by replay).
const SNAPSHOT_VERSION: u64 = 4;

/// A [`ServingSession`] checkpoint: the session seed, the number of
/// steps taken, and FNV-1a digests of the run parameters and of the
/// state after those steps. Fields are private; sessions build and
/// consume checkpoints, external callers move them through
/// [`to_json`](ControlPlaneSnapshot::to_json) /
/// [`from_json`](ControlPlaneSnapshot::from_json).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlPlaneSnapshot {
    seed: u64,
    steps: u64,
    params: u64,
    state: u64,
}

impl ControlPlaneSnapshot {
    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        let doc = serde_json::json!({
            "version": SNAPSHOT_VERSION,
            "seed": self.seed,
            "steps": self.steps,
            "params_digest": self.params,
            "state_digest": self.state,
        });
        serde_json::to_string(&doc).unwrap_or_default()
    }

    /// Decode a checkpoint from its JSON form. Corrupt JSON, another
    /// format version, or a missing or ill-typed field is
    /// [`CoreError::Snapshot`].
    pub fn from_json(text: &str) -> Result<Self, CoreError> {
        let doc =
            serde_json::from_str(text).map_err(|_| CoreError::Snapshot { context: "json" })?;
        let field = |key: &'static str| {
            doc.get(key)
                .and_then(serde_json::Value::as_u64)
                .ok_or(CoreError::Snapshot { context: key })
        };
        if field("version")? != SNAPSHOT_VERSION {
            return Err(CoreError::Snapshot { context: "version" });
        }
        Ok(ControlPlaneSnapshot {
            seed: field("seed")?,
            steps: field("steps")?,
            params: field("params_digest")?,
            state: field("state_digest")?,
        })
    }
}

/// Digest of everything a session is built from.
fn params_digest(
    initial: &Scenario,
    drift_step: f64,
    config: &PamoConfig,
    weights: &[f64; N_OBJECTIVES],
    serving: &ServingConfig,
    overload: &OverloadConfig,
) -> u64 {
    debug_digest(&(initial, drift_step, config, weights, serving, overload))
}

/// FNV-1a over a value's `{:?}` text. `Debug` prints every `f64` in its
/// shortest round-trip form, so values that differ in any bit (NaN
/// payloads aside) print, and almost surely digest, differently.
fn debug_digest(value: &dyn Debug) -> u64 {
    struct Fnv(u64);
    impl Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    // Writing into `Fnv` never fails.
    let _ = write!(h, "{value:?}");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pamo::PreferenceSource;
    use eva_bo::{AcqKind, BoConfig};
    use eva_fault::{ControlStragglers, CrashBursts, LinkCollapse};
    use eva_obs::FlightRecorder;
    use eva_serve::{AdmissionConfig, ArrivalModel};
    use eva_stats::rng::seeded;

    fn tiny_config() -> PamoConfig {
        PamoConfig {
            bo: BoConfig {
                n_init: 4,
                batch: 2,
                mc_samples: 16,
                max_iters: 3,
                delta: 0.02,
                kind: AcqKind::QNei,
            },
            pool_size: 20,
            profiling_per_camera: 20,
            profile_noise: 0.02,
            n_comparisons: 6,
            elicit_candidates: 15,
            preference: PreferenceSource::Oracle,
        }
    }

    fn base() -> Scenario {
        Scenario::uniform(3, 3, 20e6, 61)
    }

    fn policy() -> BudgetPolicy {
        BudgetPolicy {
            window_units: 400,
            full_floor: 120,
            repair_floor: 40,
            unit_time_s: 0.01,
            deadline_s: 5.0,
        }
    }

    fn storm(event_driven: bool) -> ServingConfig {
        ServingConfig {
            epoch_s: 20.0,
            n_epochs: 3,
            event_driven,
            arrivals: ArrivalModel::Poisson { rate_hz: 0.15 },
            mean_hold_s: 25.0,
            churn_seed: 5,
            ..ServingConfig::default()
        }
    }

    fn assert_runs_bit_identical(a: &ServingRun, b: &ServingRun) {
        assert_eq!(a.epochs.len(), b.epochs.len(), "epoch count");
        for (x, y) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(x.epoch, y.epoch);
            assert_eq!(x.online_benefit.to_bits(), y.online_benefit.to_bits());
            assert_eq!(x.divergence.to_bits(), y.divergence.to_bits());
            assert_eq!(x.configs, y.configs);
            assert_eq!(x.alive, y.alive);
            assert_eq!(x.degraded, y.degraded);
            assert_eq!(x.rung, y.rung);
        }
        assert_eq!(a.events.len(), b.events.len(), "event count");
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.time_s.to_bits(), y.time_s.to_bits());
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.scope, y.scope);
            assert_eq!(x.reaction_s.to_bits(), y.reaction_s.to_bits());
            assert_eq!(x.live_tenants, y.live_tenants);
            assert_eq!(x.rung, y.rung);
        }
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.queued_peak, b.queued_peak);
        assert_eq!(a.replan_incremental, b.replan_incremental);
        assert_eq!(a.replan_full, b.replan_full);
        assert_eq!(a.replan_coalesced, b.replan_coalesced);
        assert_eq!(a.value_integral.to_bits(), b.value_integral.to_bits());
        assert_eq!(a.min_floor_margin.to_bits(), b.min_floor_margin.to_bits());
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.budget_spent, b.budget_spent);
        assert_eq!(a.budget_overruns, b.budget_overruns);
        assert_eq!(a.deadline_hits, b.deadline_hits);
        assert_eq!(a.deadline_misses, b.deadline_misses);
        assert_eq!(a.rung_counts, b.rung_counts);
    }

    fn chaotic() -> (ServingConfig, OverloadConfig) {
        let chaos = ChaosSpec {
            seed: 11,
            churn_storm: None,
            crash_bursts: Some(CrashBursts {
                mttf_s: 35.0,
                mttr_s: 12.0,
            }),
            link_collapse: Some(LinkCollapse {
                factor: 0.6,
                mean_normal_s: 25.0,
                mean_collapsed_s: 10.0,
            }),
            stragglers: Some(ControlStragglers {
                factor: 3.0,
                mean_normal_s: 20.0,
                mean_slow_s: 15.0,
            }),
        };
        let serving = ServingConfig {
            epoch_s: 20.0,
            n_epochs: 2,
            event_driven: true,
            arrivals: ArrivalModel::Poisson { rate_hz: 0.12 },
            mean_hold_s: 18.0,
            churn_seed: chaos.churn_seed(),
            admission: AdmissionConfig {
                max_queue_age_s: 30.0,
                high_water: 2,
                ..AdmissionConfig::default()
            },
            ..ServingConfig::default()
        };
        (serving, OverloadConfig::budgeted(chaos, policy()))
    }

    #[test]
    fn budgeted_chaos_run_never_overruns_and_records_rungs() {
        let sc = base();
        let (serving, overload) = chaotic();
        let run = ServingSession::new(&sc, 0.05, &tiny_config(), [1.0; 5], &serving, &overload, 3)
            .run(&NoopRecorder);
        assert_eq!(run.budget_overruns, 0, "budget overran");
        assert_eq!(
            run.rung_counts.iter().sum::<u64>(),
            serving.n_epochs as u64,
            "every epoch records exactly one rung"
        );
        assert_eq!(
            run.deadline_hits + run.deadline_misses,
            serving.n_epochs as u64
        );
        assert!(run.budget_spent > 0);
        assert!(run.epochs.iter().all(|e| !e.rung.as_str().is_empty()));
    }

    #[test]
    fn crash_at_any_step_then_restore_is_bit_identical() {
        let sc = base();
        let (serving, overload) = chaotic();
        let cfg = tiny_config();
        let reference = {
            let mut s = ServingSession::new(&sc, 0.05, &cfg, [1.0; 5], &serving, &overload, 3);
            s.run(&NoopRecorder)
        };
        // Count the steps of the uninterrupted run.
        let total_steps = {
            let mut s = ServingSession::new(&sc, 0.05, &cfg, [1.0; 5], &serving, &overload, 3);
            let mut n = 0;
            while s.step(&NoopRecorder) {
                n += 1;
            }
            n
        };
        assert!(total_steps > 4, "chaos run too short to exercise restore");
        // Crash after k steps, snapshot through JSON, restore, finish.
        for k in 0..=total_steps {
            let mut s = ServingSession::new(&sc, 0.05, &cfg, [1.0; 5], &serving, &overload, 3);
            for _ in 0..k {
                s.step(&NoopRecorder);
            }
            let text = s.snapshot().to_json();
            drop(s); // the "crash"
            let snap = ControlPlaneSnapshot::from_json(&text).expect("snapshot decode");
            let mut restored =
                ServingSession::restore(&sc, 0.05, &cfg, [1.0; 5], &serving, &overload, snap)
                    .expect("restore");
            let run = restored.run(&NoopRecorder);
            assert_runs_bit_identical(&reference, &run);
        }
    }

    #[test]
    fn crash_restore_holds_under_the_composed_storm_config() {
        // Mirrors the `ext_overload` restore probe: a heterogeneous
        // standard scenario, an MMPP churn storm, and every chaos axis.
        let sc = Scenario::standard(8, 3, &mut seeded(990));
        let chaos = ChaosSpec {
            seed: 23,
            churn_storm: Some(eva_fault::ChurnStorm {
                calm_rate_hz: 0.02,
                storm_rate_hz: 0.3,
                mean_dwell_s: [30.0, 20.0],
                mean_hold_s: 40.0,
            }),
            crash_bursts: Some(CrashBursts {
                mttf_s: 60.0,
                mttr_s: 15.0,
            }),
            link_collapse: Some(LinkCollapse {
                factor: 0.6,
                mean_normal_s: 50.0,
                mean_collapsed_s: 15.0,
            }),
            stragglers: Some(ControlStragglers {
                factor: 3.0,
                mean_normal_s: 30.0,
                mean_slow_s: 25.0,
            }),
        };
        let storm = chaos.churn_storm.unwrap();
        let serving = ServingConfig {
            epoch_s: 20.0,
            n_epochs: 2,
            event_driven: true,
            arrivals: ArrivalModel::Mmpp {
                rate_hz: [storm.calm_rate_hz, storm.storm_rate_hz],
                mean_dwell_s: storm.mean_dwell_s,
            },
            mean_hold_s: storm.mean_hold_s,
            churn_seed: chaos.churn_seed(),
            admission: AdmissionConfig {
                max_queue_age_s: 30.0,
                high_water: 4,
                ..AdmissionConfig::default()
            },
            ..ServingConfig::default()
        };
        let overload = OverloadConfig::budgeted(
            chaos,
            BudgetPolicy {
                window_units: 324,
                full_floor: 216,
                repair_floor: 100,
                unit_time_s: 0.125,
                deadline_s: 40.5,
            },
        );
        let cfg = tiny_config();
        let reference = {
            let mut s = ServingSession::new(&sc, 0.05, &cfg, [1.0; 5], &serving, &overload, 6);
            s.run(&NoopRecorder)
        };
        let total_steps = {
            let mut s = ServingSession::new(&sc, 0.05, &cfg, [1.0; 5], &serving, &overload, 6);
            let mut n = 0;
            while s.step(&NoopRecorder) {
                n += 1;
            }
            n
        };
        for k in 0..=total_steps {
            let mut s = ServingSession::new(&sc, 0.05, &cfg, [1.0; 5], &serving, &overload, 6);
            for _ in 0..k {
                s.step(&NoopRecorder);
            }
            let text = s.snapshot().to_json();
            drop(s);
            let snap = ControlPlaneSnapshot::from_json(&text).expect("snapshot decode");
            let mut restored =
                ServingSession::restore(&sc, 0.05, &cfg, [1.0; 5], &serving, &overload, snap)
                    .expect("restore");
            let run = restored.run(&NoopRecorder);
            assert_runs_bit_identical(&reference, &run);
        }
    }

    #[test]
    fn restore_rejects_mismatched_parameters() {
        let sc = base();
        let (serving, overload) = chaotic();
        let cfg = tiny_config();
        let mut s = ServingSession::new(&sc, 0.05, &cfg, [1.0; 5], &serving, &overload, 3);
        s.step(&NoopRecorder);
        let snap = s.snapshot();
        // A bigger deployment cannot adopt this snapshot.
        let other = Scenario::uniform(5, 3, 20e6, 61);
        let err = ServingSession::restore(&other, 0.05, &cfg, [1.0; 5], &serving, &overload, snap)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, CoreError::Snapshot { .. }), "{err}");
    }

    #[test]
    fn corrupt_or_tampered_checkpoints_are_typed_errors() {
        for bad in [
            "",
            "{",
            "[1,2,3]",
            "{\"version\": 4}",
            "{\"version\": true}",
        ] {
            let err = ControlPlaneSnapshot::from_json(bad).unwrap_err();
            assert!(matches!(err, CoreError::Snapshot { .. }), "{bad:?}: {err}");
        }
        // Another seed replays to another state.
        let sc = base();
        let (serving, overload) = chaotic();
        let cfg = tiny_config();
        let mut s = ServingSession::new(&sc, 0.05, &cfg, [1.0; 5], &serving, &overload, 3);
        for _ in 0..3 {
            s.step(&NoopRecorder);
        }
        let snap = ControlPlaneSnapshot {
            seed: 4,
            ..s.snapshot()
        };
        let err = ServingSession::restore(&sc, 0.05, &cfg, [1.0; 5], &serving, &overload, snap)
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Snapshot { context: "state" }),
            "{err}"
        );
    }

    #[test]
    fn starved_budget_degrades_to_stale_without_overruns() {
        let sc = base();
        let serving = storm(true);
        let starved = OverloadConfig::budgeted(
            ChaosSpec::none(0),
            BudgetPolicy {
                window_units: 10,
                full_floor: 120,
                repair_floor: 40,
                unit_time_s: 0.01,
                deadline_s: 5.0,
            },
        );
        let run = ServingSession::new(&sc, 0.05, &tiny_config(), [1.0; 5], &serving, &starved, 2)
            .run(&NoopRecorder);
        // Epoch 0 bootstraps at full; every later window is starved.
        assert_eq!(run.rung_counts[DecisionRung::Full.index()], 1);
        assert_eq!(
            run.rung_counts[DecisionRung::Stale.index()],
            serving.n_epochs as u64 - 1
        );
        assert_eq!(run.budget_overruns, 0);
        assert!(
            run.epochs[1..]
                .iter()
                .all(|e| e.rung == DecisionRung::Stale),
            "starved epochs must be stale"
        );
        // Stale windows still serve: the epoch-0 plan keeps earning.
        assert!(run.value_integral > 0.0);
    }

    #[test]
    fn overload_storm_sheds_and_backpressures() {
        let sc = base();
        let serving = ServingConfig {
            epoch_s: 20.0,
            n_epochs: 3,
            event_driven: true,
            arrivals: ArrivalModel::Poisson { rate_hz: 0.8 },
            mean_hold_s: 60.0,
            churn_seed: 9,
            admission: AdmissionConfig {
                max_live: 2,
                queue_capacity: 6,
                max_queue_age_s: 15.0,
                high_water: 2,
                ..AdmissionConfig::default()
            },
            ..ServingConfig::default()
        };
        let overload = OverloadConfig::budgeted(ChaosSpec::none(0), policy());
        let run = ServingSession::new(&sc, 0.05, &tiny_config(), [1.0; 5], &serving, &overload, 4)
            .run(&NoopRecorder);
        assert!(run.shed > 0, "an arrival flood past a tiny cap must shed");
        assert!(
            run.events.iter().any(|e| e.outcome == "shed"),
            "shed tenants must be recorded as events"
        );
        assert!(run.queued_peak >= 2);
        assert_eq!(run.budget_overruns, 0);
    }

    #[test]
    fn fallback_picks_the_best_uniform_config_on_the_survivors() {
        let sc = Scenario::uniform(3, 2, 20e6, 61);
        let pref = TruePreference::new(&sc, [1.0, 3.0, 1.0, 1.0, 1.0]);
        let alive = [false, true];
        let flight = FlightRecorder::new();
        let (configs, assignment) =
            fallback_uniform(&sc, &pref, Some(&alive), &flight).expect("server 1 hosts a config");
        assert!(configs.iter().all(|c| *c == configs[0]), "not uniform");
        assert!(assignment.server_of.iter().all(|&s| s == 1));
        // Brute force over the grid: no feasible uniform config plans a
        // higher benefit.
        let feasible: Vec<f64> = sc
            .config_space()
            .iter()
            .filter_map(|c| {
                sc.evaluate_surviving(&[c; 3], Some(&alive), &NoopRecorder)
                    .ok()
            })
            .map(|out| pref.benefit(&out.outcome))
            .collect();
        let best = feasible.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let chosen = sc
            .evaluate_surviving(&configs, Some(&alive), &NoopRecorder)
            .expect("the fallback is feasible");
        assert_eq!(pref.benefit(&chosen.outcome), best);
        let spans = flight.snapshot().phase_stats();
        assert_eq!(
            spans
                .iter()
                .find(|(p, _)| *p == Phase::Fallback)
                .map(|(_, s)| s.count),
            Some(1)
        );
    }

    #[test]
    fn fallback_is_none_when_nothing_fits_the_survivors() {
        let sc = Scenario::uniform(3, 2, 20e6, 61);
        let pref = TruePreference::uniform(&sc);
        let dead = [false, false];
        assert!(fallback_uniform(&sc, &pref, Some(&dead), &NoopRecorder).is_none());
    }
}
