//! The serving control plane: the [`ServingSession`] step machine that
//! every serving run executes, with decision budgets, load shedding,
//! coalesced repairs, and checkpoint/restore.
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
//!   `unit_time_s` — never the wall clock), so a
//!   [`ControlPlaneSnapshot`] taken between any two steps and restored
//!   into a fresh session finishes with a bit-identical
//!   [`ServingRun`].
//!
//! Budgeted or not, every reaction time is modeled the same way (see
//! [`crate::serving`]): the wait until the handling step plus the
//! handler's charged units × `unit_time_s` × the straggler divisor.

use std::collections::BTreeSet;

use eva_fault::process::secs_to_ticks;
use eva_fault::{AvailabilityTrace, ChaosSpec, ChaosWindow, FaultPlan};
use eva_obs::{
    cost, emit_warn, span, BudgetPolicy, DecisionBudget, DecisionRung, ObsEvent, Phase, Recorder,
};
use eva_sched::{Assignment, TICKS_PER_SEC};
use eva_serve::{
    subset_outcome, AdmissionController, AdmissionDecision, ChurnAction, ChurnEvent, ChurnTrace,
    ProbeReport, ReplanScope, ReplanTrigger, Rescheduler, RetryQueue,
};
use eva_workload::{ClipProfile, DriftingScenario, Scenario, VideoConfig, N_OBJECTIVES};
use rand::rngs::StdRng;

use crate::benefit::{normalized_benefit, TruePreference};
use crate::error::CoreError;
use crate::faulted::fallback_uniform;
use crate::online::EpochRecord;
use crate::pamo::{Pamo, PamoConfig};
use crate::serving::{ServeEvent, ServingConfig, ServingRun};
use crate::snapshot::{ControlPlaneSnapshot, SnapshotCursor};

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

fn scope_label(scope: ReplanScope) -> &'static str {
    match scope {
        ReplanScope::Incremental { .. } => "incremental",
        ReplanScope::Full => "full",
    }
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
    weights: [f64; N_OBJECTIVES],
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
    assignment: Option<Assignment>,
    truly_up: Vec<bool>,
    belief: Vec<bool>,
    queue: RetryQueue,
    /// Departed-but-unprocessed tenants (deferred or budget-starved).
    /// Ordered set: snapshots must serialize deterministically.
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

    /// Work units to probe one admission against the current system.
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
        let Some(a) = &self.assignment else {
            self.rate = 0.0;
            return;
        };
        let n = self.scenario.n_videos();
        let pref = TruePreference::new(&self.scenario, self.weights);
        let out = subset_outcome(&self.scenario, &self.configs, a, n);
        let quality = normalized_benefit(pref.benefit(&out), 0.0, pref.min_reference());
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

    fn mask_vec(&self) -> Option<Vec<bool>> {
        if self.belief.iter().all(|&b| b) {
            None
        } else {
            Some(self.belief.clone())
        }
    }

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
    fn admit_probe(&self, rec: &dyn Recorder, tenant: u64, queue_len: usize) -> AdmissionDecision {
        if self.assignment.is_none() || self.configs.len() != self.scenario.n_videos() {
            return if queue_len < self.controller.config().queue_capacity {
                AdmissionDecision::Queue {
                    reason: "system degraded",
                }
            } else {
                AdmissionDecision::Reject {
                    reason: "system degraded",
                }
            };
        }
        let clip = churn_clip(
            self.serving.churn_seed,
            tenant,
            self.base_n + tenant as usize,
        );
        let mut clips: Vec<ClipProfile> = (0..self.scenario.n_videos())
            .map(|i| self.scenario.clip(i).clone())
            .collect();
        clips.push(clip);
        let trial = Scenario::new(
            clips,
            self.scenario.uplinks().to_vec(),
            self.scenario.config_space().clone(),
        );
        let pref = TruePreference::new(&trial, self.weights);
        let incumbent_before = match &self.assignment {
            Some(a) => pref.benefit(&subset_outcome(
                &trial,
                &self.configs,
                a,
                self.scenario.n_videos(),
            )),
            None => f64::NEG_INFINITY,
        };
        let mask = self.mask_vec();
        self.controller.admit(
            &trial,
            &self.configs,
            mask.as_deref(),
            incumbent_before,
            &|o| pref.benefit(o),
            self.extras.len(),
            queue_len,
            rec,
        )
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
    /// affordable or feasible.
    fn budgeted_accept(
        &mut self,
        rec: &dyn Recorder,
        tenant: u64,
        report: &ProbeReport,
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
        self.configs.push(report.newcomer_config);
        self.rebuild_scenario();
        let camera = self.configs.len() - 1;
        match self.repair_or_resolve(rec, ReplanTrigger::Arrival { camera }, budget, rung) {
            Some((a, scope)) => {
                let floor = report.incumbent_before - self.controller.config().max_benefit_drop;
                self.min_floor_margin = self.min_floor_margin.min(report.incumbent_after - floor);
                self.assignment = Some(a);
                Some(scope)
            }
            None => {
                self.extras.pop();
                self.configs.pop();
                self.rebuild_scenario();
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
        let decision = self.admit_probe(rec, ev.tenant, self.queue.len());
        let (outcome, scope) = match decision {
            AdmissionDecision::Accept(report) => {
                match self.budgeted_accept(rec, ev.tenant, &report, budget, rung) {
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
            AdmissionDecision::Queue { .. } => (self.enqueue(ev.tenant, ev.time_s), None),
            AdmissionDecision::Reject { .. } => {
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
        self.rebuild_scenario();
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
            let decision = self.admit_probe(rec, entry.tenant, self.queue.len());
            match decision {
                AdmissionDecision::Accept(report) => {
                    match self.budgeted_accept(rec, entry.tenant, &report, budget, rung) {
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
                AdmissionDecision::Queue { .. } => {
                    self.queue.push_front(entry);
                    break;
                }
                AdmissionDecision::Reject { .. } => {
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
/// timeline whose entire mutable state can be checkpointed
/// ([`ServingSession::snapshot`]) between any two steps and restored
/// ([`ServingSession::restore`]) bit-identically. Every serving run,
/// budgeted or not, is one session.
pub struct ServingSession {
    weights: [f64; N_OBJECTIVES],
    serving: ServingConfig,
    overload: OverloadConfig,
    initial: Scenario,
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
    cursor: SnapshotCursor,
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
            serving.churn_trace(),
            seed,
        )
    }

    /// [`new`](Self::new) with a caller-composed crash plan (whose
    /// server count the caller has checked) in place of the one
    /// `overload.chaos` would derive, and a pre-generated churn trace.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_plan(
        initial: &Scenario,
        drift_step: f64,
        config: &PamoConfig,
        weights: [f64; N_OBJECTIVES],
        serving: &ServingConfig,
        overload: &OverloadConfig,
        plan: Option<&FaultPlan>,
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
            weights,
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
            assignment: None,
            truly_up: vec![true; n_servers],
            belief: vec![true; n_servers],
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
            weights,
            serving: *serving,
            overload: *overload,
            initial: initial.clone(),
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
                SnapshotCursor::Flush
            } else {
                SnapshotCursor::Boundary(0)
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
        self.cursor == SnapshotCursor::Done
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
            SnapshotCursor::Boundary(e) => {
                self.step_boundary(e, rec);
                true
            }
            SnapshotCursor::Window(e) => {
                self.step_window(e, rec);
                true
            }
            SnapshotCursor::Flush => {
                self.step_flush(rec);
                true
            }
            SnapshotCursor::Done => false,
        }
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
        let pref = TruePreference::new(&self.state.scenario, self.weights);
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
                let scenario = &self.state.scenario;
                let planned = self
                    .pamo
                    .decide_surviving_budgeted_recorded(
                        scenario,
                        &pref,
                        mask.as_deref(),
                        &self.budget,
                        &mut self.rng,
                        rec,
                    )
                    .ok()
                    .and_then(|d| {
                        let a = scenario
                            .schedule_surviving(&d.configs, mask.as_deref(), rec)
                            .ok()?;
                        Some((d.configs, a, false))
                    })
                    .or_else(|| {
                        fallback_uniform(scenario, &pref, mask.as_deref(), rec)
                            .map(|(c, a)| (c, a, true))
                    });
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
        let online_benefit = match &self.state.assignment {
            Some(a) => pref.benefit(&subset_outcome(
                &self.state.scenario,
                &self.state.configs,
                a,
                self.state.scenario.n_videos(),
            )),
            None => pref.min_reference() - 1.0,
        };
        self.epochs.push(EpochRecord {
            epoch: e,
            divergence: self.drifting.divergence_from(&self.initial),
            online_benefit,
            static_benefit: None,
            configs: self.state.configs.clone(),
            planning_bps: None,
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
        self.cursor = SnapshotCursor::Window(e);
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
                SnapshotCursor::Boundary(e + 1)
            } else {
                SnapshotCursor::Flush
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
        self.cursor = SnapshotCursor::Done;
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

    /// Checkpoint every piece of mutable state between steps.
    pub fn snapshot(&self) -> ControlPlaneSnapshot {
        let (warm, design) = self.pamo.warm_state();
        let (groups, group_server, stats) = self.state.rescheduler.parts();
        ControlPlaneSnapshot {
            cursor: self.cursor,
            idx: self.idx,
            deferred: self.deferred.clone(),
            rng_state: self.rng.state(),
            drift_clips: self.drifting.clips().to_vec(),
            base_clips: (0..self.state.base.n_videos())
                .map(|i| self.state.base.clip(i).clone())
                .collect(),
            base_uplinks: self.state.base.uplinks().to_vec(),
            warm,
            design,
            extras: self.state.extras.clone(),
            configs: self.state.configs.clone(),
            assignment: self.state.assignment.clone(),
            resch_groups: groups.to_vec(),
            resch_group_server: group_server.to_vec(),
            resch_stats: stats,
            truly_up: self.state.truly_up.clone(),
            belief: self.state.belief.clone(),
            queue_entries: self.state.queue.entries().copied().collect(),
            queue_peak: self.state.queue.peak(),
            queue_shed: self.state.queue.shed_count(),
            zombies: self.state.zombies.iter().copied().collect(),
            events: self.state.events.clone(),
            epochs: self.epochs.clone(),
            accepted: self.state.accepted,
            rejected: self.state.rejected,
            min_floor_margin: self.state.min_floor_margin,
            value_integral: self.state.value_integral,
            seg_start: self.state.seg_start,
            rate: self.state.rate,
            degraded: self.state.degraded,
            pending_batch: self.state.pending_batch,
            budget_limit: self.budget.limit(),
            budget_spent: self.budget.spent(),
            budget_overruns: self.budget.overruns(),
            budget_spent_total: self.budget_spent_total,
            budget_overruns_total: self.budget_overruns_total,
            deadline_hits: self.deadline_hits,
            deadline_misses: self.deadline_misses,
            rung_counts: self.rung_counts,
        }
    }

    /// Rebuild a session from a snapshot plus the original run
    /// parameters (which are deliberately not serialized — a restore
    /// is "restart with the same flags, then load state").
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
        // The seed is irrelevant — the RNG state is overwritten below.
        let mut session =
            ServingSession::new(initial, drift_step, config, weights, serving, overload, 0);
        let base_n = initial.n_videos();
        if snap.drift_clips.len() != base_n || snap.base_clips.len() != base_n {
            return Err(CoreError::Snapshot {
                context: "camera count",
            });
        }
        if snap.truly_up.len() != session.n_servers
            || snap.belief.len() != session.n_servers
            || snap.base_uplinks.len() != session.n_servers
        {
            return Err(CoreError::Snapshot {
                context: "server count",
            });
        }
        if snap.idx > session.timeline.len() {
            return Err(CoreError::Snapshot {
                context: "timeline cursor",
            });
        }
        // Pre-bootstrap snapshots carry no deployed configs at all.
        if !snap.configs.is_empty() && snap.configs.len() != base_n + snap.extras.len() {
            return Err(CoreError::Snapshot {
                context: "config count",
            });
        }
        session.rng = StdRng::from_state(snap.rng_state);
        session.drifting.set_clips(snap.drift_clips);
        session.pamo.restore_warm_state(snap.warm, snap.design);
        session.cursor = snap.cursor;
        session.idx = snap.idx;
        session.deferred = snap.deferred;
        session.epochs = snap.epochs;
        session.budget =
            DecisionBudget::from_parts(snap.budget_limit, snap.budget_spent, snap.budget_overruns);
        session.budget_spent_total = snap.budget_spent_total;
        session.budget_overruns_total = snap.budget_overruns_total;
        session.deadline_hits = snap.deadline_hits;
        session.deadline_misses = snap.deadline_misses;
        session.rung_counts = snap.rung_counts;
        let state = &mut session.state;
        state.base = Scenario::new(
            snap.base_clips,
            snap.base_uplinks,
            initial.config_space().clone(),
        );
        state.extras = snap.extras;
        state.configs = snap.configs;
        state.assignment = snap.assignment;
        state.rescheduler =
            Rescheduler::from_parts(snap.resch_groups, snap.resch_group_server, snap.resch_stats);
        state.truly_up = snap.truly_up;
        state.belief = snap.belief;
        state.queue = RetryQueue::from_parts(
            &serving.admission,
            snap.queue_entries,
            snap.queue_peak,
            snap.queue_shed,
        );
        state.zombies = snap.zombies.into_iter().collect();
        state.events = snap.events;
        state.accepted = snap.accepted;
        state.rejected = snap.rejected;
        state.min_floor_margin = snap.min_floor_margin;
        state.value_integral = snap.value_integral;
        state.seg_start = snap.seg_start;
        state.rate = snap.rate;
        state.degraded = snap.degraded;
        state.pending_batch = snap.pending_batch;
        state.rebuild_scenario();
        Ok(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pamo::PreferenceSource;
    use eva_bo::{AcqKind, BoConfig};
    use eva_fault::{ControlStragglers, CrashBursts, LinkCollapse};
    use eva_obs::NoopRecorder;
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
}
