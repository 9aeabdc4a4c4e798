//! Property tests for the serving substrates: admission never lets an
//! infeasible placement through, departures only ever free capacity,
//! and the retry queue's bound/drain/shed discipline holds under any
//! operation sequence.

use eva_obs::{FlightRecorder, NoopRecorder};
use eva_sched::const2_zero_jitter_ok;
use eva_serve::{
    AdmissionConfig, AdmissionController, AdmissionDecision, ProbeReport, ReplanScope,
    ReplanTrigger, Rescheduler, RetryQueue,
};
use eva_workload::{Cameras, ClipProfile, Outcome, Scenario, VideoConfig};
use proptest::prelude::*;

/// A benefit function that prefers accurate, fast outcomes — any
/// monotone scorer works for these properties.
fn toy_benefit(o: &Outcome) -> f64 {
    o.accuracy - o.latency_s - 1e-9 * o.network_bps - 0.01 * o.power_w
}

/// A benefit that grows with load, so the best probe candidate is the
/// heaviest one Algorithm 1 can place: the candidates nearest the
/// capacity bound decide the probe.
fn greedy_benefit(o: &Outcome) -> f64 {
    o.compute_tflops
}

/// Incumbent configurations drawn from the low-load end of the grid so
/// the starting system is schedulable most of the time.
fn configs_strategy(n: usize, grid: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..grid.min(12), n..=n)
}

/// The admission probe as a plain scan: every grid candidate goes
/// through `evaluate_surviving`, with no capacity pre-filter. Returns
/// the accepted report, or the reason a caller with an empty queue
/// gets the tenant queued, and the number of unplaceable candidates.
fn reference_probe(
    trial: &Scenario,
    incumbent_configs: &[VideoConfig],
    alive: Option<&[bool]>,
    incumbent_before: f64,
    benefit: fn(&Outcome) -> f64,
    cfg: &AdmissionConfig,
) -> (Result<ProbeReport, &'static str>, u64) {
    let m = incumbent_configs.len();
    let mut configs = incumbent_configs.to_vec();
    configs.push(trial.config_space().at(0));
    let mut best: Option<ProbeReport> = None;
    let mut unplaceable = 0;
    for cand in trial.config_space().iter() {
        configs[m] = cand;
        let Ok(out) = trial.evaluate_surviving(&configs, alive, &NoopRecorder) else {
            unplaceable += 1;
            continue;
        };
        let total = benefit(&out.outcome);
        if total.is_finite() && best.as_ref().is_none_or(|b| total > b.total_benefit) {
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
    let decision = match best {
        None => Err("no feasible placement"),
        Some(r) if r.incumbent_after >= incumbent_before - cfg.max_benefit_drop => Ok(r),
        Some(_) => Err("incumbent benefit floor"),
    };
    (decision, unplaceable)
}

/// `admit` decides exactly as [`reference_probe`] and skips only
/// unplaceable candidates; returns how many it skipped.
fn assert_probe_matches_reference(
    trial: &Scenario,
    incumbent_configs: &[VideoConfig],
    alive: Option<&[bool]>,
    incumbent_before: f64,
    benefit: fn(&Outcome) -> f64,
) -> u64 {
    let cfg = AdmissionConfig::default();
    let rec = FlightRecorder::new();
    let decision = AdmissionController::new(cfg).admit(
        trial,
        incumbent_configs,
        alive,
        incumbent_before,
        &benefit,
        incumbent_configs.len(),
        0,
        &rec,
    );
    let (want, unplaceable) = reference_probe(
        trial,
        incumbent_configs,
        alive,
        incumbent_before,
        benefit,
        &cfg,
    );
    match (decision, want) {
        (AdmissionDecision::Accept(got), Ok(want)) => {
            assert_eq!(got.newcomer_config, want.newcomer_config);
            assert_eq!(got.assignment, want.assignment);
            for (g, w) in [
                (got.incumbent_before, want.incumbent_before),
                (got.incumbent_after, want.incumbent_after),
                (got.total_benefit, want.total_benefit),
            ] {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
        (AdmissionDecision::Queue { reason }, Err(want)) => assert_eq!(reason, want),
        (got, want) => panic!("admit decided {got:?}, the full scan {want:?}"),
    }
    let skipped = rec.snapshot().metrics.counter("serve.admission_skipped");
    assert!(
        skipped <= unplaceable,
        "{skipped} skipped, {unplaceable} unplaceable"
    );
    skipped
}

/// Three incumbents at utilisation 0.55 each overfill one server, so
/// every candidate is over capacity; on three servers only the
/// candidates above utilisation 1.35 are.
#[test]
fn over_capacity_candidates_are_skipped_with_the_same_decision() {
    let trial = Scenario::uniform(4, 3, 20e6, 7);
    let grid = trial.config_space();
    let heavy = vec![grid.at(22); 3];
    let u = trial.stream_timing(0, &heavy[0]).utilization();
    assert!((0.5..0.6).contains(&u), "{u}");
    let one_alive = [true, false, false];
    for benefit in [toy_benefit, greedy_benefit] {
        let probe = |alive| {
            assert_probe_matches_reference(&trial, &heavy, alive, f64::NEG_INFINITY, benefit)
        };
        assert_eq!(probe(Some(&one_alive)), grid.len() as u64);
        let skipped = probe(None);
        assert!(skipped > 0 && skipped < grid.len() as u64, "{skipped}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The capacity pre-filter never changes a probe: over the whole
    /// grid of incumbent configs, every liveness mask (all-dead
    /// included), one to three servers and a benefit that favours the
    /// heaviest placeable candidate, `admit` returns the decision of
    /// the unfiltered scan, down to the benefit bits.
    #[test]
    fn admission_probe_equals_full_scan(
        n_inc in 0usize..=3,
        n_servers in 1usize..=3,
        seed in 0u64..500,
        cfg_idx in proptest::collection::vec(0usize..72, 3..=3),
        alive_bits in 0usize..9,
        floored in 0u8..2,
        greedy in 0u8..2,
    ) {
        let trial = Scenario::uniform(n_inc + 1, n_servers, 20e6, seed);
        let grid = trial.config_space();
        let incumbent_configs: Vec<VideoConfig> =
            cfg_idx[..n_inc].iter().map(|&i| grid.at(i % grid.len())).collect();
        // Mask 8 stands for "no mask".
        let alive: Option<Vec<bool>> = (alive_bits < 8)
            .then(|| (0..n_servers).map(|s| alive_bits >> s & 1 == 1).collect());
        let before = if floored == 1 { 0.5 } else { f64::NEG_INFINITY };
        let benefit = if greedy == 1 { greedy_benefit } else { toy_benefit };
        assert_probe_matches_reference(
            &trial,
            &incumbent_configs,
            alive.as_deref(),
            before,
            benefit,
        );
    }

    /// If admission accepts, the probe placement it reports is a
    /// genuine zero-jitter placement: every group satisfies Const2,
    /// groups sit on distinct live servers, and every post-split
    /// stream of every camera (incumbents + newcomer) is placed.
    #[test]
    fn accept_implies_zero_jitter_feasible_placement(
        n_inc in 1usize..=3,
        n_servers in 1usize..=3,
        seed in 0u64..500,
        cfg_idx in configs_strategy(3, 72),
        alive_bits in 0usize..8,
    ) {
        // `trial` holds incumbents as cameras 0..n_inc and the newcomer
        // as camera n_inc.
        let trial = Scenario::uniform(n_inc + 1, n_servers, 20e6, seed);
        let mut alive: Vec<bool> = (0..n_servers).map(|s| alive_bits >> s & 1 == 1).collect();
        if alive.iter().all(|&b| !b) {
            alive[0] = true; // at least one survivor
        }
        let incumbent_configs: Vec<VideoConfig> = cfg_idx[..n_inc]
            .iter()
            .map(|&i| trial.config_space().at(i))
            .collect();
        let ctl = AdmissionController::new(AdmissionConfig::default());
        // NEG_INFINITY baseline disables the floor, maximizing Accept
        // coverage — this property is about feasibility, not the floor.
        let decision = ctl.admit(
            &trial,
            &incumbent_configs,
            Some(&alive),
            f64::NEG_INFINITY,
            &toy_benefit,
            n_inc,
            0,
            &NoopRecorder,
        );
        if let AdmissionDecision::Accept(report) = decision {
            let mut configs = incumbent_configs.clone();
            configs.push(report.newcomer_config);
            let a = &report.assignment;
            // Every camera's streams are placed.
            let mut sources: Vec<usize> = a.streams.iter().map(|s| s.id.source).collect();
            sources.sort_unstable();
            sources.dedup();
            prop_assert_eq!(sources.len(), n_inc + 1, "some camera unplaced");
            // Groups: Const2 per group, distinct live servers.
            let mut seen = std::collections::HashSet::new();
            for (g, &server) in a.groups.iter().zip(&a.group_server) {
                prop_assert!(server < n_servers);
                prop_assert!(alive[server], "group placed on a dead server");
                prop_assert!(seen.insert(server), "two groups share a server");
                let members: Vec<_> = g.iter().map(|&i| a.streams[i]).collect();
                prop_assert!(
                    const2_zero_jitter_ok(&members),
                    "accepted placement violates Const2"
                );
            }
        }
    }

    /// Departures monotonically free capacity: after each departure the
    /// total utilization (sum of proc/period) weakly decreases, the
    /// placement stays zero-jitter feasible, and an incremental repair
    /// never grows the set of occupied servers.
    #[test]
    fn departures_monotonically_free_capacity(
        n in 2usize..=4,
        n_servers in 2usize..=3,
        seed in 0u64..500,
        cfg_idx in configs_strategy(4, 72),
    ) {
        let base = Scenario::uniform(n, n_servers, 20e6, seed);
        let mut configs: Vec<VideoConfig> = cfg_idx[..n]
            .iter()
            .map(|&i| base.config_space().at(i))
            .collect();
        // Vacuous when the starting system is unschedulable.
        prop_assume!(base.schedule(&configs).is_ok());
        let a0 = base.schedule(&configs).expect("just checked");
        let mut clips: Vec<ClipProfile> =
            (0..n).map(|i| base.clip(i).clone()).collect();
        let mut resched = Rescheduler::new();
        resched.install(&a0);
        let util = |a: &eva_sched::Assignment| -> f64 {
            a.streams.iter().map(|s| s.proc as f64 / s.period as f64).sum()
        };
        let occupied = |a: &eva_sched::Assignment| a.group_server.len();
        let mut prev_util = util(&a0);
        let mut prev_occupied = occupied(&a0);
        // Depart the last camera repeatedly until one remains.
        while clips.len() > 1 {
            let camera = clips.len() - 1;
            clips.pop();
            configs.pop();
            let scenario = Scenario::new(
                clips.clone(),
                base.uplinks().to_vec(),
                base.config_space().clone(),
            );
            let (a, scope) = resched
                .replan(
                    &scenario,
                    &configs,
                    None,
                    ReplanTrigger::Departure { camera },
                    &NoopRecorder,
                )
                .expect("removing load cannot make a feasible system infeasible");
            let u = util(&a);
            prop_assert!(
                u <= prev_util + 1e-12,
                "departure increased utilization: {} -> {}",
                prev_util,
                u
            );
            for (g, _) in a.groups.iter().zip(&a.group_server) {
                let members: Vec<_> = g.iter().map(|&i| a.streams[i]).collect();
                prop_assert!(const2_zero_jitter_ok(&members));
            }
            if matches!(scope, ReplanScope::Incremental { .. }) {
                prop_assert!(
                    occupied(&a) <= prev_occupied,
                    "incremental departure repair grew the server footprint"
                );
            }
            prev_util = u;
            prev_occupied = occupied(&a);
        }
    }

    /// The retry queue under an arbitrary operation sequence: the
    /// depth never exceeds `queue_capacity`, pops (departures /
    /// restores draining it) are monotone FIFO, and both shedding
    /// paths (age expiry, high-water eviction) evict oldest-first.
    #[test]
    fn retry_queue_bound_drain_and_oldest_first_shedding(
        capacity in 1usize..=6,
        high_water in 0usize..=6,
        max_age in 1u32..=20,
        ops in proptest::collection::vec((0u8..=3, 0u64..32), 1..60),
    ) {
        let cfg = AdmissionConfig {
            queue_capacity: capacity,
            max_queue_age_s: max_age as f64,
            high_water,
            ..AdmissionConfig::default()
        };
        let mut q = RetryQueue::new(&cfg);
        let mut now = 0.0f64;
        let mut model: Vec<(u64, f64)> = Vec::new(); // (tenant, enqueued_at)
        for (op, tenant) in ops {
            now += 1.0; // monotone clock, one tick per op
            match op {
                0 => {
                    // Arrival tries to queue.
                    let pushed = q.try_push(tenant, now);
                    prop_assert_eq!(pushed, model.len() < capacity,
                        "push must succeed iff below capacity");
                    if pushed {
                        model.push((tenant, now));
                    }
                }
                1 => {
                    // Capacity freed: drain the oldest waiter.
                    let popped = q.pop_front();
                    prop_assert_eq!(popped.map(|e| e.tenant),
                        model.first().map(|&(t, _)| t),
                        "drain must be FIFO (oldest first)");
                    if !model.is_empty() {
                        model.remove(0);
                    }
                }
                2 => {
                    // Age shedding at the current clock.
                    let shed = q.expire(now);
                    let expected: Vec<u64> = model
                        .iter()
                        .take_while(|&&(_, at)| now - at > max_age as f64)
                        .map(|&(t, _)| t)
                        .collect();
                    prop_assert_eq!(
                        shed.iter().map(|e| e.tenant).collect::<Vec<_>>(),
                        expected,
                        "age shedding must evict exactly the over-age prefix"
                    );
                    model.drain(..shed.len());
                }
                _ => {
                    // High-water eviction.
                    let shed = q.shed_to_high_water();
                    let excess = model.len().saturating_sub(high_water);
                    let expected: Vec<u64> =
                        model[..excess].iter().map(|&(t, _)| t).collect();
                    prop_assert_eq!(
                        shed.iter().map(|e| e.tenant).collect::<Vec<_>>(),
                        expected,
                        "high-water shedding must evict the oldest excess"
                    );
                    model.drain(..excess);
                    prop_assert!(q.len() <= high_water.min(capacity));
                }
            }
            // Invariants after every operation.
            prop_assert!(q.len() <= capacity, "queue exceeded its bound");
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(
                q.entries().map(|e| e.tenant).collect::<Vec<_>>(),
                model.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
                "queue order diverged from FIFO model"
            );
            prop_assert_eq!(q.under_pressure(), q.len() >= high_water);
        }
    }
}
