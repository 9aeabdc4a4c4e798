//! Event-driven rescheduling with incremental row repair.
//!
//! Arrival, departure, server failure and server restore are treated
//! uniformly as *replan triggers*. The [`Rescheduler`] keeps the live
//! placement as materialized zero-jitter groups (one group per server —
//! the rank pairing assigns distinct servers, so a "row" of the
//! assignment is exactly one group) and repairs only the rows an event
//! perturbs:
//!
//! * **departure** — drop the tenant's streams from their groups; the
//!   Theorem-3 budget only loosens, so the repaired rows stay feasible,
//! * **arrival** — pack the newcomer's (split) streams into existing
//!   groups under the Theorem-3 admission check, or open a new group on
//!   a free surviving server,
//! * **failure** — rehome the dead server's group onto a free survivor,
//!   or distribute its members into the surviving groups,
//! * **restore** — nothing to move (the placement is still feasible);
//!   the freed capacity is simply available to the next repair.
//!
//! Every repair is verified against the full zero-jitter feasibility
//! predicate before being adopted; when repair fails (or drifts from
//! the scenario's stream set), the rescheduler falls back to a full
//! survivor-restricted Algorithm 1 re-solve. Incremental repairs
//! rank-pair only the rows they touched, so they trade a little
//! communication-latency optimality for reaction time — the epoch
//! boundary's full re-optimization wins it back.

use eva_obs::{span, Phase, Recorder};
use eva_sched::theory::theorem3_group_ok;
use eva_sched::{
    const2_zero_jitter_ok, rank_pair, split_high_rate, Assignment, GroupingError, StreamId,
    StreamTiming, Ticks,
};
use eva_workload::{Scenario, VideoConfig};

/// What perturbed the placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanTrigger {
    /// Camera `camera` (index in the *post-arrival* scenario) joined.
    Arrival {
        /// Index of the newcomer in the current scenario.
        camera: usize,
    },
    /// Camera `camera` (index in the *pre-departure* scenario) left;
    /// later cameras shift down by one.
    Departure {
        /// Index of the leaver in the previous scenario.
        camera: usize,
    },
    /// Server `server` went down.
    ServerFailure {
        /// Index of the failed server.
        server: usize,
    },
    /// Server `server` came back.
    ServerRestore {
        /// Index of the restored server.
        server: usize,
    },
}

/// The check a repaired placement failed in [`Rescheduler`]'s
/// verification, which then rolls the repair back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VerifyError {
    /// Two groups sit on one server.
    SharedServer,
    /// A group sits on a server out of range or not alive.
    DeadServer,
    /// A group fails Const2's zero-jitter condition.
    Const2,
    /// The placed streams are not the scenario's post-split stream set.
    StreamSet,
}

impl VerifyError {
    /// The counter a rejected repair adds to: `serve.repair_rejected_*`.
    fn counter(self) -> &'static str {
        match self {
            VerifyError::SharedServer => "serve.repair_rejected_shared_server",
            VerifyError::DeadServer => "serve.repair_rejected_dead_server",
            VerifyError::Const2 => "serve.repair_rejected_const2",
            VerifyError::StreamSet => "serve.repair_rejected_stream_set",
        }
    }
}

/// How much of the assignment a replan had to re-solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplanScope {
    /// Row repair succeeded; only `rows_resolved` groups were touched.
    Incremental {
        /// Number of assignment rows (groups) modified or created.
        rows_resolved: usize,
    },
    /// Full Algorithm 1 re-solve.
    Full,
}

/// Running totals of replan scopes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplanStats {
    /// Replans resolved by row repair.
    pub incremental: u64,
    /// Replans that needed a full re-solve.
    pub full: u64,
    /// Coalesced batch repairs (one full re-solve absorbing a burst of
    /// triggers while the retry queue is above its high-water mark).
    pub coalesced: u64,
}

/// The live placement plus the repair machinery.
#[derive(Debug, Clone, Default)]
pub struct Rescheduler {
    /// Materialized groups (post-split stream timings).
    groups: Vec<Vec<StreamTiming>>,
    /// Server hosting each group (parallel to `groups`; distinct).
    group_server: Vec<usize>,
    stats: ReplanStats,
}

impl Rescheduler {
    /// Start with no placement installed.
    pub fn new() -> Self {
        Rescheduler::default()
    }

    /// Adopt a full placement (e.g. the epoch boundary's optimized one).
    pub fn install(&mut self, a: &Assignment) {
        self.groups = a
            .groups
            .iter()
            .map(|g| g.iter().map(|&i| a.streams[i]).collect())
            .collect();
        self.group_server = a.group_server.clone();
    }

    /// Replan totals since construction.
    pub fn stats(&self) -> ReplanStats {
        self.stats
    }

    /// React to one event. `scenario` / `configs` describe the world
    /// *after* the event (the departed camera removed, the arrived one
    /// appended); `alive` is the post-event server liveness. Attempts a
    /// row repair ([`replan_limited`](Self::replan_limited)) and falls
    /// back to a full survivor-restricted re-solve
    /// ([`replan_full`](Self::replan_full)) when repair fails. On `Err`
    /// the internal placement is left unchanged (and stale) — callers
    /// degrade exactly as they would on an epoch-boundary failure.
    pub fn replan(
        &mut self,
        scenario: &Scenario,
        configs: &[VideoConfig],
        alive: Option<&[bool]>,
        trigger: ReplanTrigger,
        rec: &dyn Recorder,
    ) -> Result<(Assignment, ReplanScope), GroupingError> {
        match self.replan_limited(scenario, configs, alive, trigger, rec) {
            Some(ok) => Ok(ok),
            None => self.replan_full(scenario, configs, alive, rec),
        }
    }

    /// The repair step of [`replan`](Self::replan), without the full
    /// re-solve: the incremental row repair is verified against the
    /// zero-jitter predicate and the scenario's stream set, and either
    /// succeeds or the placement is left unchanged and `None` is
    /// returned. Counts the trigger once. The budgeted control plane
    /// calls [`replan_full`](Self::replan_full) itself when its rung
    /// affords the fallback; on `None` alone the caller keeps serving
    /// the stale plan.
    pub fn replan_limited(
        &mut self,
        scenario: &Scenario,
        configs: &[VideoConfig],
        alive: Option<&[bool]>,
        trigger: ReplanTrigger,
        rec: &dyn Recorder,
    ) -> Option<(Assignment, ReplanScope)> {
        let _replan = span(rec, Phase::Replan);
        self.count_trigger(trigger, rec);
        self.try_repair(scenario, configs, alive, trigger, rec)
    }

    /// The fallback step of [`replan`](Self::replan): a full
    /// survivor-restricted Algorithm 1 re-solve, for a
    /// trigger that [`replan_limited`](Self::replan_limited) already
    /// counted and failed to repair. On `Err` the internal placement is
    /// left unchanged (stale).
    pub fn replan_full(
        &mut self,
        scenario: &Scenario,
        configs: &[VideoConfig],
        alive: Option<&[bool]>,
        rec: &dyn Recorder,
    ) -> Result<(Assignment, ReplanScope), GroupingError> {
        let _replan = span(rec, Phase::Replan);
        let a = scenario.schedule_surviving(configs, alive, rec)?;
        self.install(&a);
        self.stats.full += 1;
        if rec.enabled() {
            rec.add("serve.replan_full", 1);
        }
        Ok((a, ReplanScope::Full))
    }

    /// One full re-solve absorbing a whole burst of `batched` pending
    /// triggers — the high-water-mark alternative to per-event replans.
    /// On `Err` the internal placement is left unchanged (stale).
    pub fn replan_coalesced(
        &mut self,
        scenario: &Scenario,
        configs: &[VideoConfig],
        alive: Option<&[bool]>,
        batched: u64,
        rec: &dyn Recorder,
    ) -> Result<Assignment, GroupingError> {
        let _replan = span(rec, Phase::Replan);
        if rec.enabled() {
            rec.add("serve.replans", 1);
            rec.add("serve.replan_coalesced", 1);
            rec.add("serve.replan_coalesced_triggers", batched);
        }
        let a = scenario.schedule_surviving(configs, alive, rec)?;
        self.install(&a);
        self.stats.coalesced += 1;
        Ok(a)
    }

    fn count_trigger(&self, trigger: ReplanTrigger, rec: &dyn Recorder) {
        if rec.enabled() {
            rec.add("serve.replans", 1);
            match trigger {
                ReplanTrigger::Arrival { .. } => rec.add("serve.replan_arrivals", 1),
                ReplanTrigger::Departure { .. } => rec.add("serve.replan_departures", 1),
                ReplanTrigger::ServerFailure { .. } => rec.add("serve.replan_failures", 1),
                ReplanTrigger::ServerRestore { .. } => rec.add("serve.replan_restores", 1),
            }
        }
    }

    /// The incremental repair path of
    /// [`replan_limited`](Self::replan_limited): repair, verify,
    /// reprice. Rolls the placement back and returns `None` when the
    /// repair fails or verification rejects it.
    fn try_repair(
        &mut self,
        scenario: &Scenario,
        configs: &[VideoConfig],
        alive: Option<&[bool]>,
        trigger: ReplanTrigger,
        rec: &dyn Recorder,
    ) -> Option<(Assignment, ReplanScope)> {
        let saved = (self.groups.clone(), self.group_server.clone());
        let repaired = match trigger {
            ReplanTrigger::Arrival { camera } => {
                self.repair_arrival(scenario, configs, alive, camera)
            }
            ReplanTrigger::Departure { camera } => Some(self.repair_departure(camera)),
            ReplanTrigger::ServerFailure { server } => self.repair_failure(scenario, server, alive),
            ReplanTrigger::ServerRestore { .. } => Some((0, Vec::new())),
        };
        if let Some((rows, touched)) = repaired {
            let verified = self.verify(scenario, configs, alive);
            if let Err(rejected) = verified {
                if rec.enabled() {
                    rec.add(rejected.counter(), 1);
                }
            }
            if verified.is_ok() {
                if !touched.is_empty() {
                    // Re-place only the rows the repair touched (their
                    // costs changed), recovering communication latency
                    // the greedy repair left on the table. A
                    // zero-touched repair (restore) changes nothing.
                    self.reprice(scenario, configs, alive, &touched, rec);
                    debug_assert_eq!(self.verify(scenario, configs, alive), Ok(()));
                }
                self.stats.incremental += 1;
                if rec.enabled() {
                    rec.add("serve.replan_incremental", 1);
                    rec.observe("serve.replan_rows", rows as f64);
                }
                return Some((
                    self.assignment(scenario, configs),
                    ReplanScope::Incremental {
                        rows_resolved: rows,
                    },
                ));
            }
        }
        (self.groups, self.group_server) = saved;
        None
    }

    /// The newcomer's split streams, packed greedily. Returns the
    /// repaired row count plus the touched group indices.
    fn repair_arrival(
        &mut self,
        scenario: &Scenario,
        configs: &[VideoConfig],
        alive: Option<&[bool]>,
        camera: usize,
    ) -> Option<(usize, Vec<usize>)> {
        if camera >= configs.len() {
            return None;
        }
        // The newcomer must not already be placed.
        if self.groups.iter().flatten().any(|s| s.id.source == camera) {
            return None;
        }
        let c = &configs[camera];
        let timing = StreamTiming::from_rate(
            StreamId::source(camera),
            c.fps,
            scenario.surfaces(camera).proc_time_secs(c.resolution),
        );
        let parts = split_high_rate(std::slice::from_ref(&timing));
        let uplinks = scenario.planning_uplinks();
        let mut touched: Vec<usize> = Vec::new();
        for part in parts {
            // Candidate existing groups that accept the part, best
            // (fastest planning uplink) first.
            let mut host: Option<usize> = None;
            for (g, members) in self.groups.iter().enumerate() {
                let mut trial: Vec<StreamTiming> = members.clone();
                trial.push(part);
                if theorem3_group_ok(&trial)
                    && host.is_none_or(|h| {
                        uplinks[self.group_server[g]] > uplinks[self.group_server[h]]
                    })
                {
                    host = Some(g);
                }
            }
            if let Some(g) = host {
                self.groups[g].push(part);
                touched.push(g);
                continue;
            }
            // No group accepts: open a new one on the fastest free
            // surviving server.
            let Some(server) = self.best_free_server_excluding(scenario, alive, usize::MAX) else {
                return None; // rolled back by the caller
            };
            self.groups.push(vec![part]);
            self.group_server.push(server);
            touched.push(self.groups.len() - 1);
        }
        touched.sort_unstable();
        touched.dedup();
        Some((touched.len(), touched))
    }

    /// Remove a departed camera's streams and renumber later sources.
    /// Returns the repaired row count (groups that lost members, as
    /// reported in [`ReplanScope`]) plus the surviving touched indices.
    fn repair_departure(&mut self, camera: usize) -> (usize, Vec<usize>) {
        let mut rows = 0usize;
        let mut touched_flag: Vec<bool> = Vec::with_capacity(self.groups.len());
        for g in &mut self.groups {
            let before = g.len();
            g.retain(|s| s.id.source != camera);
            touched_flag.push(g.len() != before);
            if g.len() != before {
                rows += 1;
            }
            for s in g.iter_mut() {
                if s.id.source > camera {
                    s.id.source -= 1;
                }
            }
        }
        // Drop emptied groups (and their server slots), remapping the
        // touched indices onto the compacted group list.
        let old_groups = std::mem::take(&mut self.groups);
        let old_servers = std::mem::take(&mut self.group_server);
        let mut touched = Vec::new();
        for ((g, flag), server) in old_groups.into_iter().zip(touched_flag).zip(old_servers) {
            if g.is_empty() {
                continue;
            }
            if flag {
                touched.push(self.groups.len());
            }
            self.groups.push(g);
            self.group_server.push(server);
        }
        (rows, touched)
    }

    /// Rehome or dissolve the failed server's group. Returns the
    /// repaired row count plus the touched group indices.
    fn repair_failure(
        &mut self,
        scenario: &Scenario,
        server: usize,
        alive: Option<&[bool]>,
    ) -> Option<(usize, Vec<usize>)> {
        let orphans: Vec<usize> = (0..self.groups.len())
            .filter(|&g| self.group_server[g] == server)
            .collect();
        if orphans.is_empty() {
            return Some((0, Vec::new()));
        }
        let mut touched = 0usize;
        let mut touched_idx: Vec<usize> = Vec::new();
        // Algorithm 1 gives one group per server, but handle any count.
        for &g in orphans.iter().rev() {
            if let Some(free) = self.best_free_server_excluding(scenario, alive, server) {
                self.group_server[g] = free;
                touched += 1;
                touched_idx.push(g);
                continue;
            }
            // No free survivor: distribute the members into other groups.
            let members = self.groups[g].clone();
            let mut placed: Vec<(usize, StreamTiming)> = Vec::new();
            let mut ok = true;
            for &m in &members {
                let mut host: Option<usize> = None;
                for (h, hg) in self.groups.iter().enumerate() {
                    if h == g || self.group_server[h] == server {
                        continue;
                    }
                    if !is_alive(alive, self.group_server[h]) {
                        continue;
                    }
                    let mut trial: Vec<StreamTiming> = hg.clone();
                    trial.extend(placed.iter().filter(|&&(ph, _)| ph == h).map(|&(_, s)| s));
                    trial.push(m);
                    if theorem3_group_ok(&trial) {
                        host = Some(h);
                        break;
                    }
                }
                match host {
                    Some(h) => placed.push((h, m)),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                return None; // rolled back by the caller
            }
            for (h, s) in placed {
                self.groups[h].push(s);
                touched += 1;
                touched_idx.push(h);
            }
            self.groups.remove(g);
            self.group_server.remove(g);
            touched += 1;
            // The removal shifts every later group down by one.
            for t in &mut touched_idx {
                if *t > g {
                    *t -= 1;
                }
            }
        }
        touched_idx.sort_unstable();
        touched_idx.dedup();
        Some((touched, touched_idx))
    }

    /// Re-place only the `touched` assignment rows by [`rank_pair`].
    /// Their candidates are their own servers plus every free survivor;
    /// untouched rows stay put. The touched rows' current servers are
    /// candidates, so their total latency never rises.
    fn reprice(
        &mut self,
        scenario: &Scenario,
        configs: &[VideoConfig],
        alive: Option<&[bool]>,
        touched: &[usize],
        rec: &dyn Recorder,
    ) {
        let bits: Vec<f64> = touched
            .iter()
            .map(|&g| {
                self.groups[g]
                    .iter()
                    .map(|s| {
                        scenario
                            .surfaces(s.id.source)
                            .bits_per_frame(configs[s.id.source].resolution)
                    })
                    .sum()
            })
            .collect();
        let mut candidates: Vec<usize> = touched.iter().map(|&g| self.group_server[g]).collect();
        candidates.extend(
            (0..scenario.n_servers())
                .filter(|&j| is_alive(alive, j) && !self.group_server.contains(&j)),
        );
        let servers = rank_pair(&bits, &candidates, scenario.planning_uplinks());
        let mut moves = 0u64;
        for (&g, &j) in touched.iter().zip(&servers) {
            if self.group_server[g] != j {
                self.group_server[g] = j;
                moves += 1;
            }
        }
        if rec.enabled() {
            rec.add("serve.reprice_runs", 1);
            if moves > 0 {
                rec.add("serve.reprice_moves", moves);
            }
        }
    }

    /// Fastest (planning-uplink) surviving server hosting no group,
    /// other than `exclude`.
    fn best_free_server_excluding(
        &self,
        scenario: &Scenario,
        alive: Option<&[bool]>,
        exclude: usize,
    ) -> Option<usize> {
        let uplinks = scenario.planning_uplinks();
        (0..scenario.n_servers())
            .filter(|&j| j != exclude && is_alive(alive, j))
            .filter(|&j| !self.group_server.contains(&j))
            .max_by(|&a, &b| uplinks[a].total_cmp(&uplinks[b]))
    }

    /// Full zero-jitter validity of the current placement against the
    /// scenario's (post-split) stream set, or the first check it fails.
    fn verify(
        &self,
        scenario: &Scenario,
        configs: &[VideoConfig],
        alive: Option<&[bool]>,
    ) -> Result<(), VerifyError> {
        // Servers: distinct and alive.
        let mut servers = self.group_server.clone();
        servers.sort_unstable();
        let n = servers.len();
        servers.dedup();
        if servers.len() != n {
            return Err(VerifyError::SharedServer);
        }
        if !self
            .group_server
            .iter()
            .all(|&j| j < scenario.n_servers() && is_alive(alive, j))
        {
            return Err(VerifyError::DeadServer);
        }
        // Every group zero-jitter feasible (Const2, not just Theorem 3 —
        // repairs only ever add under Theorem 3, but installed plans may
        // use the weaker predicate's full slack).
        if !self.groups.iter().all(|g| const2_zero_jitter_ok(g)) {
            return Err(VerifyError::Const2);
        }
        // The placed stream multiset matches the scenario's exactly.
        let mut placed: Vec<(StreamId, Ticks, Ticks)> = self
            .groups
            .iter()
            .flatten()
            .map(|s| (s.id, s.period, s.proc))
            .collect();
        let mut expected: Vec<(StreamId, Ticks, Ticks)> =
            split_high_rate(&scenario.stream_timings(configs))
                .iter()
                .map(|s| (s.id, s.period, s.proc))
                .collect();
        placed.sort_unstable();
        expected.sort_unstable();
        if placed != expected {
            return Err(VerifyError::StreamSet);
        }
        Ok(())
    }

    /// Materialize the current placement as an [`Assignment`]
    /// (group-major stream order; communication latency priced on the
    /// planning uplinks, like Algorithm 1's line-20 objective).
    fn assignment(&self, scenario: &Scenario, configs: &[VideoConfig]) -> Assignment {
        let uplinks = scenario.planning_uplinks();
        let mut streams = Vec::new();
        let mut server_of = Vec::new();
        let mut groups = Vec::new();
        let mut total_comm_latency = 0.0;
        for (g, members) in self.groups.iter().enumerate() {
            let server = self.group_server[g];
            let mut idxs = Vec::with_capacity(members.len());
            for &s in members {
                idxs.push(streams.len());
                streams.push(s);
                server_of.push(server);
                total_comm_latency += scenario
                    .surfaces(s.id.source)
                    .bits_per_frame(configs[s.id.source].resolution)
                    / uplinks[server];
            }
            groups.push(idxs);
        }
        Assignment {
            streams,
            server_of,
            groups,
            group_server: self.group_server.clone(),
            total_comm_latency,
        }
    }
}

fn is_alive(alive: Option<&[bool]>, server: usize) -> bool {
    alive.is_none_or(|a| a.get(server).copied().unwrap_or(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eva_obs::NoopRecorder;

    fn scenario(n_videos: usize, n_servers: usize) -> Scenario {
        Scenario::uniform(n_videos, n_servers, 20e6, 23)
    }

    fn low(n: usize) -> Vec<VideoConfig> {
        vec![VideoConfig::new(480.0, 5.0); n]
    }

    fn installed(sc: &Scenario, configs: &[VideoConfig]) -> Rescheduler {
        let a = sc.schedule(configs).expect("base placement feasible");
        let mut r = Rescheduler::new();
        r.install(&a);
        r
    }

    #[test]
    fn departure_is_repaired_incrementally() {
        let sc5 = scenario(5, 3);
        let cfgs5 = low(5);
        let mut r = installed(&sc5, &cfgs5);
        // Camera 2 departs: post-event world has cameras 0,1,3,4 of the
        // old world renumbered to 0..4.
        let sc4 = Scenario::new(
            [0usize, 1, 3, 4]
                .iter()
                .map(|&i| sc5.clip(i).clone())
                .collect(),
            sc5.uplinks().to_vec(),
            sc5.config_space().clone(),
        );
        let (a, scope) = r
            .replan(
                &sc4,
                &low(4),
                None,
                ReplanTrigger::Departure { camera: 2 },
                &NoopRecorder,
            )
            .expect("departure repair");
        assert!(
            matches!(scope, ReplanScope::Incremental { .. }),
            "{scope:?}"
        );
        let sources: std::collections::HashSet<usize> =
            a.streams.iter().map(|s| s.id.source).collect();
        assert_eq!(sources, (0..4).collect());
        assert_eq!(r.stats().incremental, 1);
    }

    #[test]
    fn arrival_is_repaired_incrementally_with_capacity() {
        let sc3 = scenario(3, 4);
        let mut r = installed(&sc3, &low(3));
        // A fourth camera arrives (same clip family, appended).
        let mut clips: Vec<_> = (0..3).map(|i| sc3.clip(i).clone()).collect();
        clips.push(sc3.clip(0).clone());
        let sc4 = Scenario::new(clips, sc3.uplinks().to_vec(), sc3.config_space().clone());
        let (a, scope) = r
            .replan(
                &sc4,
                &low(4),
                None,
                ReplanTrigger::Arrival { camera: 3 },
                &NoopRecorder,
            )
            .expect("arrival repair");
        assert!(
            matches!(scope, ReplanScope::Incremental { .. }),
            "{scope:?}"
        );
        assert!(a.streams.iter().any(|s| s.id.source == 3));
        // Every server set stays zero-jitter feasible.
        for server in 0..sc4.n_servers() {
            let members: Vec<StreamTiming> = a
                .streams_on(server)
                .into_iter()
                .map(|i| a.streams[i])
                .collect();
            assert!(const2_zero_jitter_ok(&members));
        }
    }

    #[test]
    fn arrival_opens_its_group_on_the_fastest_live_free_server() {
        // Two (900 px, 15 fps) streams cannot share a group, so the
        // newcomer needs a server of its own; the fastest free one is
        // dead.
        let c = VideoConfig::new(900.0, 15.0);
        let base = scenario(2, 3);
        let clips: Vec<_> = (0..2).map(|i| base.clip(i).clone()).collect();
        let uplinks = vec![10e6, 30e6, 20e6];
        let space = base.config_space().clone();
        let sc1 = Scenario::new(clips[..1].to_vec(), uplinks.clone(), space.clone());
        let sc2 = Scenario::new(clips, uplinks.clone(), space);
        let mut r = installed(&sc1, &[c]);
        let incumbent = sc1.schedule(&[c]).expect("one camera fits").group_server[0];
        let mut free: Vec<usize> = (0..3).filter(|&j| j != incumbent).collect();
        free.sort_by(|&a, &b| uplinks[b].total_cmp(&uplinks[a]));
        let (dead, survivor) = (free[0], free[1]);
        let mut alive = vec![true; 3];
        alive[dead] = false;
        let (a, scope) = r
            .replan(
                &sc2,
                &[c, c],
                Some(&alive),
                ReplanTrigger::Arrival { camera: 1 },
                &NoopRecorder,
            )
            .expect("a live server is free");
        assert!(
            matches!(scope, ReplanScope::Incremental { .. }),
            "{scope:?}"
        );
        for (i, st) in a.streams.iter().enumerate() {
            if st.id.source == 1 {
                assert_eq!(a.server_of[i], survivor);
            }
        }
    }

    #[test]
    fn failure_rehomes_the_orphan_group() {
        let sc = scenario(3, 4);
        let cfgs = low(3);
        let mut r = installed(&sc, &cfgs);
        let a0 = sc.schedule(&cfgs).unwrap();
        let dead = a0.group_server[0];
        let mut alive = vec![true; 4];
        alive[dead] = false;
        let (a, _scope) = r
            .replan(
                &sc,
                &cfgs,
                Some(&alive),
                ReplanTrigger::ServerFailure { server: dead },
                &NoopRecorder,
            )
            .expect("failure repair");
        assert!(a.server_of.iter().all(|&s| s != dead));
    }

    #[test]
    fn restore_is_a_zero_row_replan() {
        let sc = scenario(3, 3);
        let cfgs = low(3);
        let mut r = installed(&sc, &cfgs);
        let (_, scope) = r
            .replan(
                &sc,
                &cfgs,
                None,
                ReplanTrigger::ServerRestore { server: 1 },
                &NoopRecorder,
            )
            .expect("restore");
        assert_eq!(scope, ReplanScope::Incremental { rows_resolved: 0 });
    }

    #[test]
    fn desynced_state_falls_back_to_full_resolve() {
        let sc = scenario(4, 3);
        let cfgs = low(4);
        // Never installed: internal state is empty, so any trigger's
        // verification fails and the full path runs.
        let mut r = Rescheduler::new();
        let (a, scope) = r
            .replan(
                &sc,
                &cfgs,
                None,
                ReplanTrigger::ServerRestore { server: 0 },
                &NoopRecorder,
            )
            .expect("full re-solve");
        assert_eq!(scope, ReplanScope::Full);
        assert_eq!(r.stats().full, 1);
        let sources: std::collections::HashSet<usize> =
            a.streams.iter().map(|s| s.id.source).collect();
        assert_eq!(sources.len(), 4);
    }

    #[test]
    fn infeasible_replan_reports_error_and_keeps_state() {
        // 4 heavy cameras on 1 server: nothing fits.
        let sc = Scenario::uniform(4, 1, 20e6, 9);
        let heavy = vec![VideoConfig::new(2160.0, 30.0); 4];
        let mut r = Rescheduler::new();
        let err = r.replan(
            &sc,
            &heavy,
            None,
            ReplanTrigger::ServerRestore { server: 0 },
            &NoopRecorder,
        );
        assert!(err.is_err());
    }

    #[test]
    fn incremental_assignment_matches_installed_placement() {
        let sc = scenario(4, 3);
        let cfgs = low(4);
        let a0 = sc.schedule(&cfgs).unwrap();
        let mut r = Rescheduler::new();
        r.install(&a0);
        // Restore (no-op) returns the same server sets.
        let (a1, _) = r
            .replan(
                &sc,
                &cfgs,
                None,
                ReplanTrigger::ServerRestore { server: 0 },
                &NoopRecorder,
            )
            .unwrap();
        for server in 0..sc.n_servers() {
            let set0: std::collections::BTreeSet<StreamId> = a0
                .streams_on(server)
                .into_iter()
                .map(|i| a0.streams[i].id)
                .collect();
            let set1: std::collections::BTreeSet<StreamId> = a1
                .streams_on(server)
                .into_iter()
                .map(|i| a1.streams[i].id)
                .collect();
            assert_eq!(set0, set1, "server {server}");
        }
        assert!((a1.total_comm_latency - a0.total_comm_latency).abs() < 1e-9);
    }

    #[test]
    fn reprice_improves_touched_rows_via_cascade() {
        let base = Scenario::uniform(3, 3, 20e6, 23);
        let uplinks = vec![5e6, 30e6, 15e6];
        let clips: Vec<_> = (0..3).map(|i| base.clip(i).clone()).collect();
        let sc3 = Scenario::new(clips.clone(), uplinks.clone(), base.config_space().clone());
        // Camera 0 runs heavy at a period non-harmonic with the light
        // pair, so it always forms its own group.
        let cfgs3 = vec![
            VideoConfig::new(1080.0, 7.0),
            VideoConfig::new(480.0, 5.0),
            VideoConfig::new(480.0, 5.0),
        ];
        let parts = split_high_rate(&sc3.stream_timings(&cfgs3));
        let heavy: Vec<StreamTiming> = parts.iter().copied().filter(|s| s.id.source == 0).collect();
        let light: Vec<StreamTiming> = parts.iter().copied().filter(|s| s.id.source != 0).collect();
        assert!(!heavy.is_empty() && !light.is_empty());
        // Hand-install a deliberately poor placement: the light pair on
        // the slowest server, heavy on the middle one; the fastest
        // server (30 Mbps) sits idle.
        let mut r = Rescheduler::new();
        r.groups = vec![light, heavy];
        r.group_server = vec![0, 2];
        // Camera 2 departs: the light group is the touched row.
        let sc2 = Scenario::new(clips[..2].to_vec(), uplinks, base.config_space().clone());
        let cfgs2 = cfgs3[..2].to_vec();
        let (a, scope) = r
            .replan(
                &sc2,
                &cfgs2,
                None,
                ReplanTrigger::Departure { camera: 2 },
                &NoopRecorder,
            )
            .expect("departure repair");
        assert!(matches!(scope, ReplanScope::Incremental { .. }));
        // Repricing moves the touched light group onto the idle fast
        // server; the untouched heavy group stays put. Without the
        // rank-pairing pass the light group would stay on the 5 Mbps
        // server.
        for (g, &server) in a.group_server.iter().enumerate() {
            let source = a.streams[a.groups[g][0]].id.source;
            if source == 1 {
                assert_eq!(server, 1, "light group should move to the 30 Mbps server");
            } else {
                assert_eq!(server, 2, "heavy group stays put");
            }
        }
    }

    #[test]
    fn reprice_keeps_untouched_rows_and_never_raises_touched_latency() {
        use rand::Rng;
        let mut checked = 0;
        for seed in 0..60u64 {
            let mut rng = eva_stats::rng::seeded(seed);
            let n_servers = rng.gen_range(3..=8);
            let n_cams = rng.gen_range(2..=n_servers);
            // Pool-drawn uplinks, so servers tie often.
            let sc = Scenario::standard(n_cams, n_servers, &mut rng);
            let cfgs: Vec<VideoConfig> = (0..n_cams)
                .map(|_| {
                    VideoConfig::new(
                        [480.0, 720.0, 1080.0][rng.gen_range(0..3)],
                        [2.0, 5.0, 7.0, 10.0][rng.gen_range(0..4)],
                    )
                })
                .collect();
            let Ok(a) = sc.schedule(&cfgs) else { continue };
            let mut r = Rescheduler::new();
            r.install(&a);
            // Scatter the groups over a random injection of servers and
            // kill some of the servers left free.
            let n_groups = r.groups.len();
            r.group_server = eva_stats::rng::sample_indices(&mut rng, n_servers, n_groups);
            let alive: Vec<bool> = (0..n_servers)
                .map(|j| r.group_server.contains(&j) || rng.gen_bool(0.6))
                .collect();
            let touched: Vec<usize> = (0..n_groups).filter(|_| rng.gen_bool(0.5)).collect();
            let uplinks = sc.planning_uplinks();
            let bits = |g: &[StreamTiming]| -> f64 {
                g.iter()
                    .map(|s| {
                        sc.surfaces(s.id.source)
                            .bits_per_frame(cfgs[s.id.source].resolution)
                    })
                    .sum()
            };
            let touched_latency = |r: &Rescheduler| -> f64 {
                touched
                    .iter()
                    .map(|&g| bits(&r.groups[g]) / uplinks[r.group_server[g]])
                    .sum()
            };
            let before = r.group_server.clone();
            let latency_before = touched_latency(&r);
            r.reprice(&sc, &cfgs, Some(&alive), &touched, &NoopRecorder);
            for g in (0..n_groups).filter(|g| !touched.contains(g)) {
                assert_eq!(
                    r.group_server[g], before[g],
                    "seed {seed}: untouched row moved"
                );
            }
            assert!(
                touched_latency(&r) <= latency_before * (1.0 + 1e-12),
                "seed {seed}: touched latency rose"
            );
            let mut servers = r.group_server.clone();
            assert!(servers.iter().all(|&j| alive[j]), "seed {seed}");
            servers.sort_unstable();
            servers.dedup();
            assert_eq!(servers.len(), n_groups, "seed {seed}: shared server");
            checked += 1;
        }
        assert!(checked >= 30, "only {checked} seeds had a placement");
    }

    #[test]
    fn limited_replan_never_runs_the_full_fallback() {
        let sc = scenario(4, 3);
        let cfgs = low(4);
        // Never installed: the repair path can't verify, and without
        // the full fallback the placement must stay untouched.
        let mut r = Rescheduler::new();
        let before = (r.groups.clone(), r.group_server.clone());
        let out = r.replan_limited(
            &sc,
            &cfgs,
            None,
            ReplanTrigger::ServerRestore { server: 0 },
            &NoopRecorder,
        );
        assert!(out.is_none());
        assert_eq!((r.groups.clone(), r.group_server.clone()), before);
        assert_eq!(r.stats().full, 0);
    }

    #[test]
    fn limited_replan_repairs_when_it_can() {
        let sc5 = scenario(5, 3);
        let cfgs5 = low(5);
        let mut r = installed(&sc5, &cfgs5);
        let sc4 = Scenario::new(
            [0usize, 1, 3, 4]
                .iter()
                .map(|&i| sc5.clip(i).clone())
                .collect(),
            sc5.uplinks().to_vec(),
            sc5.config_space().clone(),
        );
        let out = r.replan_limited(
            &sc4,
            &low(4),
            None,
            ReplanTrigger::Departure { camera: 2 },
            &NoopRecorder,
        );
        assert!(matches!(out, Some((_, ReplanScope::Incremental { .. }))));
        assert_eq!(r.stats().incremental, 1);
    }

    #[test]
    fn failed_repair_then_full_resolve_counts_the_trigger_once() {
        use eva_obs::FlightRecorder;
        let sc = scenario(4, 3);
        let cfgs = low(4);
        let trigger = ReplanTrigger::ServerRestore { server: 0 };
        // Never installed: the repair cannot verify, so both the split
        // steps and the composed `replan` reach the full re-solve.
        let split = FlightRecorder::new();
        let mut r = Rescheduler::new();
        assert!(r
            .replan_limited(&sc, &cfgs, None, trigger, &split)
            .is_none());
        let (_, scope) = r
            .replan_full(&sc, &cfgs, None, &split)
            .expect("full re-solve");
        assert_eq!(scope, ReplanScope::Full);
        let composed = FlightRecorder::new();
        let mut c = Rescheduler::new();
        c.replan(&sc, &cfgs, None, trigger, &composed)
            .expect("full re-solve");
        for (rec, r) in [(&split, &r), (&composed, &c)] {
            let m = rec.snapshot().metrics;
            assert_eq!(m.counter("serve.replans"), 1);
            assert_eq!(m.counter("serve.replan_restores"), 1);
            assert_eq!(m.counter("serve.replan_full"), 1);
            assert_eq!(m.counter("serve.replan_incremental"), 0);
            assert_eq!(
                r.stats(),
                ReplanStats {
                    incremental: 0,
                    full: 1,
                    coalesced: 0
                }
            );
        }
    }

    #[test]
    fn coalesced_replan_absorbs_a_burst_in_one_resolve() {
        let sc = scenario(4, 3);
        let cfgs = low(4);
        let mut r = Rescheduler::new();
        let a = r
            .replan_coalesced(&sc, &cfgs, None, 5, &NoopRecorder)
            .expect("coalesced re-solve");
        assert_eq!(r.stats().coalesced, 1);
        assert_eq!(r.stats().full, 0);
        let sources: std::collections::HashSet<usize> =
            a.streams.iter().map(|s| s.id.source).collect();
        assert_eq!(sources.len(), 4);
    }
}
