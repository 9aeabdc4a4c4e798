//! The event-driven engine: periodic sources, FIFO servers, latency and
//! jitter measurement.

use std::collections::VecDeque;

use eva_bond::BundleSim;
use eva_net::link::secs_to_ticks;
use eva_net::LinkTrace;
use eva_obs::{span, Phase, Recorder};
use eva_sched::{StreamId, Ticks, TICKS_PER_SEC};
use eva_stats::RunningStats;

use crate::event::{ArrivalList, Event, EventQueue};
use crate::fault::{plan_stream_deliveries, service_end, SimFaults};

/// Per-stream uplink binding for the time-varying-link engine: the
/// frame size together with the materialized bandwidth trace the frame
/// is transmitted over.
#[derive(Debug, Clone)]
pub struct StreamLink {
    /// Frame payload (bits).
    pub bits_per_frame: f64,
    /// The uplink's `B(t)` over the simulation horizon.
    pub trace: LinkTrace,
}

/// Per-stream uplink binding for the bonded-multipath engine: the frame
/// size together with the stateful [`BundleSim`] the frame's packets
/// are striped over. Mutable because striping feeds per-link
/// estimators and accumulates delivery accounting frame over frame.
#[derive(Debug, Clone)]
pub struct StreamBundle {
    /// Frame payload (bits).
    pub bits_per_frame: f64,
    /// The camera's materialized bonded uplink.
    pub sim: BundleSim,
}

/// A periodic stream as the simulator sees it.
#[derive(Debug, Clone, Copy)]
pub struct SimStream {
    /// Identity (for reporting).
    pub id: StreamId,
    /// Frame period (ticks).
    pub period: Ticks,
    /// Per-frame processing time on the server (ticks).
    pub proc: Ticks,
    /// Per-frame uplink transmission time (ticks). Modeled as a fixed
    /// pipeline delay, matching Eq. 5's `θ_bit(r)/B` term (the uplink is
    /// provisioned per-camera; serialization contention on the radio is
    /// outside the paper's model).
    pub trans: Ticks,
    /// Destination server index.
    pub server: usize,
    /// Arrival phase: frame `k` *arrives at the server* at
    /// `phase + k * period`. The camera back-dates capture by `trans`.
    pub phase: Ticks,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Total simulated time (ticks).
    pub horizon: Ticks,
    /// Statistics ignore frames *arriving* before this time (lets the
    /// pipeline fill).
    pub warmup: Ticks,
    /// Optional per-frame e2e deadline: completions later than
    /// `capture + deadline` count as misses (0 disables).
    pub deadline: Ticks,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon: 20 * TICKS_PER_SEC,
            warmup: TICKS_PER_SEC,
            deadline: 0,
        }
    }
}

/// Per-stream measurement results.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Stream identity.
    pub id: StreamId,
    /// End-to-end latency statistics (seconds): capture → completion.
    pub latency: RunningStats,
    /// Delay jitter (seconds): max − min end-to-end latency. Zero iff
    /// every frame experienced identical queueing (the paper's
    /// "zero delay jitter").
    pub jitter_s: f64,
    /// Frames measured (post-warmup).
    pub frames: u64,
    /// Frames completing after the configured deadline (0 when the
    /// deadline is disabled).
    pub deadline_misses: u64,
    /// Frames that never completed: camera down at capture, uplink loss
    /// after the full retry budget, deadline give-up, or a server that
    /// never recovered. Always 0 in fault-free runs.
    pub dropped: u64,
}

/// Whole-simulation results.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// One report per stream, in input order.
    pub streams: Vec<StreamReport>,
    /// Fraction of (post-warmup) time each server spent processing.
    pub server_utilization: Vec<f64>,
    /// Mean end-to-end latency across all measured frames (seconds).
    pub mean_latency_s: f64,
    /// Largest per-stream jitter (seconds).
    pub max_jitter_s: f64,
    /// Largest backlog observed in any server queue.
    pub max_queue_len: usize,
}

impl SimReport {
    /// Total dropped frames across all streams.
    pub fn total_dropped(&self) -> u64 {
        self.streams.iter().map(|s| s.dropped).sum()
    }

    /// Fraction of eligible frames that were delivered (1.0 when no
    /// frame was measured at all).
    pub fn delivery_rate(&self) -> f64 {
        let delivered: u64 = self.streams.iter().map(|s| s.frames).sum();
        let total = delivered + self.total_dropped();
        if total == 0 {
            1.0
        } else {
            delivered as f64 / total as f64
        }
    }
}

struct ServerState {
    queue: VecDeque<(usize, Ticks)>, // (stream index, gen_time)
    busy: bool,
    busy_ticks: Ticks,
}

/// How frames reach the servers: the engine's one uplink selector.
/// Faults ride only on fixed or traced links, never on bundles.
#[derive(Debug)]
pub enum Uplinks<'a> {
    /// The fixed per-stream `trans` pipeline delay.
    Fixed,
    /// Per-stream *time-varying* links, one per stream: frame `k`'s
    /// transmission time is `bits / B(capture_k)` sampled from the
    /// stream's [`StreamLink`] trace (quasi-static per frame), instead
    /// of the fixed `trans`. `stream.trans` remains the *nominal*
    /// pipeline delay: captures are still back-dated by it, so a
    /// [`LinkTrace`] that is constant at the nominal rate reproduces
    /// [`Uplinks::Fixed`] exactly, event for event.
    Links(&'a [StreamLink]),
    /// Per-stream *bonded multipath* uplinks, one per stream: frame `k`
    /// is striped packet-by-packet across its [`StreamBundle`]'s member
    /// links and arrives when the receiver's reorder buffer releases
    /// the last packet in order ([`BundleSim::frame_delivery`]). As with
    /// [`Uplinks::Links`], the arrival shifts by the realized-vs-nominal
    /// transmission difference. A single-member zero-RTT bundle
    /// computes the *same* floating-point expression as a link
    /// (`bits / B(capture)`), so the degenerate bundle is bit-identical
    /// to the single-trace path (property-tested in
    /// `tests/bond_identity.rs`).
    Bundles(&'a mut [StreamBundle]),
    /// A materialized fault schedule over fixed (`None`) or traced
    /// links: camera dropout and per-attempt uplink loss (with bounded
    /// retry + backoff) shape which frames arrive and when; server
    /// crashes pause processing until recovery and straggler bursts
    /// dilate it. Frames that can never complete are counted in
    /// [`StreamReport::dropped`] instead of being left stuck. An inert
    /// schedule (every process zero) runs as [`Uplinks::Fixed`] /
    /// [`Uplinks::Links`], so zero-fault runs are bit-identical to them.
    Faulted {
        /// Per-stream traced links, or `None` for the fixed delay.
        links: Option<&'a [StreamLink]>,
        /// The materialized fault schedule.
        faults: &'a SimFaults,
    },
}

/// Why [`simulate`] rejected its inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Stream `stream` is placed on `server`, but only `n_servers`
    /// servers exist.
    NonexistentServer {
        /// Index of the offending stream.
        stream: usize,
        /// Its destination server.
        server: usize,
        /// Number of simulated servers.
        n_servers: usize,
    },
    /// Stream `stream` has a zero `period` or a zero `proc`.
    DegenerateTiming {
        /// Index of the offending stream.
        stream: usize,
    },
    /// A per-stream link or bundle slice does not have one entry per
    /// stream.
    UplinkCount {
        /// Number of streams.
        streams: usize,
        /// Number of links or bundles supplied.
        uplinks: usize,
    },
    /// The fault schedule lacks a crash or straggler trace for some of
    /// the `n_servers` servers.
    MissingServerFaults {
        /// Number of simulated servers.
        n_servers: usize,
    },
    /// The fault schedule lacks a dropout or loss trace for camera
    /// `source`.
    MissingCameraFaults {
        /// The source camera of the first stream without traces.
        source: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NonexistentServer {
                stream,
                server,
                n_servers,
            } => write!(
                f,
                "simulate: stream assigned to nonexistent server \
                 (stream {stream} on server {server} of {n_servers})"
            ),
            SimError::DegenerateTiming { stream } => {
                write!(f, "simulate: degenerate stream timing (stream {stream})")
            }
            SimError::UplinkCount { streams, uplinks } => write!(
                f,
                "simulate: one link or bundle per stream ({uplinks} for {streams} streams)"
            ),
            SimError::MissingServerFaults { n_servers } => write!(
                f,
                "simulate: missing server fault traces ({n_servers} servers)"
            ),
            SimError::MissingCameraFaults { source } => {
                write!(f, "simulate: missing camera fault traces (camera {source})")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Run the simulation.
///
/// The engine is a classic event-driven loop: `FrameArrival` events
/// enqueue work on a server; idle servers start the head-of-line frame
/// immediately and self-schedule a `ServerDone`. FIFO order plus
/// deterministic tie-breaking makes runs exactly replayable. `uplinks`
/// selects how frames reach the servers (see [`Uplinks`]).
///
/// The run executes under a [`Phase::Des`] span and emits
/// event/frame/miss/drop/retry counters on `rec`; bonded uplinks also
/// stripe under a [`Phase::BondStripe`] span with `bond.*`
/// frame/packet/HoL counters. Telemetry never changes the report: a
/// [`NoopRecorder`](eva_obs::NoopRecorder) run is bit-identical to a
/// recorded one.
///
/// Malformed inputs are a [`SimError`], checked before anything runs:
/// a stream on a nonexistent server, a zero `period` or `proc`, a link
/// or bundle slice without one entry per stream, and (for a non-inert
/// fault schedule) missing server or camera fault traces.
pub fn simulate(
    streams: &[SimStream],
    uplinks: Uplinks<'_>,
    n_servers: usize,
    cfg: &SimConfig,
    rec: &dyn Recorder,
) -> Result<SimReport, SimError> {
    let per_stream = match &uplinks {
        Uplinks::Fixed | Uplinks::Faulted { links: None, .. } => None,
        Uplinks::Links(links)
        | Uplinks::Faulted {
            links: Some(links), ..
        } => Some(links.len()),
        Uplinks::Bundles(bundles) => Some(bundles.len()),
    };
    if let Some(n) = per_stream.filter(|&n| n != streams.len()) {
        return Err(SimError::UplinkCount {
            streams: streams.len(),
            uplinks: n,
        });
    }
    let uplinks = match uplinks {
        Uplinks::Faulted { links, faults } if faults.is_inert() => {
            links.map_or(Uplinks::Fixed, Uplinks::Links)
        }
        Uplinks::Faulted { links, faults } => {
            if faults.server_up.len() < n_servers || faults.server_slow.len() < n_servers {
                return Err(SimError::MissingServerFaults { n_servers });
            }
            if let Some(s) = streams
                .iter()
                .find(|s| s.id.source >= faults.camera_up.len() || s.id.source >= faults.loss.len())
            {
                return Err(SimError::MissingCameraFaults {
                    source: s.id.source,
                });
            }
            Uplinks::Faulted { links, faults }
        }
        other => other,
    };
    for (stream, s) in streams.iter().enumerate() {
        if s.server >= n_servers {
            return Err(SimError::NonexistentServer {
                stream,
                server: s.server,
                n_servers,
            });
        }
        if s.period == 0 || s.proc == 0 {
            return Err(SimError::DegenerateTiming { stream });
        }
    }
    Ok(run(streams, uplinks, n_servers, cfg, rec))
}

/// Frame slots `phase + k·period` of `s` inside the horizon.
fn slots_in_horizon(s: &SimStream, cfg: &SimConfig) -> usize {
    match cfg.horizon.checked_sub(s.phase) {
        Some(span) if span > 0 => ((span - 1) / s.period + 1) as usize,
        _ => 0,
    }
}

/// The engine proper, on inputs [`simulate`] has validated.
fn run(
    streams: &[SimStream],
    uplinks: Uplinks<'_>,
    n_servers: usize,
    cfg: &SimConfig,
    rec: &dyn Recorder,
) -> SimReport {
    let _des_span = span(rec, Phase::Des);

    let mut arrivals =
        ArrivalList::with_capacity(streams.iter().map(|s| slots_in_horizon(s, cfg)).sum());
    let mut drop_counts = vec![0u64; streams.len()];
    // Hot-loop telemetry accumulates in locals and is emitted once at
    // the end: no recorder dispatch inside the event loop.
    let mut n_events = 0u64;
    let mut n_retries = 0u64;
    // Seed all frame arrivals within the horizon. (Arrival = end of
    // transmission; capture happened `trans` earlier.) `slot` is the
    // nominal arrival instant under the fixed-`trans` model; with a
    // link trace the arrival shifts by the difference between the
    // realized transmission time and the nominal one, while capture
    // stays anchored to the slot. Slow links can reorder arrivals of
    // consecutive frames' slots; the FIFO server queue absorbs that.
    let faults = match uplinks {
        Uplinks::Fixed => {
            seed_linked(streams, None, cfg, &mut arrivals);
            None
        }
        Uplinks::Links(links) => {
            seed_linked(streams, Some(links), cfg, &mut arrivals);
            None
        }
        Uplinks::Bundles(bundles) => {
            seed_bonded(streams, bundles, cfg, rec, &mut arrivals);
            None
        }
        Uplinks::Faulted { links, faults } => {
            // Frame fates (camera dropout, loss, retry, deadline
            // give-up) are planned up front, deterministically.
            for (i, s) in streams.iter().enumerate() {
                let planned = plan_stream_deliveries(
                    i,
                    s,
                    links.map(|ls| &ls[i]),
                    &faults.camera_up[s.id.source],
                    &faults.loss[s.id.source],
                    &faults.retry,
                    cfg,
                );
                for pf in planned {
                    n_retries += u64::from(pf.attempts.saturating_sub(1));
                    match pf.arrival {
                        Some(t) => arrivals.push(t, i, pf.gen_time),
                        // Eligibility mirrors the completion path: keyed
                        // to the nominal arrival slot.
                        None => {
                            if pf.gen_time + s.trans >= cfg.warmup {
                                drop_counts[i] += 1;
                            }
                        }
                    }
                }
            }
            Some(faults)
        }
    };
    let mut queue = EventQueue::new(arrivals);

    let mut servers: Vec<ServerState> = (0..n_servers)
        .map(|_| ServerState {
            queue: VecDeque::new(),
            busy: false,
            busy_ticks: 0,
        })
        .collect();
    let mut lat_stats: Vec<RunningStats> = streams.iter().map(|_| RunningStats::new()).collect();
    let mut frame_counts = vec![0u64; streams.len()];
    let mut miss_counts = vec![0u64; streams.len()];
    let mut total_lat = RunningStats::new();
    let mut max_queue_len = 0usize;

    // In-flight frame per server: (stream, gen_time, start_time).
    let mut in_flight: Vec<Option<(usize, Ticks, Ticks)>> = vec![None; n_servers];

    while let Some((now, event)) = queue.pop() {
        n_events += 1;
        match event {
            Event::FrameArrival { stream, gen_time } => {
                let sv_idx = streams[stream].server;
                let sv = &mut servers[sv_idx];
                sv.queue.push_back((stream, gen_time));
                max_queue_len = max_queue_len.max(sv.queue.len());
                if !sv.busy {
                    start_next(
                        sv_idx,
                        now,
                        streams,
                        &mut servers,
                        &mut in_flight,
                        &mut queue,
                        faults,
                        cfg,
                    );
                }
            }
            Event::ServerDone { server } => {
                // A spurious completion (no in-flight frame) is a
                // no-op, not a panic.
                let Some((stream, gen_time, start)) = in_flight[server].take() else {
                    continue;
                };
                servers[server].busy = false;
                // Utilization accounting is clipped to the measured
                // window [warmup, horizon].
                let clipped_start = start.max(cfg.warmup);
                let clipped_end = now.min(cfg.horizon).max(clipped_start);
                servers[server].busy_ticks += clipped_end - clipped_start;
                // Record the completed frame if it arrived post-warmup.
                // Eligibility is keyed to the *nominal* arrival slot so
                // the measured frame set is the same with and without a
                // link trace (time-varying links shift latencies, not
                // which frames count).
                let arrival = gen_time + streams[stream].trans;
                if arrival >= cfg.warmup {
                    let latency_s = (now - gen_time) as f64 / TICKS_PER_SEC as f64;
                    lat_stats[stream].push(latency_s);
                    frame_counts[stream] += 1;
                    if cfg.deadline > 0 && now > gen_time + cfg.deadline {
                        miss_counts[stream] += 1;
                    }
                    total_lat.push(latency_s);
                }
                if !servers[server].queue.is_empty() {
                    start_next(
                        server,
                        now,
                        streams,
                        &mut servers,
                        &mut in_flight,
                        &mut queue,
                        faults,
                        cfg,
                    );
                }
            }
        }
    }

    // Frames stranded on servers that never recovered count as dropped
    // (the queue drained: any leftover work can never complete).
    for (sv_idx, sv) in servers.iter().enumerate() {
        if let Some((stream, gen_time, _)) = in_flight[sv_idx] {
            if gen_time + streams[stream].trans >= cfg.warmup {
                drop_counts[stream] += 1;
            }
        }
        for &(stream, gen_time) in &sv.queue {
            if gen_time + streams[stream].trans >= cfg.warmup {
                drop_counts[stream] += 1;
            }
        }
    }

    let span = (cfg.horizon.saturating_sub(cfg.warmup)).max(1) as f64;
    let reports: Vec<StreamReport> = streams
        .iter()
        .enumerate()
        .map(|(i, s)| StreamReport {
            id: s.id,
            jitter_s: lat_stats[i].range(),
            frames: frame_counts[i],
            deadline_misses: miss_counts[i],
            dropped: drop_counts[i],
            latency: lat_stats[i].clone(),
        })
        .collect();
    let max_jitter_s = reports.iter().map(|r| r.jitter_s).fold(0.0, f64::max);
    if rec.enabled() {
        rec.add("des.runs", 1);
        rec.add("des.events", n_events);
        rec.add("des.retries", n_retries);
        rec.add("des.frames", reports.iter().map(|r| r.frames).sum());
        rec.add(
            "des.deadline_misses",
            reports.iter().map(|r| r.deadline_misses).sum(),
        );
        rec.add("des.dropped", reports.iter().map(|r| r.dropped).sum());
        rec.observe("des.max_queue_len", max_queue_len as f64);
        rec.observe("des.heap_peak", queue.heap_peak() as f64);
    }
    SimReport {
        streams: reports,
        server_utilization: servers
            .iter()
            .map(|s| (s.busy_ticks as f64 / span).min(1.0))
            .collect(),
        mean_latency_s: total_lat.mean(),
        max_jitter_s,
        max_queue_len,
    }
}

/// Seed the arrivals of fixed (`links = None`) or traced uplinks.
fn seed_linked(
    streams: &[SimStream],
    links: Option<&[StreamLink]>,
    cfg: &SimConfig,
    arrivals: &mut ArrivalList,
) {
    for (i, s) in streams.iter().enumerate() {
        let mut k: Ticks = 0;
        loop {
            let slot = s.phase + k * s.period;
            if slot >= cfg.horizon {
                break;
            }
            // Capture time; saturates at 0 for the first frames whose
            // transmission would have started before t = 0.
            let gen_time = slot.saturating_sub(s.trans);
            let arrival = match links.map(|ls| &ls[i]) {
                None => slot,
                Some(link) => {
                    let d = secs_to_ticks(link.bits_per_frame / link.trace.rate_at(gen_time));
                    (slot + d).saturating_sub(s.trans)
                }
            };
            arrivals.push(arrival, i, gen_time);
            k += 1;
        }
    }
}

/// Seed the arrivals of bonded uplinks: stripe each frame across its
/// bundle at capture time. Frames are seeded in capture order per
/// stream, so the bundle's estimator/scheduler state evolves exactly as
/// a live sender's would.
fn seed_bonded(
    streams: &[SimStream],
    bundles: &mut [StreamBundle],
    cfg: &SimConfig,
    rec: &dyn Recorder,
    arrivals: &mut ArrivalList,
) {
    let _stripe_span = span(rec, Phase::BondStripe);
    let mut bond_frames = 0u64;
    let mut bond_packets = 0u64;
    let mut bond_hol_s = 0.0f64;
    let mut bond_depth = 0usize;
    for (i, s) in streams.iter().enumerate() {
        let b = &mut bundles[i];
        let mut k: Ticks = 0;
        loop {
            let slot = s.phase + k * s.period;
            if slot >= cfg.horizon {
                break;
            }
            let gen_time = slot.saturating_sub(s.trans);
            let fd = b.sim.frame_delivery(gen_time, b.bits_per_frame);
            let d = secs_to_ticks(fd.delay_s);
            let arrival = (slot + d).saturating_sub(s.trans);
            bond_frames += 1;
            bond_packets += fd.packets;
            bond_hol_s += fd.hol_wait_s;
            bond_depth = bond_depth.max(fd.max_reorder_depth);
            arrivals.push(arrival, i, gen_time);
            k += 1;
        }
    }
    if rec.enabled() {
        rec.add("bond.frames", bond_frames);
        rec.add("bond.packets", bond_packets);
        rec.observe("bond.hol_wait_s", bond_hol_s);
        rec.observe("bond.max_reorder_depth", bond_depth as f64);
    }
}

#[allow(clippy::too_many_arguments)]
fn start_next(
    server: usize,
    now: Ticks,
    streams: &[SimStream],
    servers: &mut [ServerState],
    in_flight: &mut [Option<(usize, Ticks, Ticks)>],
    queue: &mut EventQueue,
    faults: Option<&SimFaults>,
    cfg: &SimConfig,
) {
    let sv = &mut servers[server];
    let Some((stream, gen_time)) = sv.queue.pop_front() else {
        return; // nothing queued — spurious call, not a panic
    };
    sv.busy = true;
    in_flight[server] = Some((stream, gen_time, now));
    let done = match faults {
        None => Some(now + streams[stream].proc),
        // Crashes pause processing until recovery; stragglers dilate
        // it. A frame that cannot finish within twice the horizon (or
        // on a server that never recovers) gets no completion event and
        // is counted as dropped when the queue drains.
        Some(f) => service_end(
            now,
            streams[stream].proc,
            &f.server_up[server],
            &f.server_slow[server],
            cfg.horizon.saturating_mul(2),
        ),
    };
    if let Some(t) = done {
        queue.push_done(t, server);
    }
}

#[cfg(test)]
mod tests {
    use eva_fault::FaultPlan;
    use eva_obs::NoopRecorder;

    use super::*;

    fn fixed(streams: &[SimStream], n_servers: usize, cfg: &SimConfig) -> SimReport {
        simulate(streams, Uplinks::Fixed, n_servers, cfg, &NoopRecorder).unwrap()
    }

    fn linked(
        streams: &[SimStream],
        links: &[StreamLink],
        n_servers: usize,
        cfg: &SimConfig,
    ) -> SimReport {
        simulate(
            streams,
            Uplinks::Links(links),
            n_servers,
            cfg,
            &NoopRecorder,
        )
        .unwrap()
    }

    fn sim_stream(
        source: usize,
        period: Ticks,
        proc: Ticks,
        trans: Ticks,
        server: usize,
        phase: Ticks,
    ) -> SimStream {
        SimStream {
            id: StreamId::source(source),
            period,
            proc,
            trans,
            server,
            phase,
        }
    }

    fn short_cfg() -> SimConfig {
        SimConfig {
            horizon: 10 * TICKS_PER_SEC,
            warmup: TICKS_PER_SEC,
            deadline: 0,
        }
    }

    #[test]
    fn single_stream_latency_is_trans_plus_proc() {
        // One 10 fps stream, 20ms proc, 5ms transmission: no queueing.
        let s = sim_stream(0, 100_000, 20_000, 5_000, 0, 0);
        let r = fixed(&[s], 1, &short_cfg());
        assert_eq!(r.streams.len(), 1);
        assert!(r.streams[0].frames > 80);
        assert!((r.streams[0].latency.mean() - 0.025).abs() < 1e-9);
        assert_eq!(r.streams[0].jitter_s, 0.0);
        assert!((r.server_utilization[0] - 0.2).abs() < 0.01);
    }

    #[test]
    fn overload_accumulates_latency_fig3a() {
        // Utilization 1.5: queue grows, latency climbs over the run —
        // the Fig. 3(a) pathology.
        let s = sim_stream(0, 100_000, 150_000, 0, 0, 0);
        let r = fixed(&[s], 1, &short_cfg());
        let st = &r.streams[0];
        assert!(st.jitter_s > 1.0, "jitter = {}", st.jitter_s);
        assert!(st.latency.max() > 2.0, "max latency = {}", st.latency.max());
        assert!(r.max_queue_len > 10);
        assert!(r.server_utilization[0] > 0.99);
    }

    #[test]
    fn bad_phasing_causes_jitter_fig4() {
        // Two feasible streams (util 0.3 + 0.25), both phase 0: the 5 fps
        // stream's frames collide with the 10 fps stream's on frame 0,
        // 2, 4, ... but not in between -> nonzero jitter.
        let a = sim_stream(0, 100_000, 30_000, 0, 0, 0);
        let b = sim_stream(1, 200_000, 50_000, 0, 0, 0);
        let r = fixed(&[a, b], 1, &short_cfg());
        assert!(r.max_jitter_s >= 0.0, "smoke");
        // At least one stream suffers queueing: its latency exceeds its
        // own trans+proc baseline on some frame.
        let worst = r
            .streams
            .iter()
            .map(|s| s.latency.max())
            .fold(0.0, f64::max);
        assert!(worst > 0.05, "no queueing observed: {worst}");
    }

    #[test]
    fn zero_jitter_offsets_eliminate_jitter() {
        // Same two streams, but phased per Theorem 1: o(τ1) = 0,
        // o(τ2) = p1. Const2 holds (30+50 <= gcd(100,200) = 100).
        let a = sim_stream(0, 100_000, 30_000, 0, 0, 0);
        let b = sim_stream(1, 200_000, 50_000, 0, 0, 30_000);
        let r = fixed(&[a, b], 1, &short_cfg());
        assert_eq!(r.max_jitter_s, 0.0, "jitter: {:?}", r.streams);
        // And latencies are exactly proc (trans = 0).
        assert!((r.streams[0].latency.mean() - 0.03).abs() < 1e-9);
        assert!((r.streams[1].latency.mean() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn const2_violation_shows_jitter_even_when_const1_holds() {
        // Periods 100 & 150 (gcd 50), procs 40 & 40: Const1 util =
        // 0.4 + 0.267 < 1 but Const2 fails (80 > 50). Expect jitter with
        // any static phases.
        let a = sim_stream(0, 100_000, 40_000, 0, 0, 0);
        let b = sim_stream(1, 150_000, 40_000, 0, 0, 40_000);
        let r = fixed(&[a, b], 1, &short_cfg());
        assert!(r.max_jitter_s > 0.0, "expected jitter, got none");
    }

    #[test]
    fn streams_on_different_servers_do_not_interact() {
        let a = sim_stream(0, 100_000, 90_000, 0, 0, 0);
        let b = sim_stream(1, 100_000, 90_000, 0, 1, 0);
        let r = fixed(&[a, b], 2, &short_cfg());
        assert_eq!(r.max_jitter_s, 0.0);
        assert!((r.streams[0].latency.mean() - 0.09).abs() < 1e-9);
        assert!((r.streams[1].latency.mean() - 0.09).abs() < 1e-9);
    }

    #[test]
    fn warmup_excludes_early_frames() {
        let s = sim_stream(0, 100_000, 10_000, 0, 0, 0);
        let cfg = SimConfig {
            horizon: 2 * TICKS_PER_SEC,
            warmup: TICKS_PER_SEC,
            deadline: 0,
        };
        let r = fixed(&[s], 1, &cfg);
        // 10 arrivals per second; only the second second is measured.
        assert_eq!(r.streams[0].frames, 10);
    }

    #[test]
    fn utilization_matches_offered_load() {
        let a = sim_stream(0, 100_000, 25_000, 0, 0, 0);
        let b = sim_stream(1, 200_000, 50_000, 0, 0, 25_000);
        let r = fixed(&[a, b], 1, &short_cfg());
        // Offered utilization 0.25 + 0.25 = 0.5.
        assert!((r.server_utilization[0] - 0.5).abs() < 0.03);
    }

    #[test]
    fn deadline_misses_counted() {
        // 10 fps, 20ms proc: e2e 20ms. Deadline 10ms -> every frame
        // misses; deadline 50ms -> none does.
        let s = sim_stream(0, 100_000, 20_000, 0, 0, 0);
        let tight = SimConfig {
            deadline: 10_000,
            ..short_cfg()
        };
        let r = fixed(&[s], 1, &tight);
        assert_eq!(r.streams[0].deadline_misses, r.streams[0].frames);
        let loose = SimConfig {
            deadline: 50_000,
            ..short_cfg()
        };
        let r2 = fixed(&[s], 1, &loose);
        assert_eq!(r2.streams[0].deadline_misses, 0);
        // Disabled deadline counts nothing.
        let r3 = fixed(&[s], 1, &short_cfg());
        assert_eq!(r3.streams[0].deadline_misses, 0);
    }

    fn err(streams: &[SimStream], uplinks: Uplinks<'_>, n_servers: usize) -> SimError {
        simulate(streams, uplinks, n_servers, &short_cfg(), &NoopRecorder).unwrap_err()
    }

    #[test]
    fn rejects_bad_server_index() {
        let s = sim_stream(0, 100_000, 10_000, 0, 3, 0);
        assert_eq!(
            err(&[s], Uplinks::Fixed, 2),
            SimError::NonexistentServer {
                stream: 0,
                server: 3,
                n_servers: 2
            }
        );
    }

    #[test]
    fn rejects_zero_period_or_proc() {
        let ok = sim_stream(0, 100_000, 10_000, 0, 0, 0);
        let no_proc = sim_stream(1, 100_000, 0, 0, 0, 0);
        let no_period = sim_stream(2, 0, 10_000, 0, 0, 0);
        assert_eq!(
            err(&[ok, no_proc], Uplinks::Fixed, 1),
            SimError::DegenerateTiming { stream: 1 }
        );
        assert_eq!(
            err(&[no_period], Uplinks::Fixed, 1),
            SimError::DegenerateTiming { stream: 0 }
        );
    }

    #[test]
    fn rejects_link_or_bundle_count_mismatch() {
        let streams = [
            sim_stream(0, 100_000, 10_000, 5_000, 0, 0),
            sim_stream(1, 100_000, 10_000, 5_000, 0, 50_000),
        ];
        let links = [nominal_link(5_000, 20e6)];
        let want = SimError::UplinkCount {
            streams: 2,
            uplinks: 1,
        };
        assert_eq!(err(&streams, Uplinks::Links(&links), 1), want);
        let faults = SimFaults::materialize(&FaultPlan::none(1, 2), short_cfg().horizon + 1);
        let faulted = Uplinks::Faulted {
            links: Some(&links),
            faults: &faults,
        };
        assert_eq!(err(&streams, faulted, 1), want);
        let bundle = StreamBundle {
            bits_per_frame: 1e5,
            sim: eva_bond::LinkBundle::single(eva_net::LinkModel::constant(20e6), 0.0)
                .simulator(short_cfg().horizon, eva_bond::BondPolicy::RoundRobin),
        };
        let mut bundles = vec![bundle; 3];
        assert_eq!(
            err(&streams, Uplinks::Bundles(&mut bundles), 1),
            SimError::UplinkCount {
                streams: 2,
                uplinks: 3
            }
        );
    }

    #[test]
    fn rejects_missing_server_fault_traces() {
        let streams = [sim_stream(0, 100_000, 10_000, 0, 1, 0)];
        let plan = FaultPlan::none(1, 1).with_frame_loss(0.1, 3);
        let faults = SimFaults::materialize(&plan, short_cfg().horizon + 1);
        let faulted = Uplinks::Faulted {
            links: None,
            faults: &faults,
        };
        assert_eq!(
            err(&streams, faulted, 2),
            SimError::MissingServerFaults { n_servers: 2 }
        );
    }

    #[test]
    fn rejects_missing_camera_fault_traces() {
        let streams = [
            sim_stream(0, 100_000, 10_000, 0, 0, 0),
            sim_stream(1, 100_000, 10_000, 0, 0, 50_000),
        ];
        let plan = FaultPlan::none(1, 1).with_frame_loss(0.1, 3);
        let faults = SimFaults::materialize(&plan, short_cfg().horizon + 1);
        let faulted = Uplinks::Faulted {
            links: None,
            faults: &faults,
        };
        assert_eq!(
            err(&streams, faulted, 1),
            SimError::MissingCameraFaults { source: 1 }
        );
    }

    /// A constant link whose per-frame transmission time equals the
    /// stream's nominal `trans` exactly.
    fn nominal_link(trans: Ticks, rate_bps: f64) -> StreamLink {
        StreamLink {
            bits_per_frame: trans as f64 / TICKS_PER_SEC as f64 * rate_bps,
            trace: eva_net::LinkModel::constant(rate_bps).trace(10 * TICKS_PER_SEC),
        }
    }

    #[test]
    fn constant_link_matches_fixed_trans_model() {
        let streams = [
            sim_stream(0, 100_000, 30_000, 5_000, 0, 2_000),
            sim_stream(1, 200_000, 50_000, 12_000, 0, 32_000),
        ];
        let links: Vec<StreamLink> = streams
            .iter()
            .map(|s| nominal_link(s.trans, 20e6))
            .collect();
        let base = fixed(&streams, 1, &short_cfg());
        let traced = linked(&streams, &links, 1, &short_cfg());
        for (a, b) in base.streams.iter().zip(&traced.streams) {
            assert_eq!(a.frames, b.frames);
            assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
            assert_eq!(a.jitter_s.to_bits(), b.jitter_s.to_bits());
        }
        assert_eq!(base.max_queue_len, traced.max_queue_len);
    }

    #[test]
    fn slower_link_raises_latency() {
        let s = sim_stream(0, 100_000, 20_000, 5_000, 0, 0);
        // True rate = half the nominal: 5 ms of payload takes 10 ms.
        let link = StreamLink {
            bits_per_frame: 0.005 * 20e6,
            trace: eva_net::LinkModel::constant(10e6).trace(10 * TICKS_PER_SEC),
        };
        let r = linked(&[s], &[link], 1, &short_cfg());
        assert!((r.streams[0].latency.mean() - 0.030).abs() < 1e-9);
        assert_eq!(r.streams[0].jitter_s, 0.0);
    }

    #[test]
    fn rate_switching_link_produces_jitter() {
        let s = sim_stream(0, 100_000, 20_000, 5_000, 0, 0);
        let link = StreamLink {
            bits_per_frame: 0.005 * 20e6,
            trace: eva_net::LinkModel::gilbert_elliott(20e6, 4e6, 1.0, 1.0, 7)
                .trace(10 * TICKS_PER_SEC),
        };
        let r = linked(&[s], &[link], 1, &short_cfg());
        // Good-state frames see 25 ms, bad-state frames 45 ms.
        assert!(
            r.streams[0].jitter_s > 0.01,
            "jitter {}",
            r.streams[0].jitter_s
        );
    }
}
