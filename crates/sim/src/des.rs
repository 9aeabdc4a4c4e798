//! The event-driven engine: periodic sources, FIFO servers, latency and
//! jitter measurement. Each server's FIFO, and a shared uplink's FIFO
//! in front of it, runs on its own (the private `server` module); this
//! module seeds the arrivals and assembles the report.

use std::collections::VecDeque;

use eva_bond::BundleSim;
use eva_net::link::secs_to_ticks;
use eva_net::LinkTrace;
use eva_obs::{span, Phase, Recorder};
use eva_sched::{StreamId, Ticks, TICKS_PER_SEC};
use eva_stats::RunningStats;

use crate::fault::{plan_stream_deliveries, SimFaults};
use crate::server::{run_server, ServerArrivals, SharedUplink, Tally};

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
    /// Per-frame uplink transmission time (ticks). On a dedicated pipe
    /// it is a fixed pipeline delay, matching Eq. 5's `θ_bit(r)/B` term
    /// (the uplink is provisioned per camera); under
    /// [`Uplinks::Shared`] it is the frame's service time on its
    /// server's one link, where frames serialize.
    pub trans: Ticks,
    /// Destination server index.
    pub server: usize,
    /// Arrival phase: frame `k`'s nominal arrival slot is
    /// `phase + k * period`, and the camera captures it `trans` earlier
    /// (at 0 if the slot is earlier than `trans`). Every [`Uplinks`]
    /// mode captures at these instants; a fixed dedicated pipe also
    /// delivers at the slot.
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
    /// Mean end-to-end latency across all measured frames (seconds):
    /// the [`RunningStats::merge`] of each server's accumulator, taken
    /// in server order.
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
    /// One uplink per server, shared by its streams: frames queue on
    /// the link in capture order, then on the CPU, each a FIFO. A
    /// frame holds the link for its `trans` (at least one tick), or
    /// with per-stream links (`Some`, one per stream; streams sharing a
    /// server should carry that server's trace) for `bits / B(start)`
    /// read at the start of its transmission. A constant trace at the
    /// nominal rate reproduces the `None` run exactly. Where no two
    /// frames meet on a link (one stream per server, transmissions
    /// shorter than the period), every `trans` is at least one tick and
    /// no capture saturates at 0, every stream report equals the
    /// dedicated pipe's. Utilization and the queue peak are the CPU's.
    Shared(Option<&'a [StreamLink]>),
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
/// Every stream is pinned to one server and servers share no state, so
/// the engine simulates each server's FIFO on its own, in server order:
/// the frame arrivals are seeded into one region per server, each
/// region is sorted by `(time, push order)`, and the server's single
/// in-flight frame is replayed against it. An arrival goes before a
/// completion at the same tick, which makes runs exactly replayable.
/// `uplinks` selects how frames reach the servers (see [`Uplinks`]);
/// a shared uplink is replayed the same way, before its server's CPU.
/// [`SimReport::mean_latency_s`] is the merge of the per-server latency
/// accumulators, taken in server order.
///
/// The run executes under a [`Phase::Des`] span and emits
/// event/frame/miss/drop/retry counters on `rec`; bonded uplinks also
/// stripe under a [`Phase::BondStripe`] span with `bond.*`
/// frame/packet/HoL and stripe-memo hit/miss counters. Telemetry
/// never changes the report: a [`NoopRecorder`](eva_obs::NoopRecorder)
/// run is bit-identical to a recorded one.
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
    let uplinks = validate(streams, uplinks, n_servers)?;
    Ok(run(streams, uplinks, n_servers, cfg, rec))
}

/// Check [`simulate`]'s inputs; an inert fault schedule comes back as
/// the fault-free uplinks it is equivalent to.
fn validate<'a>(
    streams: &[SimStream],
    uplinks: Uplinks<'a>,
    n_servers: usize,
) -> Result<Uplinks<'a>, SimError> {
    let per_stream = match &uplinks {
        Uplinks::Fixed | Uplinks::Faulted { links: None, .. } | Uplinks::Shared(None) => None,
        Uplinks::Links(links)
        | Uplinks::Faulted {
            links: Some(links), ..
        }
        | Uplinks::Shared(Some(links)) => Some(links.len()),
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
    Ok(uplinks)
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
    let Seeded {
        mut arrivals,
        mut tally,
        retries,
        faults,
        mut shared,
    } = seed(streams, uplinks, n_servers, cfg, rec);
    // Hot-loop telemetry accumulates in locals and is emitted once at
    // the end: no recorder dispatch inside the event loop.
    let mut totals = ServerTotals {
        busy_ticks: Vec::with_capacity(n_servers),
        max_queue_len: 0,
        events: 0,
        mean_latency_s: 0.0,
    };
    let mut latency = RunningStats::new();
    let mut fifo = VecDeque::new();
    for server in 0..n_servers {
        let region = arrivals.sorted_region(server);
        if let Some(uplink) = &mut shared {
            uplink.transmit(region, streams);
        }
        let run = run_server(server, region, streams, faults, cfg, &mut fifo, &mut tally);
        totals.busy_ticks.push(run.busy_ticks);
        totals.max_queue_len = totals.max_queue_len.max(run.max_queue_len);
        totals.events += run.events;
        latency.merge(&run.latency);
    }
    totals.mean_latency_s = latency.mean();
    report(streams, tally, totals, retries, cfg, rec)
}

/// A run's seeded frame arrivals, and what seeding already decided.
struct Seeded<'a> {
    /// Every delivered frame's arrival, in its server's region.
    arrivals: ServerArrivals,
    /// Per-stream measurements; faulted seeding has counted the frames
    /// that never reach a server.
    tally: Tally,
    /// Uplink retransmissions.
    retries: u64,
    /// The fault schedule servers run under, if any.
    faults: Option<&'a SimFaults>,
    /// The shared uplinks, if any: `arrivals` then holds captures,
    /// which the link turns into arrivals server by server.
    shared: Option<SharedUplink<'a>>,
}

/// Seed all frame arrivals within the horizon, stream by stream in
/// stream order. (Arrival = end of transmission; capture happened
/// `trans` earlier.) `slot` is the nominal arrival instant under the
/// fixed-`trans` model; with a link trace the arrival shifts by the
/// difference between the realized transmission time and the nominal
/// one, while capture stays anchored to the slot. Slow links can
/// reorder arrivals of consecutive frames' slots; the FIFO server
/// queue absorbs that.
fn seed<'a>(
    streams: &[SimStream],
    uplinks: Uplinks<'a>,
    n_servers: usize,
    cfg: &SimConfig,
    rec: &dyn Recorder,
) -> Seeded<'a> {
    let mut seeded = Seeded {
        arrivals: ServerArrivals::new(streams, n_servers, cfg),
        tally: Tally::new(streams.len()),
        retries: 0,
        faults: None,
        shared: None,
    };
    match uplinks {
        Uplinks::Fixed => seed_linked(streams, None, cfg, &mut seeded.arrivals),
        Uplinks::Links(links) => seed_linked(streams, Some(links), cfg, &mut seeded.arrivals),
        Uplinks::Bundles(bundles) => seed_bonded(streams, bundles, cfg, rec, &mut seeded.arrivals),
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
                    seeded.retries += u64::from(pf.attempts.saturating_sub(1));
                    match pf.arrival {
                        Some(t) => seeded.arrivals.push(s.server, t, i, pf.gen_time),
                        // Eligibility mirrors the completion path: keyed
                        // to the nominal arrival slot.
                        None => {
                            if pf.gen_time + s.trans >= cfg.warmup {
                                seeded.tally.dropped[i] += 1;
                            }
                        }
                    }
                }
            }
            seeded.faults = Some(faults);
        }
        Uplinks::Shared(links) => {
            seed_captures(streams, cfg, &mut seeded.arrivals);
            seeded.shared = Some(SharedUplink::new(links, streams.len()));
        }
    }
    seeded
}

/// What the servers' runs add up to.
struct ServerTotals {
    /// Busy ticks inside `[warmup, horizon]`, per server.
    busy_ticks: Vec<Ticks>,
    /// Deepest backlog of any server queue.
    max_queue_len: usize,
    /// Arrivals plus completions processed.
    events: u64,
    /// Mean latency (seconds) over every measured frame.
    mean_latency_s: f64,
}

/// Assemble the report and emit the run's counters on `rec`.
fn report(
    streams: &[SimStream],
    tally: Tally,
    totals: ServerTotals,
    retries: u64,
    cfg: &SimConfig,
    rec: &dyn Recorder,
) -> SimReport {
    let span = (cfg.horizon.saturating_sub(cfg.warmup)).max(1) as f64;
    let reports: Vec<StreamReport> = streams
        .iter()
        .zip(tally.latency)
        .enumerate()
        .map(|(i, (s, latency))| StreamReport {
            id: s.id,
            jitter_s: latency.range(),
            frames: tally.frames[i],
            deadline_misses: tally.misses[i],
            dropped: tally.dropped[i],
            latency,
        })
        .collect();
    let max_jitter_s = reports.iter().map(|r| r.jitter_s).fold(0.0, f64::max);
    if rec.enabled() {
        rec.add("des.runs", 1);
        rec.add("des.events", totals.events);
        rec.add("des.retries", retries);
        rec.add("des.frames", reports.iter().map(|r| r.frames).sum());
        rec.add(
            "des.deadline_misses",
            reports.iter().map(|r| r.deadline_misses).sum(),
        );
        rec.add("des.dropped", reports.iter().map(|r| r.dropped).sum());
        rec.observe("des.max_queue_len", totals.max_queue_len as f64);
    }
    SimReport {
        streams: reports,
        server_utilization: totals
            .busy_ticks
            .iter()
            .map(|&b| (b as f64 / span).min(1.0))
            .collect(),
        mean_latency_s: totals.mean_latency_s,
        max_jitter_s,
        max_queue_len: totals.max_queue_len,
    }
}

/// Seed the arrivals of fixed (`links = None`) or traced uplinks.
fn seed_linked(
    streams: &[SimStream],
    links: Option<&[StreamLink]>,
    cfg: &SimConfig,
    arrivals: &mut ServerArrivals,
) {
    for (i, s) in streams.iter().enumerate() {
        // Capture times only grow, so the trace is read forward.
        let mut seen = 0;
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
                    let rate = link.trace.rate_from(&mut seen, gen_time);
                    let d = secs_to_ticks(link.bits_per_frame / rate);
                    (slot + d).saturating_sub(s.trans)
                }
            };
            arrivals.push(s.server, arrival, i, gen_time);
            k += 1;
        }
    }
}

/// Seed the captures of shared uplinks, at the same instants as a
/// dedicated pipe's; [`SharedUplink::transmit`] turns them into
/// arrivals.
fn seed_captures(streams: &[SimStream], cfg: &SimConfig, arrivals: &mut ServerArrivals) {
    for (i, s) in streams.iter().enumerate() {
        let mut k: Ticks = 0;
        loop {
            let slot = s.phase + k * s.period;
            if slot >= cfg.horizon {
                break;
            }
            let gen_time = slot.saturating_sub(s.trans);
            arrivals.push(s.server, gen_time, i, gen_time);
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
    arrivals: &mut ServerArrivals,
) {
    let _stripe_span = span(rec, Phase::BondStripe);
    let mut bond_frames = 0u64;
    let mut bond_packets = 0u64;
    let mut bond_hol_s = 0.0f64;
    let mut bond_depth = 0usize;
    let mut memo_hits = 0u64;
    let mut memo_misses = 0u64;
    for (i, s) in streams.iter().enumerate() {
        let b = &mut bundles[i];
        let (hits_before, misses_before) = (b.sim.stripe_memo_hits(), b.sim.stripe_memo_misses());
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
            arrivals.push(s.server, arrival, i, gen_time);
            k += 1;
        }
        memo_hits += b.sim.stripe_memo_hits() - hits_before;
        memo_misses += b.sim.stripe_memo_misses() - misses_before;
    }
    if rec.enabled() {
        rec.add("bond.frames", bond_frames);
        rec.add("bond.stripe_memo_hits", memo_hits);
        rec.add("bond.stripe_memo_misses", memo_misses);
        rec.add("bond.packets", bond_packets);
        rec.observe("bond.hol_wait_s", bond_hol_s);
        rec.observe("bond.max_reorder_depth", bond_depth as f64);
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
        assert_eq!(err(&streams, Uplinks::Shared(Some(&links)), 1), want);
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

    fn shared(streams: &[SimStream], links: Option<&[StreamLink]>, n_servers: usize) -> SimReport {
        let uplinks = Uplinks::Shared(links);
        simulate(streams, uplinks, n_servers, &short_cfg(), &NoopRecorder).unwrap()
    }

    #[test]
    fn single_stream_on_a_shared_link_matches_the_dedicated_pipe() {
        // One stream: the shared link never contends, so latency is
        // exactly trans + proc, frame for frame.
        let s = sim_stream(0, 100_000, 20_000, 5_000, 0, 0);
        let r = shared(&[s], None, 1);
        assert_eq!(
            format!("{:?}", r.streams),
            format!("{:?}", fixed(&[s], 1, &short_cfg()).streams)
        );
        assert!((r.streams[0].latency.mean() - 0.025).abs() < 1e-9);
        assert_eq!(r.streams[0].jitter_s, 0.0);
    }

    #[test]
    fn shared_link_serializes_simultaneous_frames() {
        // Two synchronized streams share one uplink with 10ms frames:
        // the second frame waits 10ms on the link every period.
        let a = sim_stream(0, 100_000, 5_000, 10_000, 0, 0);
        let b = sim_stream(1, 100_000, 5_000, 10_000, 0, 0);
        let r = shared(&[a, b], None, 1);
        // The first captured sees 15ms (10 trans + 5 proc), the other
        // also queues 10ms on the link.
        assert!((r.streams[0].latency.mean() - 0.015).abs() < 1e-9);
        assert!((r.streams[1].latency.mean() - 0.025).abs() < 1e-9);
        assert_eq!(r.max_jitter_s, 0.0);
    }

    #[test]
    fn dedicated_model_underestimates_shared_contention() {
        // Three bursty streams on one uplink: the shared-link latency
        // must exceed the dedicated model's trans + proc.
        let streams: Vec<SimStream> = (0..3)
            .map(|i| sim_stream(i, 100_000, 10_000, 20_000, 0, 0))
            .collect();
        let r = shared(&streams, None, 1);
        let worst = r
            .streams
            .iter()
            .map(|s| s.latency.mean())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(worst > 0.030 + 0.01, "no serialization visible: {worst}");
    }

    #[test]
    fn overloaded_shared_link_accumulates() {
        // Link demand 2x capacity: latency grows without bound.
        let a = sim_stream(0, 100_000, 1_000, 100_000, 0, 0);
        let b = sim_stream(1, 100_000, 1_000, 100_000, 0, 0);
        let r = shared(&[a, b], None, 1);
        assert!(r.max_jitter_s > 1.0, "jitter {}", r.max_jitter_s);
    }

    #[test]
    fn constant_link_matches_fixed_trans_shared_link() {
        let streams: Vec<SimStream> = (0..3)
            .map(|i| sim_stream(i, 100_000, 10_000, 20_000, 0, 7_000 * i as Ticks))
            .collect();
        let links: Vec<StreamLink> = streams
            .iter()
            .map(|s| nominal_link(s.trans, 15e6))
            .collect();
        let base = shared(&streams, None, 1);
        let traced = shared(&streams, Some(&links), 1);
        assert_eq!(
            format!("{:?}", base.streams),
            format!("{:?}", traced.streams)
        );
        assert_eq!(
            base.mean_latency_s.to_bits(),
            traced.mean_latency_s.to_bits()
        );
    }

    #[test]
    fn fading_shared_link_serializes_harder() {
        // A link oscillating below the nominal rate lengthens service
        // times; the backlog and latency must exceed the constant-rate
        // run's.
        let streams: Vec<SimStream> = (0..2)
            .map(|i| sim_stream(i, 100_000, 5_000, 30_000, 0, 0))
            .collect();
        let nominal = 12e6;
        let link = |model: eva_net::LinkModel| StreamLink {
            bits_per_frame: 0.030 * nominal,
            trace: model.trace(10 * TICKS_PER_SEC),
        };
        let steady = vec![link(eva_net::LinkModel::constant(nominal)); 2];
        let fading = vec![
            link(eva_net::LinkModel::gilbert_elliott(
                nominal,
                nominal / 3.0,
                1.0,
                1.0,
                3
            ));
            2
        ];
        let a = shared(&streams, Some(&steady), 1);
        let b = shared(&streams, Some(&fading), 1);
        assert!(
            b.mean_latency_s > a.mean_latency_s,
            "fading {} vs steady {}",
            b.mean_latency_s,
            a.mean_latency_s
        );
        assert!(b.max_jitter_s > a.max_jitter_s);
    }

    #[test]
    fn distinct_servers_do_not_share_links() {
        let a = sim_stream(0, 100_000, 5_000, 50_000, 0, 0);
        let b = sim_stream(1, 100_000, 5_000, 50_000, 1, 0);
        let r = shared(&[a, b], None, 2);
        for s in &r.streams {
            assert!((s.latency.mean() - 0.055).abs() < 1e-9);
            assert_eq!(s.jitter_s, 0.0);
        }
    }

    /// The engine the per-server loop replaced, kept as the
    /// differential oracle: every arrival of the run in one global sort
    /// by `(time, push order)`, merged with one completion heap across
    /// all servers. Seeding and report assembly are shared; the event
    /// loop is the old one, `mean_latency_s` included (one Welford
    /// accumulator in global completion order).
    mod global_oracle {
        use std::collections::VecDeque;

        use eva_obs::Recorder;
        use eva_sched::{Ticks, TICKS_PER_SEC};
        use eva_stats::RunningStats;

        use crate::des::{
            report, seed, validate, Seeded, ServerTotals, SimConfig, SimError, SimReport,
            SimStream, Uplinks,
        };
        use crate::event::{ArrivalList, Event, EventQueue};
        use crate::fault::{service_end, SimFaults, TraceCursor};

        struct ServerState {
            queue: VecDeque<(usize, Ticks)>, // (stream index, gen_time)
            busy: bool,
            busy_ticks: Ticks,
        }

        /// [`crate::des::simulate`] with the global event loop.
        pub(super) fn simulate(
            streams: &[SimStream],
            uplinks: Uplinks<'_>,
            n_servers: usize,
            cfg: &SimConfig,
            rec: &dyn Recorder,
        ) -> Result<SimReport, SimError> {
            let uplinks = validate(streams, uplinks, n_servers)?;
            let Seeded {
                arrivals: regions,
                mut tally,
                retries,
                faults,
                ..
            } = seed(streams, uplinks, n_servers, cfg, rec);
            let mut arrivals = ArrivalList::new();
            for a in regions.in_push_order() {
                arrivals.push(a.time, a.stream as usize, a.gen_time);
            }
            let mut queue = EventQueue::new(arrivals);
            let mut servers: Vec<ServerState> = (0..n_servers)
                .map(|_| ServerState {
                    queue: VecDeque::new(),
                    busy: false,
                    busy_ticks: 0,
                })
                .collect();
            let mut total_lat = RunningStats::new();
            let mut max_queue_len = 0usize;
            let mut n_events = 0u64;
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
                        let Some((stream, gen_time, start)) = in_flight[server].take() else {
                            continue;
                        };
                        servers[server].busy = false;
                        let clipped_start = start.max(cfg.warmup);
                        let clipped_end = now.min(cfg.horizon).max(clipped_start);
                        servers[server].busy_ticks += clipped_end - clipped_start;
                        let arrival = gen_time + streams[stream].trans;
                        if arrival >= cfg.warmup {
                            let latency_s = (now - gen_time) as f64 / TICKS_PER_SEC as f64;
                            tally.latency[stream].push(latency_s);
                            tally.frames[stream] += 1;
                            if cfg.deadline > 0 && now > gen_time + cfg.deadline {
                                tally.misses[stream] += 1;
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
            for (sv_idx, sv) in servers.iter().enumerate() {
                let stranded = in_flight[sv_idx].map(|(stream, gen_time, _)| (stream, gen_time));
                for (stream, gen_time) in stranded.into_iter().chain(sv.queue.iter().copied()) {
                    if gen_time + streams[stream].trans >= cfg.warmup {
                        tally.dropped[stream] += 1;
                    }
                }
            }
            let totals = ServerTotals {
                busy_ticks: servers.iter().map(|s| s.busy_ticks).collect(),
                max_queue_len,
                events: n_events,
                mean_latency_s: total_lat.mean(),
            };
            Ok(report(streams, tally, totals, retries, cfg, rec))
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
                return;
            };
            sv.busy = true;
            in_flight[server] = Some((stream, gen_time, now));
            let done = match faults {
                None => Some(now + streams[stream].proc),
                Some(f) => service_end(
                    now,
                    streams[stream].proc,
                    &f.server_up[server],
                    &f.server_slow[server],
                    cfg.horizon.saturating_mul(2),
                    &mut TraceCursor::default(),
                ),
            };
            if let Some(t) = done {
                queue.push_done(t, server);
            }
        }
    }

    /// The shared-uplink engine the per-server replay replaced, kept as
    /// the differential oracle for [`Uplinks::Shared`]: an uplink and a
    /// CPU station per server in one global loop over captures and
    /// completions. Captures pop before completions at the same tick,
    /// and completions in push order. Captures and the warmup rule
    /// follow [`SimStream`]'s convention; the event loop is the old one,
    /// `mean_latency_s` included (one Welford accumulator in global
    /// completion order).
    mod tandem_oracle {
        use std::collections::VecDeque;

        use eva_net::link::secs_to_ticks;
        use eva_sched::{Ticks, TICKS_PER_SEC};
        use eva_stats::RunningStats;

        use crate::des::{SimConfig, SimStream, StreamLink};
        use crate::event::{ArrivalList, Event, EventQueue};

        /// Per-stream latencies and measured frames, and the run mean.
        pub(super) struct OracleReport {
            pub(super) streams: Vec<(RunningStats, u64)>,
            pub(super) mean_latency_s: f64,
        }

        #[derive(Debug, Clone, Copy)]
        struct Frame {
            stream: usize,
            gen_time: Ticks,
        }

        struct Station {
            queue: VecDeque<Frame>,
            busy: bool,
        }

        impl Station {
            fn new() -> Self {
                Station {
                    queue: VecDeque::new(),
                    busy: false,
                }
            }
        }

        /// The shared-uplink run of `streams` (validated by the caller).
        pub(super) fn simulate(
            streams: &[SimStream],
            links: Option<&[StreamLink]>,
            n_servers: usize,
            cfg: &SimConfig,
        ) -> OracleReport {
            // Capture events. `Event::FrameArrival` is "frame
            // captured"; the pipeline stage is in the handler's state.
            let mut arrivals = ArrivalList::new();
            for (i, s) in streams.iter().enumerate() {
                let mut k: Ticks = 0;
                loop {
                    let slot = s.phase + k * s.period;
                    if slot >= cfg.horizon {
                        break;
                    }
                    let gen = slot.saturating_sub(s.trans);
                    arrivals.push(gen, i, gen);
                    k += 1;
                }
            }
            let mut queue = EventQueue::new(arrivals);

            let mut link_q: Vec<Station> = (0..n_servers).map(|_| Station::new()).collect();
            let mut cpus: Vec<Station> = (0..n_servers).map(|_| Station::new()).collect();
            // In-flight frame per station: link j -> done id 2j, cpu
            // j -> 2j + 1.
            let mut link_frame: Vec<Option<Frame>> = vec![None; n_servers];
            let mut cpu_frame: Vec<Option<Frame>> = vec![None; n_servers];

            let mut stats: Vec<RunningStats> =
                streams.iter().map(|_| RunningStats::new()).collect();
            let mut counts = vec![0u64; streams.len()];
            let mut total = RunningStats::new();

            while let Some((now, event)) = queue.pop() {
                match event {
                    Event::FrameArrival { stream, gen_time } => {
                        // Captured: join the uplink FIFO of its server.
                        let sv = streams[stream].server;
                        link_q[sv].queue.push_back(Frame { stream, gen_time });
                        if !link_q[sv].busy {
                            start_link(
                                sv,
                                now,
                                streams,
                                links,
                                &mut link_q,
                                &mut link_frame,
                                &mut queue,
                            );
                        }
                    }
                    Event::ServerDone { server } => {
                        let sv = server / 2;
                        if server % 2 == 0 {
                            // Uplink finished: the frame moves to the
                            // CPU FIFO. A done-event with no in-flight
                            // frame would be an engine bug; tolerate it
                            // as a no-op rather than panicking
                            // mid-simulation.
                            let Some(frame) = link_frame[sv].take() else {
                                debug_assert!(false, "link done without frame");
                                continue;
                            };
                            link_q[sv].busy = false;
                            cpus[sv].queue.push_back(frame);
                            if !cpus[sv].busy {
                                start_cpu(sv, now, streams, &mut cpus, &mut cpu_frame, &mut queue);
                            }
                            if !link_q[sv].queue.is_empty() {
                                start_link(
                                    sv,
                                    now,
                                    streams,
                                    links,
                                    &mut link_q,
                                    &mut link_frame,
                                    &mut queue,
                                );
                            }
                        } else {
                            // CPU finished: the frame completes (same
                            // no-op tolerance as the uplink stage).
                            let Some(frame) = cpu_frame[sv].take() else {
                                debug_assert!(false, "cpu done without frame");
                                continue;
                            };
                            cpus[sv].busy = false;
                            if frame.gen_time + streams[frame.stream].trans >= cfg.warmup {
                                let lat = (now - frame.gen_time) as f64 / TICKS_PER_SEC as f64;
                                stats[frame.stream].push(lat);
                                counts[frame.stream] += 1;
                                total.push(lat);
                            }
                            if !cpus[sv].queue.is_empty() {
                                start_cpu(sv, now, streams, &mut cpus, &mut cpu_frame, &mut queue);
                            }
                        }
                    }
                }
            }
            OracleReport {
                streams: stats.into_iter().zip(counts).collect(),
                mean_latency_s: total.mean(),
            }
        }

        fn start_link(
            sv: usize,
            now: Ticks,
            streams: &[SimStream],
            links: Option<&[StreamLink]>,
            link_q: &mut [Station],
            link_frame: &mut [Option<Frame>],
            queue: &mut EventQueue,
        ) {
            // Callers only start the station when the FIFO is
            // non-empty; an empty pop is a no-op, not a panic.
            let Some(frame) = link_q[sv].queue.pop_front() else {
                debug_assert!(false, "start_link: empty");
                return;
            };
            link_q[sv].busy = true;
            // Service time: nominal `trans`, or `bits / B(now)` sampled
            // from the link trace at transmission start.
            let trans = match links.map(|ls| &ls[frame.stream]) {
                None => streams[frame.stream].trans.max(1),
                Some(link) => secs_to_ticks(link.bits_per_frame / link.trace.rate_at(now)).max(1),
            };
            link_frame[sv] = Some(frame);
            queue.push_done(now + trans, 2 * sv);
        }

        fn start_cpu(
            sv: usize,
            now: Ticks,
            streams: &[SimStream],
            cpus: &mut [Station],
            cpu_frame: &mut [Option<Frame>],
            queue: &mut EventQueue,
        ) {
            let Some(frame) = cpus[sv].queue.pop_front() else {
                debug_assert!(false, "start_cpu: empty");
                return;
            };
            cpus[sv].busy = true;
            let proc = streams[frame.stream].proc;
            cpu_frame[sv] = Some(frame);
            queue.push_done(now + proc, 2 * sv + 1);
        }
    }

    mod differential {
        use eva_bond::{BondPolicy, BondedLink, LinkBundle};
        use eva_fault::{AvailabilityTrace, LossProcess, RetryPolicy, SlowdownTrace};
        use eva_net::LinkModel;
        use eva_obs::FlightRecorder;
        use proptest::prelude::*;

        use super::super::*;
        use super::{global_oracle, tandem_oracle};

        const HORIZON: Ticks = 3 * TICKS_PER_SEC;

        /// Raw draws for one stream: period, proc, trans, server and
        /// phase choices.
        type RawStream = (usize, usize, usize, usize, usize);

        fn raw_placement() -> impl Strategy<Value = (usize, Vec<RawStream>, usize)> {
            (
                1usize..5,
                prop::collection::vec(
                    (0usize..4, 0usize..6, 0usize..3, 0usize..8, 0usize..5),
                    1..11,
                ),
                // Phases: 0 = drawn from a few shared values, 1 = the
                // Theorem-1 offsets of each server's streams, 2 = all
                // zero. Bit 2 enables a deadline.
                0usize..6,
            )
        }

        /// Streams with dense ties: few distinct periods, processing
        /// and transmission times, and phases shared within and across
        /// servers. Theorem-1 phasing offsets each server's streams by
        /// the processing times of the streams before them.
        fn placement(
            n_servers: usize,
            raw: &[RawStream],
            mode: usize,
        ) -> (Vec<SimStream>, SimConfig) {
            let mut offset = vec![0; n_servers];
            let streams = raw
                .iter()
                .enumerate()
                .map(|(i, &(period, proc, trans, server, phase))| {
                    let period = [40_000, 50_000, 100_000, 200_000][period];
                    let proc = [5_000, 10_000, 20_000, 25_000, 40_000, 90_000][proc];
                    let server = server % n_servers;
                    let phase = match mode % 3 {
                        0 => [0, 10_000, 20_000, 25_000, 50_000][phase],
                        1 => {
                            let o = offset[server];
                            offset[server] += proc;
                            o
                        }
                        _ => 0,
                    };
                    SimStream {
                        id: StreamId::source(i),
                        period,
                        proc,
                        trans: [0, 5_000, 12_000][trans],
                        server,
                        phase,
                    }
                })
                .collect();
            let cfg = SimConfig {
                horizon: HORIZON,
                warmup: TICKS_PER_SEC / 2,
                deadline: if mode >= 3 { 60_000 } else { 0 },
            };
            (streams, cfg)
        }

        /// Per-stream links: constant at the nominal rate (arrival ties
        /// survive) or a two-state Markov link seeded by `seed`.
        fn links(streams: &[SimStream], seed: u64) -> Vec<StreamLink> {
            streams
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let bits_per_frame = s.trans.max(1_000) as f64 / TICKS_PER_SEC as f64 * 20e6;
                    let model = if (seed + i as u64).is_multiple_of(3) {
                        LinkModel::constant(20e6)
                    } else {
                        LinkModel::gilbert_elliott(20e6, 4e6, 0.5, 0.3, seed + i as u64)
                    };
                    StreamLink {
                        bits_per_frame,
                        trace: model.trace(HORIZON + 1),
                    }
                })
                .collect()
        }

        /// Run both engines and compare them: every stream report,
        /// utilization, the queue peak, the event and drop counters bit
        /// for bit, and the mean latency within 1e-12 relative.
        fn assert_engines_agree(
            streams: &[SimStream],
            per_server: Uplinks<'_>,
            global: Uplinks<'_>,
            n_servers: usize,
            cfg: &SimConfig,
        ) {
            let (fa, fb) = (FlightRecorder::new(), FlightRecorder::new());
            let a = simulate(streams, per_server, n_servers, cfg, &fa).unwrap();
            let b = global_oracle::simulate(streams, global, n_servers, cfg, &fb).unwrap();
            // `{:?}` prints each f64 as its shortest round-trip form, so
            // equal strings mean equal bits.
            assert_eq!(format!("{:?}", a.streams), format!("{:?}", b.streams));
            let bits = |r: &SimReport| -> Vec<u64> {
                r.server_utilization.iter().map(|u| u.to_bits()).collect()
            };
            assert_eq!(bits(&a), bits(&b), "server utilization");
            assert_eq!(a.max_queue_len, b.max_queue_len, "max queue length");
            assert_eq!(a.max_jitter_s.to_bits(), b.max_jitter_s.to_bits());
            assert_eq!(a.total_dropped(), b.total_dropped());
            let (sa, sb) = (fa.snapshot(), fb.snapshot());
            for name in ["des.events", "des.dropped", "des.frames", "des.retries"] {
                assert_eq!(sa.metrics.counter(name), sb.metrics.counter(name), "{name}");
            }
            let scale = a.mean_latency_s.abs().max(b.mean_latency_s.abs());
            assert!(
                (a.mean_latency_s - b.mean_latency_s).abs() <= 1e-12 * scale,
                "mean latency {} vs {}",
                a.mean_latency_s,
                b.mean_latency_s
            );
        }

        /// Markov links whose bad state is slow enough that a frame
        /// sent in it arrives after later frames of its stream, and
        /// every stream at phase 0, so arrivals also tie across
        /// streams: seeding pushes runs that are not ascending, and the
        /// per-server replay still equals the global loop.
        #[test]
        fn overtaking_frames_match_the_global_loop() {
            let n_servers = 2;
            let streams: Vec<SimStream> = (0..6)
                .map(|i| SimStream {
                    id: StreamId::source(i),
                    period: [100_000, 200_000, 500_000][i % 3],
                    proc: 10_000,
                    trans: 50_000,
                    server: i % n_servers,
                    phase: 0,
                })
                .collect();
            let cfg = SimConfig {
                horizon: 20 * TICKS_PER_SEC,
                warmup: TICKS_PER_SEC,
                deadline: TICKS_PER_SEC / 2,
            };
            // 1 Mbit frames: 0.05 s in the good state, 3.3 s in the bad.
            let links: Vec<StreamLink> = (0..streams.len() as u64)
                .map(|i| StreamLink {
                    bits_per_frame: 1e6,
                    trace: LinkModel::gilbert_elliott(20e6, 0.3e6, 3.0, 1.0, 1_700 + i)
                        .trace(cfg.horizon),
                })
                .collect();
            let seeded = seed(
                &streams,
                Uplinks::Links(&links),
                n_servers,
                &cfg,
                &eva_obs::NoopRecorder,
            );
            let pushed = seeded.arrivals.in_push_order();
            let overtaken = pushed
                .windows(2)
                .filter(|w| w[0].stream == w[1].stream && w[1].time < w[0].time)
                .count();
            assert!(overtaken > 0, "no frame overtook an earlier one");
            assert_engines_agree(
                &streams,
                Uplinks::Links(&links),
                Uplinks::Links(&links),
                n_servers,
                &cfg,
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn fixed_uplinks_match_the_global_loop(
                (n_servers, raw, mode) in raw_placement(),
            ) {
                let (streams, cfg) = placement(n_servers, &raw, mode);
                assert_engines_agree(&streams, Uplinks::Fixed, Uplinks::Fixed, n_servers, &cfg);
            }

            #[test]
            fn traced_links_match_the_global_loop(
                (n_servers, raw, mode) in raw_placement(),
                seed in 0u64..1_000,
            ) {
                let (streams, cfg) = placement(n_servers, &raw, mode);
                let links = links(&streams, seed);
                assert_engines_agree(
                    &streams,
                    Uplinks::Links(&links),
                    Uplinks::Links(&links),
                    n_servers,
                    &cfg,
                );
            }

            #[test]
            fn bonded_uplinks_match_the_global_loop(
                (n_servers, raw, mode) in raw_placement(),
                (seed, members, policy) in (0u64..1_000, 1usize..4, 0usize..3),
            ) {
                let (streams, cfg) = placement(n_servers, &raw, mode);
                let policy = [
                    BondPolicy::RoundRobin,
                    BondPolicy::RateWeighted,
                    BondPolicy::EarliestDelivery,
                ][policy];
                let bundles: Vec<StreamBundle> = streams
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let c = seed + i as u64;
                        let mut links = vec![BondedLink::new(
                            LinkModel::gilbert_elliott(12e6, 4e6, 0.5, 0.3, c),
                            0.010,
                        )];
                        if members > 1 {
                            links.push(BondedLink::new(LinkModel::constant(8e6), 0.030));
                        }
                        if members > 2 {
                            links.push(BondedLink::new(
                                LinkModel::gilbert_elliott(6e6, 2e6, 0.5, 0.3, c + 1_000),
                                0.050,
                            ));
                        }
                        StreamBundle {
                            bits_per_frame: s.trans.max(1_000) as f64 / TICKS_PER_SEC as f64 * 20e6,
                            sim: LinkBundle::new(links).simulator(HORIZON + 1, policy),
                        }
                    })
                    .collect();
                let (mut a, mut b) = (bundles.clone(), bundles);
                assert_engines_agree(
                    &streams,
                    Uplinks::Bundles(&mut a),
                    Uplinks::Bundles(&mut b),
                    n_servers,
                    &cfg,
                );
            }

            /// Dense ties on shared uplinks, over fixed links (`trans` 0
            /// included), mixed constant and Markov links, or constant
            /// links at the nominal rate.
            #[test]
            fn shared_uplinks_match_the_tandem_loop(
                (n_servers, raw, mode) in raw_placement(),
                (seed, link_kind) in (0u64..1_000, 0usize..3),
            ) {
                let (streams, cfg) = placement(n_servers, &raw, mode);
                let links = match link_kind {
                    0 => None,
                    1 => Some(links(&streams, seed)),
                    _ => Some(
                        streams
                            .iter()
                            .map(|s| StreamLink {
                                bits_per_frame: s.trans as f64 / TICKS_PER_SEC as f64 * 20e6,
                                trace: LinkModel::constant(20e6).trace(HORIZON + 1),
                            })
                            .collect(),
                    ),
                };
                let links = links.as_deref();
                let a = simulate(&streams, Uplinks::Shared(links), n_servers, &cfg, &eva_obs::NoopRecorder)
                    .unwrap();
                let b = tandem_oracle::simulate(&streams, links, n_servers, &cfg);
                let mut max_jitter_s = 0.0f64;
                for (x, (latency, frames)) in a.streams.iter().zip(&b.streams) {
                    // `{:?}` prints each f64 as its shortest round-trip
                    // form, so equal strings mean equal bits.
                    prop_assert_eq!(format!("{:?}", x.latency), format!("{latency:?}"));
                    prop_assert_eq!(x.frames, *frames);
                    prop_assert_eq!(x.jitter_s.to_bits(), latency.range().to_bits());
                    max_jitter_s = max_jitter_s.max(latency.range());
                }
                prop_assert_eq!(a.max_jitter_s.to_bits(), max_jitter_s.to_bits());
                let scale = a.mean_latency_s.abs().max(b.mean_latency_s.abs());
                prop_assert!(
                    (a.mean_latency_s - b.mean_latency_s).abs() <= 1e-12 * scale,
                    "mean latency {} vs {}",
                    a.mean_latency_s,
                    b.mean_latency_s
                );
            }

            /// Crashes that recover and crashes that never do, straggler
            /// bursts, camera dropout, and loss with or without retry,
            /// over fixed or traced links.
            #[test]
            fn faulted_uplinks_match_the_global_loop(
                (n_servers, raw, mode) in raw_placement(),
                (seed, server_faults, camera_faults, loss, retry, traced) in
                    (0u64..1_000, 0usize..64, 0usize..8, 0usize..3, 0usize..2, 0usize..2),
            ) {
                let (streams, cfg) = placement(n_servers, &raw, mode);
                let at = |k: u64| k * TICKS_PER_SEC / 10 + seed % 7 * 1_000;
                let faults = SimFaults {
                    // Per server (two bits each): up, a crash at 0.8 s
                    // that recovers at 1.5 s, a crash at 1.2 s that
                    // never recovers, or down from the start.
                    server_up: (0..n_servers)
                        .map(|j| {
                            let toggles = match (server_faults >> (2 * j)) & 3 {
                                0 => vec![],
                                1 => vec![at(8), at(15)],
                                2 => vec![at(12)],
                                _ => vec![0],
                            };
                            AvailabilityTrace::from_toggles(toggles, cfg.horizon + 1)
                        })
                        .collect(),
                    server_slow: (0..n_servers)
                        .map(|j| {
                            if (server_faults + j).is_multiple_of(3) {
                                SlowdownTrace::from_toggles(vec![at(6), at(20)], 2.5)
                            } else {
                                SlowdownTrace::nominal()
                            }
                        })
                        .collect(),
                    camera_up: (0..streams.len())
                        .map(|c| {
                            let toggles = if (camera_faults + c).is_multiple_of(4) {
                                vec![at(10), at(14)]
                            } else {
                                vec![]
                            };
                            AvailabilityTrace::from_toggles(toggles, cfg.horizon + 1)
                        })
                        .collect(),
                    loss: (0..streams.len())
                        .map(|c| LossProcess::bernoulli([0.0, 0.1, 0.4][loss], seed + c as u64))
                        .collect(),
                    retry: [RetryPolicy::standard(), RetryPolicy::no_retry()][retry],
                };
                let links = links(&streams, seed);
                let links = (traced == 1).then_some(links.as_slice());
                assert_engines_agree(
                    &streams,
                    Uplinks::Faulted { links, faults: &faults },
                    Uplinks::Faulted { links, faults: &faults },
                    n_servers,
                    &cfg,
                );
            }
        }
    }
}
