//! Tandem-queue simulation: shared per-server uplinks.
//!
//! The paper (and [`crate::des`]) models transmission as a dedicated
//! per-camera pipe — Eq. 5 charges each frame `θ_bit/B` independently.
//! Real deployments often funnel several cameras through one radio
//! link per server, where frames *serialize*. This module extends the
//! DES with a two-stage tandem queue per server:
//!
//! ```text
//! camera ──> [ uplink FIFO (trans) ] ──> [ CPU FIFO (proc) ] ──> done
//! ```
//!
//! Used by the shared-uplink sensitivity extension and as a
//! stress-test oracle: with a single stream per server the tandem model
//! must agree exactly with the dedicated-pipe model.

use std::collections::VecDeque;

use eva_net::link::secs_to_ticks;
use eva_obs::{NoopRecorder, Recorder};
use eva_sched::{Ticks, TICKS_PER_SEC};
use eva_stats::RunningStats;

use crate::des::{SimConfig, SimStream, StreamLink};
use crate::event::{ArrivalList, Event, EventQueue};

/// Per-stream results of a tandem run.
#[derive(Debug, Clone)]
pub struct TandemStreamReport {
    /// End-to-end latency statistics (seconds).
    pub latency: RunningStats,
    /// Max − min latency (seconds).
    pub jitter_s: f64,
    /// Frames measured post-warmup.
    pub frames: u64,
}

/// Whole-run results.
#[derive(Debug, Clone)]
pub struct TandemReport {
    /// Per-stream reports, in input order.
    pub streams: Vec<TandemStreamReport>,
    /// Mean latency across measured frames (seconds).
    pub mean_latency_s: f64,
    /// Largest per-stream jitter (seconds).
    pub max_jitter_s: f64,
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

/// Run the shared-uplink tandem simulation. `stream.phase` is the
/// *generation* phase (frame `k` is captured at `phase + k·period`);
/// `stream.trans` is its service time on the shared uplink.
///
/// With `links` the link rates vary over time: a frame starting
/// transmission at `t` occupies the link for `bits / B(t)`
/// (quasi-static per frame) instead of the fixed `stream.trans`.
/// `links` is aligned with `streams`; streams sharing a server should
/// carry (clones of) that server's trace. A constant trace at the
/// nominal rate reproduces the `links = None` run exactly.
pub fn simulate_shared_uplink(
    streams: &[SimStream],
    links: Option<&[StreamLink]>,
    n_servers: usize,
    cfg: &SimConfig,
) -> TandemReport {
    if let Some(links) = links {
        assert_eq!(
            streams.len(),
            links.len(),
            "tandem: one link binding per stream"
        );
    }
    tandem_inner(streams, links, n_servers, cfg, &NoopRecorder)
}

/// The shared-uplink engine. `rec` receives `des.heap_peak`: the
/// completion heap holds at most one event per uplink and one per CPU.
fn tandem_inner(
    streams: &[SimStream],
    links: Option<&[StreamLink]>,
    n_servers: usize,
    cfg: &SimConfig,
    rec: &dyn Recorder,
) -> TandemReport {
    assert!(
        streams.iter().all(|s| s.server < n_servers),
        "tandem: stream assigned to nonexistent server"
    );
    // Generation events. We reuse `Event::FrameArrival` as "frame
    // captured" and encode the pipeline stage in the handler's state.
    let mut arrivals = ArrivalList::new();
    for (i, s) in streams.iter().enumerate() {
        let mut k: Ticks = 0;
        loop {
            let gen = s.phase + k * s.period;
            if gen >= cfg.horizon {
                break;
            }
            arrivals.push(gen, i, gen);
            k += 1;
        }
    }
    let mut queue = EventQueue::new(arrivals);

    let mut link_q: Vec<Station> = (0..n_servers).map(|_| Station::new()).collect();
    let mut cpus: Vec<Station> = (0..n_servers).map(|_| Station::new()).collect();
    // In-flight frame per station: links use even ids, CPUs odd ids in
    // the ServerDone event's `server` field: link j -> 2j, cpu j -> 2j+1.
    let mut link_frame: Vec<Option<Frame>> = vec![None; n_servers];
    let mut cpu_frame: Vec<Option<Frame>> = vec![None; n_servers];

    let mut stats: Vec<RunningStats> = streams.iter().map(|_| RunningStats::new()).collect();
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
                    // Uplink finished: frame moves to the CPU FIFO. A
                    // done-event with no in-flight frame would be an
                    // engine bug; tolerate it as a no-op rather than
                    // panicking mid-simulation.
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
                    // CPU finished: frame completes (same no-op
                    // tolerance as the uplink stage).
                    let Some(frame) = cpu_frame[sv].take() else {
                        debug_assert!(false, "cpu done without frame");
                        continue;
                    };
                    cpus[sv].busy = false;
                    if frame.gen_time >= cfg.warmup {
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

    let reports: Vec<TandemStreamReport> = stats
        .iter()
        .zip(&counts)
        .map(|(s, &frames)| TandemStreamReport {
            latency: s.clone(),
            jitter_s: s.range(),
            frames,
        })
        .collect();
    let max_jitter_s = reports.iter().map(|r| r.jitter_s).fold(0.0, f64::max);
    if rec.enabled() {
        rec.observe("des.heap_peak", queue.heap_peak() as f64);
    }
    TandemReport {
        streams: reports,
        mean_latency_s: total.mean(),
        max_jitter_s,
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
    // Callers only start the station when the FIFO is non-empty; an
    // empty pop is a no-op, not a panic.
    let Some(frame) = link_q[sv].queue.pop_front() else {
        debug_assert!(false, "start_link: empty");
        return;
    };
    link_q[sv].busy = true;
    // Service time: nominal `trans`, or `bits / B(now)` sampled from the
    // link trace at transmission start (quasi-static per frame).
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

#[cfg(test)]
mod tests {
    use super::*;
    use eva_sched::StreamId;

    fn stream(
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

    fn cfg() -> SimConfig {
        SimConfig {
            horizon: 10 * TICKS_PER_SEC,
            warmup: TICKS_PER_SEC,
            deadline: 0,
        }
    }

    #[test]
    fn single_stream_matches_dedicated_model() {
        // One stream: the shared link never contends, so latency is
        // exactly trans + proc — identical to the dedicated-pipe DES.
        let s = stream(0, 100_000, 20_000, 5_000, 0, 0);
        let tandem = simulate_shared_uplink(&[s], None, 1, &cfg());
        assert!((tandem.streams[0].latency.mean() - 0.025).abs() < 1e-9);
        assert_eq!(tandem.streams[0].jitter_s, 0.0);
    }

    #[test]
    fn shared_link_serializes_simultaneous_frames() {
        // Two synchronized streams share one uplink with 10ms frames:
        // the second frame waits 10ms on the link every period.
        let a = stream(0, 100_000, 5_000, 10_000, 0, 0);
        let b = stream(1, 100_000, 5_000, 10_000, 0, 0);
        let r = simulate_shared_uplink(&[a, b], None, 1, &cfg());
        let lats: Vec<f64> = r.streams.iter().map(|s| s.latency.mean()).collect();
        // One stream sees 15ms (10 trans + 5 proc), the other also
        // queues 10ms on the link (25ms) and possibly 5ms on cpu.
        let fast = lats.iter().cloned().fold(f64::INFINITY, f64::min);
        let slow = lats.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((fast - 0.015).abs() < 1e-9, "fast {fast}");
        assert!(slow >= 0.025 - 1e-9, "slow {slow}");
    }

    #[test]
    fn dedicated_model_underestimates_shared_contention() {
        // Three bursty streams on one uplink: the tandem latency must
        // exceed the dedicated model's trans+proc lower bound.
        let streams: Vec<SimStream> = (0..3)
            .map(|i| stream(i, 100_000, 10_000, 20_000, 0, 0))
            .collect();
        let r = simulate_shared_uplink(&streams, None, 1, &cfg());
        let dedicated_bound = 0.020 + 0.010;
        let worst = r
            .streams
            .iter()
            .map(|s| s.latency.mean())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            worst > dedicated_bound + 0.01,
            "no serialization visible: {worst}"
        );
    }

    #[test]
    fn overloaded_shared_link_accumulates() {
        // Link demand 2x capacity: latency grows unboundedly.
        let a = stream(0, 100_000, 1_000, 100_000, 0, 0);
        let b = stream(1, 100_000, 1_000, 100_000, 0, 0);
        let r = simulate_shared_uplink(&[a, b], None, 1, &cfg());
        assert!(r.max_jitter_s > 1.0, "jitter {}", r.max_jitter_s);
    }

    #[test]
    fn constant_link_matches_fixed_trans_tandem() {
        let streams: Vec<SimStream> = (0..3)
            .map(|i| stream(i, 100_000, 10_000, 20_000, 0, 7_000 * i as Ticks))
            .collect();
        let links: Vec<StreamLink> = streams
            .iter()
            .map(|s| StreamLink {
                bits_per_frame: s.trans as f64 / TICKS_PER_SEC as f64 * 15e6,
                trace: eva_net::LinkModel::constant(15e6).trace(10 * TICKS_PER_SEC),
            })
            .collect();
        let base = simulate_shared_uplink(&streams, None, 1, &cfg());
        let linked = simulate_shared_uplink(&streams, Some(&links), 1, &cfg());
        for (a, b) in base.streams.iter().zip(&linked.streams) {
            assert_eq!(a.frames, b.frames);
            assert_eq!(a.latency.mean().to_bits(), b.latency.mean().to_bits());
            assert_eq!(a.jitter_s.to_bits(), b.jitter_s.to_bits());
        }
    }

    #[test]
    fn fading_shared_link_serializes_harder() {
        // A link oscillating below the nominal rate lengthens service
        // times; the tandem backlog and latency must exceed the
        // constant-rate run.
        let streams: Vec<SimStream> = (0..2)
            .map(|i| stream(i, 100_000, 5_000, 30_000, 0, 0))
            .collect();
        let nominal = 12e6;
        let bits = 0.030 * nominal;
        let steady: Vec<StreamLink> = streams
            .iter()
            .map(|_| StreamLink {
                bits_per_frame: bits,
                trace: eva_net::LinkModel::constant(nominal).trace(10 * TICKS_PER_SEC),
            })
            .collect();
        let fading: Vec<StreamLink> = streams
            .iter()
            .map(|_| StreamLink {
                bits_per_frame: bits,
                trace: eva_net::LinkModel::gilbert_elliott(nominal, nominal / 3.0, 1.0, 1.0, 3)
                    .trace(10 * TICKS_PER_SEC),
            })
            .collect();
        let a = simulate_shared_uplink(&streams, Some(&steady), 1, &cfg());
        let b = simulate_shared_uplink(&streams, Some(&fading), 1, &cfg());
        assert!(
            b.mean_latency_s > a.mean_latency_s,
            "fading {} vs steady {}",
            b.mean_latency_s,
            a.mean_latency_s
        );
        assert!(b.max_jitter_s > a.max_jitter_s);
    }

    #[test]
    fn completion_heap_holds_at_most_two_events_per_server() {
        // Six bursty streams on three servers keep both stages of every
        // server busy at once.
        let streams: Vec<SimStream> = (0..6)
            .map(|i| stream(i, 100_000, 40_000, 30_000, i % 3, 0))
            .collect();
        let flight = eva_obs::FlightRecorder::new();
        let _ = tandem_inner(&streams, None, 3, &cfg(), &flight);
        let peak = flight
            .snapshot()
            .metrics
            .histogram("des.heap_peak")
            .and_then(|h| h.max())
            .unwrap_or(0.0);
        assert!(peak > 3.0 && peak <= 6.0, "heap peak {peak}");
    }

    #[test]
    fn distinct_servers_do_not_share_links() {
        let a = stream(0, 100_000, 5_000, 50_000, 0, 0);
        let b = stream(1, 100_000, 5_000, 50_000, 1, 0);
        let r = simulate_shared_uplink(&[a, b], None, 2, &cfg());
        for s in &r.streams {
            assert!((s.latency.mean() - 0.055).abs() < 1e-9);
            assert_eq!(s.jitter_s, 0.0);
        }
    }
}
