//! One server's FIFO, simulated on its own.
//!
//! Every stream is pinned to one server and servers share no state, so
//! the DES runs each server's queue by itself. The seeders write each
//! frame arrival into its destination server's region of one
//! [`ServerArrivals`] buffer, stream by stream, so a region is one run
//! of arrivals per stream, ascending unless a slow link let a later
//! frame overtake an earlier one. [`ServerArrivals::sorted_region`]
//! merges those runs in place with a stable sort, and [`run_server`]
//! replays the region against the server's single in-flight frame,
//! with no event heap. The per-server replay keeps the two tie rules of a
//! global time-ordered merge: an arrival goes before a completion at
//! the same tick, and simultaneous arrivals go in push order. A
//! server's events therefore happen in exactly the order a global loop
//! over all servers would process them.
//!
//! A shared uplink puts a second FIFO station, the server's one link,
//! in front of the CPU. Its region is seeded with captures instead of
//! arrivals, and [`SharedUplink::transmit`] replays the link in one
//! pass, turning each capture into the instant its transmission ends;
//! [`run_server`] then replays the CPU as for a dedicated pipe. A
//! global loop over both stations orders same-tick events as
//! capture, then link done, then CPU done, and the split replay is
//! exact whatever that order is. Each station is a single FIFO whose
//! inputs arrive in order, and every transmission lasts at least one
//! tick, so transmission ends strictly increase. A capture and a link
//! completion at one tick, or a link completion and a CPU completion
//! at one tick, therefore start the next frame at that same tick in
//! either order, and no frame's service start depends on how the tie
//! is broken.

use std::collections::VecDeque;

use eva_net::link::secs_to_ticks;
use eva_sched::{Ticks, TICKS_PER_SEC};
use eva_stats::RunningStats;

use crate::des::{SimConfig, SimStream, StreamLink};
use crate::fault::{service_end, SimFaults, TraceCursor};

/// One seeded frame (24 bytes). `push_idx` breaks time ties in push
/// order, so simultaneous arrivals replay FIFO.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Arrival {
    /// When the frame reaches its server (ticks); on a shared uplink,
    /// its capture until [`SharedUplink::transmit`] has run.
    pub(crate) time: Ticks,
    /// When the camera captured it (ticks).
    pub(crate) gen_time: Ticks,
    /// Index into the simulation's stream table.
    pub(crate) stream: u32,
    /// Position in the run's push order.
    pub(crate) push_idx: u32,
}

/// The frame arrivals of one run, one region per destination server,
/// in one buffer allocated once. A region's capacity is the number of
/// frame slots its streams have in the horizon; faulted runs drop some
/// frames, so each region tracks its fill.
#[derive(Debug)]
pub(crate) struct ServerArrivals {
    items: Vec<Arrival>,
    /// Server `j`'s region starts at `start[j]`; `start[n_servers]` is
    /// the buffer length.
    start: Vec<usize>,
    /// Arrivals written into each region so far.
    fill: Vec<usize>,
    /// Arrivals pushed so far, over all regions.
    pushed: usize,
}

impl ServerArrivals {
    /// Empty regions for `n_servers` servers, each with room for one
    /// arrival per frame slot of its streams.
    pub(crate) fn new(streams: &[SimStream], n_servers: usize, cfg: &SimConfig) -> Self {
        let mut start = vec![0usize; n_servers + 1];
        for s in streams {
            start[s.server + 1] += slots_in_horizon(s, cfg);
        }
        for j in 0..n_servers {
            start[j + 1] += start[j];
        }
        ServerArrivals {
            items: vec![Arrival::default(); start[n_servers]],
            start,
            fill: vec![0; n_servers],
            pushed: 0,
        }
    }

    /// Record that a frame of `stream` (on `server`), captured at
    /// `gen_time`, arrives at `time`. The arrival keeps its push index
    /// over all regions, which breaks time ties.
    ///
    /// # Panics
    /// With more than `u32::MAX` streams or arrivals.
    pub(crate) fn push(&mut self, server: usize, time: Ticks, stream: usize, gen_time: Ticks) {
        let (Ok(stream), Ok(push_idx)) = (u32::try_from(stream), u32::try_from(self.pushed)) else {
            panic!("ServerArrivals: more than u32::MAX streams or arrivals");
        };
        let slot = self.start[server] + self.fill[server];
        debug_assert!(slot < self.start[server + 1], "region {server} overflows");
        self.items[slot] = Arrival {
            time,
            gen_time,
            stream,
            push_idx,
        };
        self.fill[server] += 1;
        self.pushed += 1;
    }

    /// Server `server`'s filled region, sorted in place by
    /// `(time, push index)`. Keys are unique, so the order is fully
    /// determined. The seeders push stream by stream, so a region is a
    /// concatenation of one run per stream, each ascending unless a
    /// slow link let a later frame overtake an earlier one. The
    /// standard library's stable sort detects those runs and merges
    /// them, at the cost of a scratch buffer up to the region's size.
    pub(crate) fn sorted_region(&mut self, server: usize) -> &mut [Arrival] {
        let start = self.start[server];
        let region = &mut self.items[start..start + self.fill[server]];
        region.sort_by_key(|a| (a.time, a.push_idx));
        region
    }

    /// Every filled arrival, in push order.
    #[cfg(test)]
    pub(crate) fn in_push_order(&self) -> Vec<Arrival> {
        let mut all: Vec<Arrival> = (0..self.fill.len())
            .flat_map(|j| &self.items[self.start[j]..self.start[j] + self.fill[j]])
            .copied()
            .collect();
        all.sort_unstable_by_key(|a| a.push_idx);
        all
    }
}

/// Frame slots `phase + k·period` of `s` inside the horizon: every
/// seeder pushes at most this many arrivals for `s`.
fn slots_in_horizon(s: &SimStream, cfg: &SimConfig) -> usize {
    match cfg.horizon.checked_sub(s.phase) {
        Some(span) if span > 0 => ((span - 1) / s.period + 1) as usize,
        _ => 0,
    }
}

/// The uplink every stream of a server shares: one link per server,
/// frames served FIFO in capture order.
pub(crate) struct SharedUplink<'a> {
    /// Per-stream traced links, or `None` for the fixed `trans`.
    links: Option<&'a [StreamLink]>,
    /// Each stream's position in its link trace.
    read: Vec<usize>,
}

impl<'a> SharedUplink<'a> {
    /// The shared uplinks of `n_streams` streams over `links`, if any.
    pub(crate) fn new(links: Option<&'a [StreamLink]>, n_streams: usize) -> Self {
        SharedUplink {
            links,
            read: vec![0; n_streams],
        }
    }

    /// Replace each capture in `region` (one server's captures, sorted
    /// by `(time, push index)`) with the instant the frame's
    /// transmission ends. A frame starts when it is captured or when
    /// the link frees, whichever is later, and holds the link for its
    /// `trans`, or with links for `bits / B(start)` read at the start
    /// (quasi-static per frame); at least one tick either way. Ends
    /// strictly increase, so the region stays sorted.
    pub(crate) fn transmit(&mut self, region: &mut [Arrival], streams: &[SimStream]) {
        let mut link_free: Ticks = 0;
        for a in region {
            let stream = a.stream as usize;
            let start = a.time.max(link_free);
            let service = match self.links {
                None => streams[stream].trans,
                Some(links) => {
                    // A stream's starts only grow, so its trace is read
                    // forward.
                    let link = &links[stream];
                    let rate = link.trace.rate_from(&mut self.read[stream], start);
                    secs_to_ticks(link.bits_per_frame / rate)
                }
            };
            link_free = start + service.max(1);
            a.time = link_free;
        }
    }
}

/// Per-stream measurements, filled by every server's run.
pub(crate) struct Tally {
    /// End-to-end latency (seconds) of each stream's measured frames.
    pub(crate) latency: Vec<RunningStats>,
    /// Measured (post-warmup) completions per stream.
    pub(crate) frames: Vec<u64>,
    /// Measured completions after the deadline, per stream.
    pub(crate) misses: Vec<u64>,
    /// Frames that never completed, per stream.
    pub(crate) dropped: Vec<u64>,
}

impl Tally {
    /// Zeroed measurements for `n` streams.
    pub(crate) fn new(n: usize) -> Self {
        Tally {
            latency: vec![RunningStats::new(); n],
            frames: vec![0; n],
            misses: vec![0; n],
            dropped: vec![0; n],
        }
    }

    /// Record a completion at `now` of a frame of `stream` captured at
    /// `gen_time`, if it counts, into the stream's and `server_lat`.
    fn complete(
        &mut self,
        streams: &[SimStream],
        stream: usize,
        gen_time: Ticks,
        now: Ticks,
        cfg: &SimConfig,
        server_lat: &mut RunningStats,
    ) {
        // Eligibility is keyed to the *nominal* arrival slot so the
        // measured frame set is the same with and without a link trace
        // (time-varying links shift latencies, not which frames count).
        if gen_time + streams[stream].trans < cfg.warmup {
            return;
        }
        let latency_s = (now - gen_time) as f64 / TICKS_PER_SEC as f64;
        self.latency[stream].push(latency_s);
        self.frames[stream] += 1;
        if cfg.deadline > 0 && now > gen_time + cfg.deadline {
            self.misses[stream] += 1;
        }
        server_lat.push(latency_s);
    }

    /// Count a frame that can never complete, if it counts.
    fn strand(&mut self, streams: &[SimStream], stream: usize, gen_time: Ticks, cfg: &SimConfig) {
        if gen_time + streams[stream].trans >= cfg.warmup {
            self.dropped[stream] += 1;
        }
    }
}

/// What one server's run measured.
pub(crate) struct ServerRun {
    /// Busy time inside the measured window `[warmup, horizon]`.
    pub(crate) busy_ticks: Ticks,
    /// Largest backlog of the server's queue.
    pub(crate) max_queue_len: usize,
    /// Arrivals plus completions processed.
    pub(crate) events: u64,
    /// Latency (seconds) of the server's measured frames, in
    /// completion order.
    pub(crate) latency: RunningStats,
}

/// Replay server `server`'s `arrivals` (sorted by `(time, push
/// index)`) through its FIFO: one frame in service, the rest queued in
/// `fifo` (cleared first, reused across servers). With `faults`,
/// crashes pause processing and stragglers dilate it; a frame that can
/// never finish leaves the server stuck, and it and every frame queued
/// behind it count as dropped.
pub(crate) fn run_server(
    server: usize,
    arrivals: &[Arrival],
    streams: &[SimStream],
    faults: Option<&SimFaults>,
    cfg: &SimConfig,
    fifo: &mut VecDeque<(usize, Ticks)>,
    tally: &mut Tally,
) -> ServerRun {
    fifo.clear();
    let mut run = ServerRun {
        busy_ticks: 0,
        max_queue_len: 0,
        events: 0,
        latency: RunningStats::new(),
    };
    // The frame in service: (stream, gen_time, start time), and when
    // it completes (`None` while idle, or if it never completes).
    let mut in_flight: Option<(usize, Ticks, Ticks)> = None;
    let mut done_at: Option<Ticks> = None;
    let mut next = 0;
    let mut faults_read = TraceCursor::default();
    loop {
        // An arrival goes before a completion at the same tick.
        let arrival = arrivals
            .get(next)
            .filter(|a| done_at.is_none_or(|t| a.time <= t));
        let now = match (arrival, done_at) {
            (Some(a), _) => {
                next += 1;
                fifo.push_back((a.stream as usize, a.gen_time));
                run.max_queue_len = run.max_queue_len.max(fifo.len());
                a.time
            }
            (None, Some(now)) => {
                done_at = None;
                if let Some((stream, gen_time, start)) = in_flight.take() {
                    // Utilization accounting is clipped to the measured
                    // window [warmup, horizon].
                    let clipped_start = start.max(cfg.warmup);
                    let clipped_end = now.min(cfg.horizon).max(clipped_start);
                    run.busy_ticks += clipped_end - clipped_start;
                    tally.complete(streams, stream, gen_time, now, cfg, &mut run.latency);
                }
                now
            }
            (None, None) => break,
        };
        run.events += 1;
        if in_flight.is_some() {
            continue;
        }
        // The server is idle at `now`: start the head-of-line frame.
        if let Some((stream, gen_time)) = fifo.pop_front() {
            in_flight = Some((stream, gen_time, now));
            done_at = match faults {
                None => Some(now + streams[stream].proc),
                // A frame that cannot finish within twice the horizon
                // (or on a server that never recovers) gets no
                // completion and is counted as dropped below.
                Some(f) => service_end(
                    now,
                    streams[stream].proc,
                    &f.server_up[server],
                    &f.server_slow[server],
                    cfg.horizon.saturating_mul(2),
                    &mut faults_read,
                ),
            };
        }
    }
    // Frames stranded on a server that never recovered: the arrivals
    // ran out, so any leftover work can never complete.
    if let Some((stream, gen_time, _)) = in_flight {
        tally.strand(streams, stream, gen_time, cfg);
    }
    for &(stream, gen_time) in fifo.iter() {
        tally.strand(streams, stream, gen_time, cfg);
    }
    run
}
