//! Link bundles: a camera's set of heterogeneous uplinks and the
//! packet-level delivery model that turns them into one frame-delivery
//! time.
//!
//! A [`LinkBundle`] is the *description*: per-member
//! [`LinkModel`] + base RTT, plus the MTU-sized packet quantum. It
//! answers the planner's questions analytically —
//! [`LinkBundle::effective_rate_bps`] is the bonded rate a scheduler
//! should believe under each [`BondPolicy`], the quantity Algorithm-1,
//! JCAB, FACT and the BO sampler consume as the camera's Eq. 5 `B`.
//!
//! A [`BundleSim`] is the *materialization*: per-member traces, per-link
//! BBR-style estimators feeding the striping scheduler's beliefs, and an
//! in-order receiver (the [`ReorderBuffer`](crate::ReorderBuffer)
//! semantics, computed by merging the per-member arrival lists)
//! converting per-packet arrivals into the in-order frame delivery
//! instant the DES charges. Scheduling runs on
//! believed rates, physics on the true trace rates — the same
//! belief/truth split the rest of the system observes.
//!
//! Queueing state is per-frame (queues drain between frames), matching
//! the DES's quasi-static per-frame link model; estimator and
//! round-robin state persist across frames.
//!
//! A striped frame is a pure function of the frame size, the
//! round-robin cursor and each member's true and believed rate at
//! capture time, and those repeat from frame to frame (a link holds a
//! rate for seconds, estimators settle), so a [`BundleSim`] memoizes
//! each striped frame's outcome and replays it into the member state
//! when the same link state comes round again.

use eva_net::{LinkEstimator, LinkModel, LinkTrace, MaxFilterEstimator};
use eva_sched::Ticks;

use crate::sched::{BondPolicy, LinkSnapshot};

/// Packet quantum: 1500-byte MTU = 12 kbit.
pub(crate) const DEFAULT_PACKET_BITS: f64 = 12_000.0;

/// One member of a bundle: a time-varying rate process plus the base
/// round-trip time of the path (one-way delay is `rtt_s / 2`).
#[derive(Debug, Clone, PartialEq)]
pub struct BondedLink {
    /// The link's rate process.
    pub model: LinkModel,
    /// Base RTT (seconds, ≥ 0); propagation only, queueing is modeled.
    pub rtt_s: f64,
}

impl BondedLink {
    /// A bonded member from a model and base RTT.
    pub fn new(model: LinkModel, rtt_s: f64) -> Self {
        assert!(
            rtt_s.is_finite() && rtt_s >= 0.0,
            "BondedLink: rtt must be finite and non-negative"
        );
        BondedLink { model, rtt_s }
    }

    /// One-way delay (seconds).
    pub fn owd_s(&self) -> f64 {
        self.rtt_s * 0.5
    }
}

/// A camera's bonded uplink: 1–6 heterogeneous member links striped at
/// packet granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkBundle {
    links: Vec<BondedLink>,
}

impl LinkBundle {
    /// A bundle over the given members, striped in 1500-byte MTU
    /// packets (`DEFAULT_PACKET_BITS`).
    pub fn new(links: Vec<BondedLink>) -> Self {
        assert!(!links.is_empty(), "LinkBundle: need at least one link");
        LinkBundle { links }
    }

    /// A single-link bundle — the degenerate case that must behave
    /// bit-identically to the unbonded path when `rtt_s == 0`.
    pub fn single(model: LinkModel, rtt_s: f64) -> Self {
        LinkBundle::new(vec![BondedLink::new(model, rtt_s)])
    }

    /// The member links.
    pub fn links(&self) -> &[BondedLink] {
        &self.links
    }

    /// Sum of member nominal rates — the ceiling no striping policy can
    /// beat.
    pub fn nominal_sum_bps(&self) -> f64 {
        self.links.iter().map(|l| l.model.nominal_bps()).sum()
    }

    /// Effective rate of the *best single member* for a reference frame
    /// of `frame_bits`: the whole frame rides one link, so delivery
    /// takes `F/r + owd` and the effective rate is `F` over that.
    pub fn best_single_rate_bps(&self, frame_bits: f64) -> f64 {
        assert!(
            frame_bits > 0.0,
            "best_single_rate_bps: need frame_bits > 0"
        );
        self.links
            .iter()
            .map(|l| {
                let t = frame_bits / l.model.nominal_bps() + l.owd_s();
                frame_bits / t
            })
            .fold(0.0, f64::max)
    }

    /// The bonded *effective* rate under `policy` for a reference frame
    /// of `frame_bits` — the planning belief. RTT makes this
    /// frame-size-dependent: the one-way delay is additive, so small
    /// frames amortize it worse.
    ///
    /// Analytic fluid model on nominal rates, one frame in isolation:
    ///
    /// * round-robin splits bits evenly, so the frame completes when
    ///   the *slowest* member finishes its equal share:
    ///   `T = max_l (F/(n·r_l) + owd_l)` — the multipath penalty in
    ///   closed form (a slow far link drags the whole frame);
    /// * rate-weighted splits bits ∝ rate, equalizing serialization:
    ///   `T = F/Σr + max_l owd_l` — rate-optimal but still paying the
    ///   worst member's delay;
    /// * earliest-delivery water-fills: members join in one-way-delay
    ///   order while their delay beats the completion time, and bits
    ///   equalize *arrival* across the chosen set `S`:
    ///   `T = (F + Σ_{l∈S} r_l·owd_l) / Σ_{l∈S} r_l`, minimized over
    ///   feasible prefixes. This is ≥ every member's owd by
    ///   construction, and degrades to best-single when the fast link
    ///   alone wins.
    pub fn effective_rate_bps(&self, policy: BondPolicy, frame_bits: f64) -> f64 {
        assert!(frame_bits > 0.0, "effective_rate_bps: need frame_bits > 0");
        let n = self.links.len() as f64;
        let completion_s = match policy {
            BondPolicy::RoundRobin => self
                .links
                .iter()
                .map(|l| frame_bits / (n * l.model.nominal_bps()) + l.owd_s())
                .fold(0.0, f64::max),
            BondPolicy::RateWeighted => {
                let sum_r: f64 = self.links.iter().map(|l| l.model.nominal_bps()).sum();
                let max_owd = self.links.iter().map(BondedLink::owd_s).fold(0.0, f64::max);
                frame_bits / sum_r + max_owd
            }
            BondPolicy::EarliestDelivery => {
                // Sort members by one-way delay, then scan prefixes.
                let mut by_owd: Vec<(f64, f64)> = self
                    .links
                    .iter()
                    .map(|l| (l.owd_s(), l.model.nominal_bps()))
                    .collect();
                by_owd.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut sum_r = 0.0;
                let mut sum_r_owd = 0.0;
                let mut best = f64::INFINITY;
                for &(owd, r) in &by_owd {
                    sum_r += r;
                    sum_r_owd += r * owd;
                    let t = (frame_bits + sum_r_owd) / sum_r;
                    // Feasible iff every included member can receive
                    // non-negative bits, i.e. T ≥ its owd; owds are
                    // sorted, so checking the newest suffices.
                    if t >= owd {
                        best = best.min(t);
                    }
                }
                best
            }
        };
        frame_bits / completion_s
    }

    /// The same bundle with member `idx`'s rate process scaled by
    /// `factor` — how a `ChaosSpec`-style link collapse degrades one
    /// member without zeroing the camera.
    pub fn scaled_link(&self, idx: usize, factor: f64) -> Self {
        assert!(idx < self.links.len(), "scaled_link: index out of range");
        let mut links = self.links.clone();
        links[idx] = BondedLink {
            model: links[idx].model.scaled(factor),
            rtt_s: links[idx].rtt_s,
        };
        LinkBundle { links }
    }

    /// Materialize the bundle over `[0, horizon)` ticks as a stateful
    /// per-camera simulator striping with `policy`.
    pub fn simulator(&self, horizon: Ticks, policy: BondPolicy) -> BundleSim {
        BundleSim {
            members: self
                .links
                .iter()
                .map(|l| MemberState {
                    trace: l.model.trace(horizon),
                    seen: 0,
                    rtt_s: l.rtt_s,
                    nominal_bps: l.model.nominal_bps(),
                    estimator: MaxFilterEstimator::default(),
                    delivered_bits: 0.0,
                    delivered_packets: 0,
                })
                .collect(),
            policy,
            rr_cursor: 0,
            frames: 0,
            packets: 0,
            hol_wait_s_total: 0.0,
            max_reorder_depth: 0,
            scratch: Scratch::default(),
            memo: StripeMemo::default(),
            memo_hits: 0,
            memo_misses: 0,
        }
    }
}

/// One materialized member inside a [`BundleSim`].
#[derive(Debug, Clone)]
struct MemberState {
    trace: LinkTrace,
    /// The reader's position in `trace`: frames come in capture order,
    /// so [`LinkTrace::rate_from`] reads forward from it.
    seen: usize,
    rtt_s: f64,
    nominal_bps: f64,
    estimator: MaxFilterEstimator,
    delivered_bits: f64,
    delivered_packets: u64,
}

impl MemberState {
    /// The true trace rate at capture time `t` (bits/s).
    fn rate_at(&mut self, t: Ticks) -> f64 {
        self.trace.rate_from(&mut self.seen, t)
    }

    /// What the scheduler believes this link delivers (bits/s):
    /// estimator output, nominal before any observation.
    fn believed_bps(&self) -> f64 {
        self.estimator.estimate_bps().unwrap_or(self.nominal_bps)
    }
}

/// The outcome of delivering one frame through a bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameDelivery {
    /// Generation-to-in-order-delivery time (seconds): when the last
    /// packet clears the reorder buffer.
    pub delay_s: f64,
    /// Pure serialization component: the slowest member's queue-drain
    /// time (seconds), before propagation delay.
    pub serialization_s: f64,
    /// Packets the frame was striped into.
    pub packets: u64,
    /// Total time packets spent held in the reorder buffer (seconds) —
    /// the frame's HoL-blocking bill.
    pub hol_wait_s: f64,
    /// Deepest the reorder buffer got during this frame.
    pub max_reorder_depth: usize,
}

/// Per-frame buffers of [`BundleSim`]'s striping path, kept across
/// frames so a frame, striped or replayed, allocates nothing.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// True trace rate of each member at the frame's capture time.
    true_rates: Vec<f64>,
    /// What the striping policy believes each member delivers.
    believed: Vec<f64>,
    /// The frame's [`StripeMemo`] key.
    key: Vec<u64>,
    /// Bits each member carried in the frame being striped.
    link_bits: Vec<f64>,
    /// Packets each member carried in the frame being striped.
    link_packets: Vec<u64>,
    /// What the striping policy sees of each member.
    snaps: Vec<LinkSnapshot>,
    /// Arrival time of each packet, indexed by sequence number.
    arrival: Vec<f64>,
    /// The sequence numbers each member carried, in send order.
    by_link: Vec<Vec<usize>>,
    /// Merge position in each member's `by_link` list.
    cursor: Vec<usize>,
    /// Whether each sequence number has reached the receiver.
    arrived: Vec<bool>,
}

/// What the receiver measured for one frame.
struct Received {
    delay_s: f64,
    hol_wait_s: f64,
    max_depth: usize,
}

impl Scratch {
    /// Read each member's true rate at capture time `t` and believed
    /// rate, and build the memo key of a `bits`-sized frame dealt from
    /// `rr_cursor`: the bits of the frame size, the cursor, then each
    /// member's true and believed rate.
    fn read_links(&mut self, members: &mut [MemberState], t: Ticks, bits: f64, rr_cursor: usize) {
        self.true_rates.clear();
        self.true_rates
            .extend(members.iter_mut().map(|m| m.rate_at(t)));
        self.believed.clear();
        self.believed
            .extend(members.iter().map(MemberState::believed_bps));
        self.key.clear();
        self.key.push(bits.to_bits());
        self.key.push(rr_cursor as u64);
        self.key.extend(self.true_rates.iter().map(|r| r.to_bits()));
        self.key.extend(self.believed.iter().map(|r| r.to_bits()));
    }

    /// Stripe a `bits`-sized frame across `members` under `policy`,
    /// dealing round-robin from `rr_cursor`, and receive it, on the
    /// true and believed rates [`Scratch::read_links`] left. The per-member
    /// accounting is left in `link_bits` / `link_packets`; the members
    /// are not touched.
    fn stripe(
        &mut self,
        members: &[MemberState],
        policy: BondPolicy,
        mut rr_cursor: usize,
        bits: f64,
    ) -> Striped {
        let n = members.len();
        let n_pkts = (bits / DEFAULT_PACKET_BITS).ceil().max(1.0) as u64;
        self.start_frame(members, n_pkts as usize);

        // Stripe: the policy sees believed rates and this frame's
        // queue build-up; each packet's true arrival is its link-local
        // cumulative serialization (on the true rate) plus one-way
        // delay.
        let mut remaining = bits;
        for seq in 0..n_pkts as usize {
            let pkt = remaining.min(DEFAULT_PACKET_BITS);
            remaining -= pkt;
            let idx = policy.pick(&mut rr_cursor, pkt, &self.snaps);
            debug_assert!(idx < n, "policy returned out-of-range link");
            let idx = idx.min(n - 1);
            self.snaps[idx].queued_bits += pkt;
            self.link_bits[idx] += pkt;
            self.link_packets[idx] += 1;
            let arrival = self.link_bits[idx] / self.true_rates[idx] + members[idx].rtt_s * 0.5;
            self.arrival.push(arrival);
            self.by_link[idx].push(seq);
        }

        // Receiver: packets reach it in `(arrival, seq)` order and are
        // released in sequence order.
        let rx = self.receive();
        Striped {
            packets: n_pkts,
            delay_s: rx.delay_s,
            hol_wait_s: rx.hol_wait_s,
            max_depth: rx.max_depth,
            rr_cursor,
        }
    }

    /// Reset the striping buffers for a frame of `n_pkts` packets.
    fn start_frame(&mut self, members: &[MemberState], n_pkts: usize) {
        self.link_bits.clear();
        self.link_bits.resize(members.len(), 0.0);
        self.link_packets.clear();
        self.link_packets.resize(members.len(), 0);
        self.snaps.clear();
        self.snaps.extend(
            members
                .iter()
                .zip(&self.believed)
                .map(|(m, &rate_bps)| LinkSnapshot {
                    rate_bps,
                    queued_bits: 0.0,
                    rtt_s: m.rtt_s,
                }),
        );
        self.arrival.clear();
        self.by_link.resize_with(members.len(), Vec::new);
        self.by_link.iter_mut().for_each(Vec::clear);
        self.cursor.clear();
        self.cursor.resize(members.len(), 0);
        self.arrived.clear();
        self.arrived.resize(n_pkts, false);
    }

    /// Feed the striped packets to an in-order receiver.
    ///
    /// A member's arrivals never decrease along its sequence list (its
    /// cumulative bits only grow), so merging the per-member lists
    /// yields the packets in `(arrival, seq)` order without a sort.
    /// Released packets accumulate their HoL wait in sequence order,
    /// exactly as a [`crate::ReorderBuffer`] reports them, and the depth
    /// is arrived-but-unreleased packets after each arrival.
    fn receive(&mut self) -> Received {
        let mut rx = Received {
            delay_s: 0.0,
            hol_wait_s: 0.0,
            max_depth: 0,
        };
        let mut released = 0;
        for n_arrived in 1..=self.arrival.len() {
            // The member whose next packet lands first (lower sequence
            // number on a tie).
            let mut next: Option<(usize, usize)> = None;
            for (l, seqs) in self.by_link.iter().enumerate() {
                let Some(&seq) = seqs.get(self.cursor[l]) else {
                    continue;
                };
                let earlier = next.is_none_or(|(_, best)| {
                    self.arrival[seq]
                        .total_cmp(&self.arrival[best])
                        .then(seq.cmp(&best))
                        .is_lt()
                });
                if earlier {
                    next = Some((l, seq));
                }
            }
            let Some((l, seq)) = next else { break };
            debug_assert!(
                self.by_link[l]
                    .get(self.cursor[l] + 1)
                    .is_none_or(|&after| self.arrival[after] >= self.arrival[seq]),
                "member arrivals must be non-decreasing"
            );
            self.cursor[l] += 1;
            self.arrived[seq] = true;
            rx.max_depth = rx.max_depth.max(n_arrived - released);
            // Only the packet the receiver waits for can release a run,
            // and the whole run releases at its arrival instant.
            if seq == released {
                let now = self.arrival[seq];
                while self.arrived.get(released) == Some(&true) {
                    rx.hol_wait_s += now - self.arrival[released];
                    released += 1;
                }
                rx.delay_s = rx.delay_s.max(now);
            }
        }
        debug_assert_eq!(released, self.arrival.len(), "receiver drained");
        rx
    }
}

/// Most striped frames one bundle's [`StripeMemo`] holds. A bundle
/// of Markov members revisits a handful of link states: the DES
/// benchmark's 3-link bundles see at most 29 distinct keys per bundle
/// over 1800 one-second frames (round-robin, whose cursor multiplies
/// the states; 17 under earliest-delivery, median 6). 64 leaves room
/// above that while bounding what a continuously varying member (a
/// sinusoid trace, whose rate changes every quantum) makes the memo
/// hold and scan.
const STRIPE_MEMO_CAP: usize = 64;

/// What striping one frame did beside its per-member accounting: the
/// fields of the [`FrameDelivery`] the receiver measured and the
/// round-robin cursor after the frame.
#[derive(Debug, Clone, Copy)]
struct Striped {
    packets: u64,
    delay_s: f64,
    hol_wait_s: f64,
    max_depth: usize,
    rr_cursor: usize,
}

/// A bounded memo of striped frames, keyed by every input of the
/// packet loop ([`Scratch::read_links`]). Entries are stored flat —
/// `key.len()` key words and one bits and one packet count per member
/// each — in vectors that keep their capacity when cleared, so entries
/// are not allocated one by one. A lookup scans the entries'
/// [`fingerprint`]s and compares the key of a matching one. A full
/// memo is cleared before the next insertion.
#[derive(Debug, Clone, Default)]
struct StripeMemo {
    fingerprints: Vec<u64>,
    keys: Vec<u64>,
    link_bits: Vec<f64>,
    link_packets: Vec<u64>,
    frames: Vec<Striped>,
}

/// A multiply-rotate hash of a memo key (the `FxHash` round per word).
fn fingerprint(key: &[u64]) -> u64 {
    key.iter().fold(0, |h: u64, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0xf135_7aea_2e62_a9c5)
    })
}

impl StripeMemo {
    /// Slot of the frame striped under `key`, whose [`fingerprint`] is
    /// `fp`, if any.
    fn find(&self, fp: u64, key: &[u64]) -> Option<usize> {
        let k = key.len();
        (0..self.fingerprints.len())
            .find(|&e| self.fingerprints[e] == fp && self.keys[e * k..(e + 1) * k] == *key)
    }

    /// Store the frame [`Scratch::stripe`] just striped under `sc.key`,
    /// whose [`fingerprint`] is `fp`; returns its slot.
    fn insert(&mut self, fp: u64, sc: &Scratch, frame: Striped) -> usize {
        if self.frames.len() == STRIPE_MEMO_CAP {
            self.fingerprints.clear();
            self.keys.clear();
            self.link_bits.clear();
            self.link_packets.clear();
            self.frames.clear();
        }
        self.fingerprints.push(fp);
        self.keys.extend_from_slice(&sc.key);
        self.link_bits.extend_from_slice(&sc.link_bits);
        self.link_packets.extend_from_slice(&sc.link_packets);
        self.frames.push(frame);
        self.frames.len() - 1
    }
}

/// A stateful bonded-uplink simulator for one camera: true per-member
/// traces drive physics, per-member estimators drive the striping
/// policy's beliefs, and a reorder buffer produces the in-order
/// delivery time.
#[derive(Clone)]
pub struct BundleSim {
    members: Vec<MemberState>,
    policy: BondPolicy,
    /// Round-robin rotation state (see [`BondPolicy::pick`]); carried
    /// across frames.
    rr_cursor: usize,
    frames: u64,
    packets: u64,
    hol_wait_s_total: f64,
    max_reorder_depth: usize,
    scratch: Scratch,
    memo: StripeMemo,
    memo_hits: u64,
    memo_misses: u64,
}

impl std::fmt::Debug for BundleSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BundleSim")
            .field("links", &self.members.len())
            .field("policy", &self.policy.as_str())
            .field("frames", &self.frames)
            .field("packets", &self.packets)
            .finish()
    }
}

impl BundleSim {
    /// Deliver one frame of `bits` generated at tick `t`.
    ///
    /// Every single-member bundle takes a dedicated fast path: the
    /// whole frame is one packet, serialized in one division
    /// `bits / rate_at(t)`, plus the member's one-way delay `rtt/2`.
    /// At zero RTT that is the *same* floating-point expression as the
    /// unbonded DES link path, which keeps the degenerate bundle
    /// bit-identical to it (striping would re-associate the division
    /// into `Σ pktᵢ/r` and drift by ulps).
    pub fn frame_delivery(&mut self, t: Ticks, bits: f64) -> FrameDelivery {
        assert!(
            bits.is_finite() && bits > 0.0,
            "frame_delivery: need finite positive bits"
        );
        self.frames += 1;
        if self.members.len() == 1 {
            let m = &mut self.members[0];
            let rate = m.rate_at(t);
            let serialization_s = bits / rate;
            let delay_s = serialization_s + m.rtt_s * 0.5;
            m.estimator.observe(bits / 8.0, serialization_s);
            m.delivered_bits += bits;
            m.delivered_packets += 1;
            self.packets += 1;
            return FrameDelivery {
                delay_s,
                serialization_s,
                packets: 1,
                hol_wait_s: 0.0,
                max_reorder_depth: 1,
            };
        }
        self.striped_delivery(t, bits)
    }

    /// The general multi-link path: packetize, stripe on beliefs, fly
    /// on truth, reorder at the receiver — or, when the memo already
    /// holds a frame striped from the same link state, take that
    /// frame's outcome. Either way the outcome is then replayed into
    /// the member state.
    fn striped_delivery(&mut self, t: Ticks, bits: f64) -> FrameDelivery {
        let sc = &mut self.scratch;
        sc.read_links(&mut self.members, t, bits, self.rr_cursor);
        let fp = fingerprint(&sc.key);
        let slot = match self.memo.find(fp, &sc.key) {
            Some(slot) => {
                self.memo_hits += 1;
                slot
            }
            None => {
                self.memo_misses += 1;
                let frame = sc.stripe(&self.members, self.policy, self.rr_cursor, bits);
                self.memo.insert(fp, sc, frame)
            }
        };

        // Book-keeping and estimator feedback: each used member saw
        // its bits delivered over its true serialization time.
        let n = self.members.len();
        let frame = self.memo.frames[slot];
        let link_bits = &self.memo.link_bits[slot * n..][..n];
        let link_packets = &self.memo.link_packets[slot * n..][..n];
        let mut serialization_s = 0.0_f64;
        for (i, m) in self.members.iter_mut().enumerate() {
            m.delivered_packets += link_packets[i];
            let bits = link_bits[i];
            if bits > 0.0 {
                let ser = bits / sc.true_rates[i];
                serialization_s = serialization_s.max(ser);
                m.estimator.observe(bits / 8.0, ser);
                m.delivered_bits += bits;
            }
        }
        self.rr_cursor = frame.rr_cursor;
        self.packets += frame.packets;
        self.hol_wait_s_total += frame.hol_wait_s;
        self.max_reorder_depth = self.max_reorder_depth.max(frame.max_depth);

        FrameDelivery {
            delay_s: frame.delay_s,
            serialization_s,
            packets: frame.packets,
            hol_wait_s: frame.hol_wait_s,
            max_reorder_depth: frame.max_depth,
        }
    }

    /// Multi-member frames whose striping the memo replayed.
    pub fn stripe_memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Multi-member frames the memo had not seen and striped packet by
    /// packet.
    pub fn stripe_memo_misses(&self) -> u64 {
        self.memo_misses
    }

    /// Frames delivered so far.
    #[cfg(test)]
    pub(crate) fn frames(&self) -> u64 {
        self.frames
    }

    /// Packets striped so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Cumulative HoL wait across all frames (seconds).
    pub fn hol_wait_s_total(&self) -> f64 {
        self.hol_wait_s_total
    }

    /// Deepest reorder-buffer depth seen across all frames.
    #[cfg(test)]
    pub(crate) fn max_reorder_depth(&self) -> usize {
        self.max_reorder_depth
    }

    /// Bits delivered per member so far.
    pub fn delivered_bits(&self) -> Vec<f64> {
        self.members.iter().map(|m| m.delivered_bits).collect()
    }

    /// Packets delivered per member so far.
    #[cfg(test)]
    pub(crate) fn delivered_packets(&self) -> Vec<u64> {
        self.members.iter().map(|m| m.delivered_packets).collect()
    }

    /// What the scheduler currently believes each member delivers
    /// (bits/s) — estimator output, nominal before any observation.
    #[cfg(test)]
    pub(crate) fn believed_rates_bps(&self) -> Vec<f64> {
        self.members.iter().map(MemberState::believed_bps).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorder::ReorderBuffer;
    use eva_sched::TICKS_PER_SEC;
    use proptest::prelude::*;

    const HORIZON: Ticks = 60 * TICKS_PER_SEC;

    /// The ext_multipath-style heterogeneous trio (rate bps, rtt s).
    fn trio() -> LinkBundle {
        LinkBundle::new(vec![
            BondedLink::new(LinkModel::constant(12e6), 0.030),
            BondedLink::new(LinkModel::constant(8e6), 0.080),
            BondedLink::new(LinkModel::constant(5e6), 0.200),
        ])
    }

    /// The striping path as it was before the merge-based receiver:
    /// fresh buffers per frame, arrivals sorted by `(arrival, seq)` and
    /// fed through a [`ReorderBuffer`]. Mutates `sim` the same way
    /// [`BundleSim::frame_delivery`] does for a multi-member bundle.
    fn reference_delivery(sim: &mut BundleSim, t: Ticks, bits: f64) -> FrameDelivery {
        sim.frames += 1;
        let n = sim.members.len();
        let n_pkts = (bits / DEFAULT_PACKET_BITS).ceil().max(1.0) as u64;
        let true_rates: Vec<f64> = sim.members.iter().map(|m| m.trace.rate_at(t)).collect();
        let mut snaps: Vec<LinkSnapshot> = sim
            .members
            .iter()
            .map(|m| LinkSnapshot {
                rate_bps: m.believed_bps(),
                queued_bits: 0.0,
                rtt_s: m.rtt_s,
            })
            .collect();
        let mut per_link_bits = vec![0.0_f64; n];
        let mut arrivals: Vec<(f64, u64)> = Vec::with_capacity(n_pkts as usize);
        let mut remaining = bits;
        for seq in 0..n_pkts {
            let pkt = remaining.min(DEFAULT_PACKET_BITS);
            remaining -= pkt;
            let idx = sim.policy.pick(&mut sim.rr_cursor, pkt, &snaps).min(n - 1);
            snaps[idx].queued_bits += pkt;
            per_link_bits[idx] += pkt;
            let arrival = per_link_bits[idx] / true_rates[idx] + sim.members[idx].rtt_s * 0.5;
            arrivals.push((arrival, seq));
            sim.members[idx].delivered_packets += 1;
        }
        arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut rb = ReorderBuffer::new();
        let mut delay_s = 0.0_f64;
        let mut hol_wait_s = 0.0_f64;
        for &(arrival, seq) in &arrivals {
            for rel in rb.push(seq, arrival) {
                hol_wait_s += rel.release_s - rel.arrival_s;
                delay_s = delay_s.max(rel.release_s);
            }
        }
        assert_eq!(rb.pending(), 0, "reorder buffer drained");
        let mut serialization_s = 0.0_f64;
        for (i, m) in sim.members.iter_mut().enumerate() {
            if per_link_bits[i] > 0.0 {
                let ser = per_link_bits[i] / true_rates[i];
                serialization_s = serialization_s.max(ser);
                m.estimator.observe(per_link_bits[i] / 8.0, ser);
                m.delivered_bits += per_link_bits[i];
            }
        }
        sim.packets += n_pkts;
        sim.hol_wait_s_total += hol_wait_s;
        sim.max_reorder_depth = sim.max_reorder_depth.max(rb.max_depth());
        FrameDelivery {
            delay_s,
            serialization_s,
            packets: n_pkts,
            hol_wait_s,
            max_reorder_depth: rb.max_depth(),
        }
    }

    fn bits_of(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same_delivery(a: &FrameDelivery, b: &FrameDelivery, frame: usize) {
        assert_eq!(
            a.delay_s.to_bits(),
            b.delay_s.to_bits(),
            "frame {frame}: delay"
        );
        assert_eq!(
            a.serialization_s.to_bits(),
            b.serialization_s.to_bits(),
            "frame {frame}: serialization"
        );
        assert_eq!(a.packets, b.packets, "frame {frame}: packets");
        assert_eq!(
            a.hol_wait_s.to_bits(),
            b.hol_wait_s.to_bits(),
            "frame {frame}: HoL wait"
        );
        assert_eq!(
            a.max_reorder_depth, b.max_reorder_depth,
            "frame {frame}: reorder depth"
        );
    }

    fn assert_same_state(a: &BundleSim, b: &BundleSim) {
        assert_eq!(a.frames(), b.frames());
        assert_eq!(a.packets(), b.packets());
        assert_eq!(
            a.hol_wait_s_total().to_bits(),
            b.hol_wait_s_total().to_bits()
        );
        assert_eq!(a.max_reorder_depth(), b.max_reorder_depth());
        assert_eq!(a.rr_cursor, b.rr_cursor, "round-robin cursor");
        assert_eq!(bits_of(&a.delivered_bits()), bits_of(&b.delivered_bits()));
        assert_eq!(a.delivered_packets(), b.delivered_packets());
        assert_eq!(
            bits_of(&a.believed_rates_bps()),
            bits_of(&b.believed_rates_bps())
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The merge-based receiver reproduces the sorted
        /// `ReorderBuffer` feed bit for bit, frame after frame, with the
        /// estimator and scheduler state carried along: 2–6 members,
        /// constant or Markov rates, all three policies, and 1–200
        /// packet frames. `tied == 0` gives every member the first one's
        /// constant rate and RTT, so arrivals on different members tie
        /// exactly.
        #[test]
        fn merge_receiver_matches_reorder_buffer(
            members in prop::collection::vec((1e5f64..5e7, 0.0f64..0.3, 0u64..1000), 2..=6),
            tied in 0usize..3,
            policy in 0usize..3,
            frames in prop::collection::vec((0u64..50 * TICKS_PER_SEC, 1u64..=200, 0.0f64..1.0), 1..24),
        ) {
            let links: Vec<BondedLink> = members
                .iter()
                .map(|&(rate, rtt, seed)| match tied {
                    0 => BondedLink::new(LinkModel::constant(members[0].0), members[0].1),
                    _ if seed % 2 == 0 => BondedLink::new(LinkModel::constant(rate), rtt),
                    _ => BondedLink::new(
                        LinkModel::gilbert_elliott(rate, rate / 3.0, 2.0, 1.0, seed),
                        rtt,
                    ),
                })
                .collect();
            let policy = POLICIES[policy];
            let bundle = LinkBundle::new(links);
            let mut fast = bundle.simulator(HORIZON, policy);
            let mut reference = bundle.simulator(HORIZON, policy);
            for (k, &(t, n_pkts, frac)) in frames.iter().enumerate() {
                // `frac == 0` makes the frame a whole number of packets.
                let bits = (n_pkts as f64 - frac) * DEFAULT_PACKET_BITS;
                let got = fast.frame_delivery(t, bits);
                let want = reference_delivery(&mut reference, t, bits);
                assert_same_delivery(&got, &want, k);
                assert_same_state(&fast, &reference);
            }
        }
    }

    const POLICIES: [BondPolicy; 3] = [
        BondPolicy::RoundRobin,
        BondPolicy::RateWeighted,
        BondPolicy::EarliestDelivery,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Replayed frames match the packet loop bit for bit when link
        /// states repeat — the memo's hit path. Frames draw their size
        /// from a pool of up to three and their capture time from a
        /// pool of three ticks inside one second, so keys recur: every
        /// member constant (`markov == 0`) or Markov members
        /// sampled at repeated instants, all three policies, with the
        /// round-robin cursor carried across hits and misses alike.
        #[test]
        fn memo_replay_matches_reference_on_repeated_link_states(
            members in prop::collection::vec((1e5f64..5e7, 0.0f64..0.3, 0u64..1000), 2..=6),
            markov in 0usize..2,
            policy in 0usize..3,
            t0 in 0u64..50 * TICKS_PER_SEC,
            sizes in prop::collection::vec((1u64..=40, 0.0f64..1.0), 1..=3),
            frames in prop::collection::vec((0usize..3, 0usize..3), 40..80),
        ) {
            let links: Vec<BondedLink> = members
                .iter()
                .map(|&(rate, rtt, seed)| {
                    let model = if markov == 1 && seed % 2 == 1 {
                        LinkModel::gilbert_elliott(rate, rate / 3.0, 2.0, 1.0, seed)
                    } else {
                        LinkModel::constant(rate)
                    };
                    BondedLink::new(model, rtt)
                })
                .collect();
            let policy = POLICIES[policy];
            let bundle = LinkBundle::new(links);
            let mut fast = bundle.simulator(HORIZON, policy);
            let mut reference = bundle.simulator(HORIZON, policy);
            for (k, &(size, at)) in frames.iter().enumerate() {
                let (n_pkts, frac) = sizes[size % sizes.len()];
                let bits = (n_pkts as f64 - frac) * DEFAULT_PACKET_BITS;
                let t = t0 + at as u64 * (TICKS_PER_SEC / 3);
                let got = fast.frame_delivery(t, bits);
                let want = reference_delivery(&mut reference, t, bits);
                assert_same_delivery(&got, &want, k);
                assert_same_state(&fast, &reference);
            }
            prop_assert_eq!(
                fast.stripe_memo_hits() + fast.stripe_memo_misses(),
                frames.len() as u64
            );
            prop_assert!(fast.stripe_memo_hits() > 0, "no frame hit the memo");
        }
    }

    #[test]
    fn a_continuously_varying_member_keeps_the_memo_bounded() {
        // A sinusoid member changes rate every quantum, so almost every
        // frame is a new key: the memo must clear at its cap rather
        // than grow, and keep matching the packet loop throughout.
        let horizon = 3600 * TICKS_PER_SEC;
        let bundle = LinkBundle::new(vec![
            BondedLink::new(LinkModel::sinusoid(12e6, 6e6, 600.0, 0.05, 7), 0.030),
            BondedLink::new(LinkModel::constant(8e6), 0.080),
            BondedLink::new(LinkModel::constant(5e6), 0.200),
        ]);
        for policy in POLICIES {
            let mut fast = bundle.simulator(horizon, policy);
            let mut reference = bundle.simulator(horizon, policy);
            for k in 0..horizon / (TICKS_PER_SEC / 4) {
                let t = k * (TICKS_PER_SEC / 4);
                let got = fast.frame_delivery(t, 1.1e5);
                let want = reference_delivery(&mut reference, t, 1.1e5);
                assert_same_delivery(&got, &want, k as usize);
                assert_same_state(&fast, &reference);
                assert!(fast.memo.frames.len() <= STRIPE_MEMO_CAP);
                assert_eq!(fast.memo.fingerprints.len(), fast.memo.frames.len());
            }
            assert!(
                fast.stripe_memo_misses() > 10 * STRIPE_MEMO_CAP as u64,
                "{policy:?}: {} misses never filled the memo",
                fast.stripe_memo_misses()
            );
        }
    }

    #[test]
    fn a_cloned_simulator_carries_cursor_and_memo_along() {
        let mut sim = trio().simulator(HORIZON, BondPolicy::RoundRobin);
        for k in 0..7 {
            let _ = sim.frame_delivery(k * TICKS_PER_SEC, 5e4);
        }
        let mut cloned = sim.clone();
        assert_eq!(cloned.rr_cursor, sim.rr_cursor);
        for k in 7..20 {
            let a = sim.frame_delivery(k * TICKS_PER_SEC, 5e4);
            let b = cloned.frame_delivery(k * TICKS_PER_SEC, 5e4);
            assert_same_delivery(&a, &b, k as usize);
            assert_same_state(&sim, &cloned);
        }
        assert_eq!(sim.stripe_memo_hits(), cloned.stripe_memo_hits());
    }

    #[test]
    fn analytic_rates_reproduce_penalty_and_recovery() {
        let b = trio();
        let frame = 5e5; // 500 kbit reference frame
        let rr = b.effective_rate_bps(BondPolicy::RoundRobin, frame);
        let rw = b.effective_rate_bps(BondPolicy::RateWeighted, frame);
        let edf = b.effective_rate_bps(BondPolicy::EarliestDelivery, frame);
        let single = b.best_single_rate_bps(frame);
        // RR: T = max(F/3r + owd) = F/(3·5e6) + 0.1 = 0.1333 s → 3.75 Mbps.
        assert!((rr - frame / (frame / 15e6 + 0.1)).abs() < 1.0, "rr {rr}");
        // The multipath penalty: naïve striping loses to best single.
        assert!(rr < single, "penalty missing: rr {rr} vs single {single}");
        // Recovery: EDF beats every other policy and the best single.
        assert!(edf >= single, "edf {edf} < single {single}");
        assert!(edf >= rw && edf >= rr);
        // And nothing beats the capacity sum.
        for r in [rr, rw, edf, single] {
            assert!(r <= b.nominal_sum_bps() + 1e-9);
        }
    }

    #[test]
    fn edf_water_filling_excludes_links_too_far_to_help() {
        // A tiny frame on a fast near link: the 200 ms member cannot
        // possibly contribute before the frame is done.
        let b = LinkBundle::new(vec![
            BondedLink::new(LinkModel::constant(40e6), 0.010),
            BondedLink::new(LinkModel::constant(40e6), 0.400),
        ]);
        let frame = 1e5; // 2.5 ms serialization on the near link
        let edf = b.effective_rate_bps(BondPolicy::EarliestDelivery, frame);
        let single = b.best_single_rate_bps(frame);
        assert!(
            (edf - single).abs() / single < 1e-9,
            "edf should degrade to best single"
        );
        // Round-robin pays 200 ms of owd for half the bits.
        let rr = b.effective_rate_bps(BondPolicy::RoundRobin, frame);
        assert!(rr < 0.05 * single, "rr {rr} vs single {single}");
    }

    #[test]
    fn zero_rtt_identical_links_bond_to_the_sum() {
        let b = LinkBundle::new(vec![
            BondedLink::new(LinkModel::constant(10e6), 0.0),
            BondedLink::new(LinkModel::constant(10e6), 0.0),
        ]);
        for p in [
            BondPolicy::RoundRobin,
            BondPolicy::RateWeighted,
            BondPolicy::EarliestDelivery,
        ] {
            let r = b.effective_rate_bps(p, 5e5);
            assert!((r - 20e6).abs() < 1e-6, "{p:?}: {r}");
        }
    }

    #[test]
    fn simulated_delivery_tracks_the_analytic_model() {
        let b = trio();
        let frame = 5e5;
        for (policy, tol) in [
            (BondPolicy::RoundRobin, 0.05),
            (BondPolicy::RateWeighted, 0.05),
            (BondPolicy::EarliestDelivery, 0.05),
        ] {
            let mut sim = b.simulator(HORIZON, policy);
            // Warm the estimators, then measure.
            for k in 0..5 {
                let _ = sim.frame_delivery(k * TICKS_PER_SEC, frame);
            }
            let before = sim.delivered_bits();
            let d = sim.frame_delivery(10 * TICKS_PER_SEC, frame);
            let analytic_t = frame / b.effective_rate_bps(policy, frame);
            let rel = (d.delay_s - analytic_t).abs() / analytic_t;
            assert!(
                rel < tol,
                "{policy:?}: sim {} vs analytic {analytic_t} (rel {rel})",
                d.delay_s
            );
            // All bits accounted for.
            let after = sim.delivered_bits();
            let total: f64 = after.iter().zip(&before).map(|(a, b)| a - b).sum();
            assert!((total - frame).abs() < 1e-6);
        }
    }

    #[test]
    fn round_robin_hol_blocks_and_edf_does_not() {
        let b = trio();
        let mut rr = b.simulator(HORIZON, BondPolicy::RoundRobin);
        let mut edf = b.simulator(HORIZON, BondPolicy::EarliestDelivery);
        for k in 0..10 {
            let _ = rr.frame_delivery(k * TICKS_PER_SEC, 5e5);
            let _ = edf.frame_delivery(k * TICKS_PER_SEC, 5e5);
        }
        assert!(
            rr.hol_wait_s_total() > 10.0 * edf.hol_wait_s_total().max(1e-12),
            "rr hol {} vs edf hol {}",
            rr.hol_wait_s_total(),
            edf.hol_wait_s_total()
        );
        assert!(rr.max_reorder_depth() > edf.max_reorder_depth());
    }

    #[test]
    fn single_link_fast_path_is_one_division() {
        let model = LinkModel::gilbert_elliott(25e6, 8e6, 3.0, 1.5, 42);
        let trace = model.trace(HORIZON);
        let mut sim = LinkBundle::single(model, 0.0).simulator(HORIZON, BondPolicy::default());
        for t in [0, 12_345, 5 * TICKS_PER_SEC, HORIZON - 1] {
            let bits = 3.7e5;
            let d = sim.frame_delivery(t, bits);
            // Bit-exact: the same expression the DES link path computes.
            assert_eq!(d.delay_s.to_bits(), (bits / trace.rate_at(t)).to_bits());
            assert_eq!(d.packets, 1);
            assert_eq!(d.hol_wait_s, 0.0);
        }
    }

    #[test]
    fn scaled_link_degrades_one_member_only() {
        let b = trio();
        let collapsed = b.scaled_link(0, 0.25);
        assert!((collapsed.links()[0].model.nominal_bps() - 3e6).abs() < 1.0);
        assert_eq!(collapsed.links()[1], b.links()[1]);
        assert_eq!(collapsed.links()[2], b.links()[2]);
        let before = b.effective_rate_bps(BondPolicy::EarliestDelivery, 5e5);
        let after = collapsed.effective_rate_bps(BondPolicy::EarliestDelivery, 5e5);
        assert!(after < before, "collapse must degrade the bonded rate");
        assert!(after > 0.0, "but never zero the camera");
    }

    #[test]
    fn estimators_steer_the_scheduler_after_collapse() {
        // Link 0 is 5× slower than link 1; once the per-frame
        // observations converge the EDF striper must route the
        // supermajority of bits onto the fast member.
        let b = LinkBundle::new(vec![
            BondedLink::new(LinkModel::constant(2e6), 0.020),
            BondedLink::new(LinkModel::constant(10e6), 0.020),
        ]);
        let mut sim = b.simulator(HORIZON, BondPolicy::EarliestDelivery);
        for k in 0..20 {
            let _ = sim.frame_delivery(k * TICKS_PER_SEC, 5e5);
        }
        let share = sim.delivered_bits();
        let total: f64 = share.iter().sum();
        // The fast link should carry the supermajority once beliefs
        // converge on the truth.
        assert!(
            share[1] / total > 0.75,
            "fast-link share {}",
            share[1] / total
        );
        let believed = sim.believed_rates_bps();
        assert!((believed[0] - 2e6).abs() / 2e6 < 0.05);
        assert!((believed[1] - 10e6).abs() / 10e6 < 0.05);
    }
}
