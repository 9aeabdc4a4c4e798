//! The system outcome of a placed joint configuration (Eq. 2-5):
//! [`Scenario::outcome_over`], the one place that sums cameras into an
//! [`Outcome`].

use crate::config::VideoConfig;
use crate::outcome::Outcome;
use crate::scenario::Scenario;
use crate::surfaces::SurfaceModel;

/// Which cameras an aggregation counts, and how much of each.
#[derive(Debug, Clone, Copy)]
pub enum Cameras<'a> {
    /// Every camera at full weight.
    All,
    /// Cameras `0..k` and the streams whose source is one of them.
    /// `Prefix(0)` is the all-zero outcome.
    Prefix(usize),
    /// Every camera, its Eq. 2-4 terms weighted by one entry per camera;
    /// latency is not weighted.
    Fractions(&'a [FrameFractions]),
}

/// The shares of one camera's frames, each in `[0, 1]`, generated,
/// delivered and processed. They weight accuracy by `generated ·
/// delivered · processed`, network by `generated`, compute and power by
/// `generated · processed`, every product taken left to right.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameFractions {
    /// Frames the camera captured (camera up).
    pub generated: f64,
    /// Captured frames that reached their server.
    pub delivered: f64,
    /// Frames whose server was up to process them.
    pub processed: f64,
}

impl FrameFractions {
    /// Unit weights: multiplying by 1 is exact, so they change no bits.
    pub(crate) const FULL: FrameFractions = FrameFractions {
        generated: 1.0,
        delivered: 1.0,
        processed: 1.0,
    };
}

/// Why [`Scenario::outcome_over`] could not aggregate its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateError {
    /// `(what, got, cameras)`: `got` configurations, frame fractions or
    /// prefix cameras for a scenario of `cameras` cameras.
    Length(&'static str, usize, usize),
    /// `(stream, camera, server)`: a placed stream from a camera or on a
    /// server the scenario lacks.
    Placement(usize, usize, usize),
}

impl std::fmt::Display for AggregateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AggregateError::Length(what, got, m) => write!(f, "{got} {what} for {m} cameras"),
            AggregateError::Placement(s, c, v) => {
                write!(f, "stream {s}: no camera {c} or server {v}")
            }
        }
    }
}

impl std::error::Error for AggregateError {}

/// The configuration-only sums of Eq. 2-4, added camera by camera.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ConfigSums {
    accuracy: f64,
    network_bps: f64,
    compute_tflops: f64,
    power_w: f64,
}

impl ConfigSums {
    pub(crate) fn add(&mut self, s: &SurfaceModel, c: &VideoConfig, f: FrameFractions) {
        self.accuracy += s.accuracy(c) * (f.generated * f.delivered * f.processed);
        self.network_bps += s.bandwidth_bps(c) * f.generated;
        self.compute_tflops += s.compute_tflops(c) * f.generated * f.processed;
        self.power_w += s.power_w(c) * f.generated * f.processed;
    }
}

impl Scenario {
    /// Eq. 2-5 of `configs` (one per camera) under `placement`, which
    /// yields `(source camera, server)` per post-split stream, weighted
    /// by `cameras`. Eq. 2-4 add the counted cameras in camera order,
    /// Eq. 5 their streams' latencies in stream order; the means divide
    /// by the counts (at least 1). Inputs that do not fit the scenario
    /// are an [`AggregateError`].
    pub fn outcome_over<P>(
        &self,
        configs: &[VideoConfig],
        placement: P,
        cameras: Cameras<'_>,
    ) -> Result<Outcome, AggregateError>
    where
        P: IntoIterator<Item = (usize, usize)>,
    {
        let m = self.n_videos();
        let (counted, fractions) = match cameras {
            Cameras::All => (m, &[][..]),
            Cameras::Prefix(k) => (k, &[][..]),
            Cameras::Fractions(f) => (m, f),
        };
        let length = |what, got| Err(AggregateError::Length(what, got, m));
        if configs.len() != m {
            return length("configurations", configs.len());
        }
        if counted > m {
            return length("prefix cameras", counted);
        }
        if matches!(cameras, Cameras::Fractions(_)) && fractions.len() != m {
            return length("frame fractions", fractions.len());
        }
        let mut sums = ConfigSums::default();
        for (i, c) in configs.iter().take(counted).enumerate() {
            let f = fractions.get(i).copied().unwrap_or(FrameFractions::FULL);
            sums.add(self.surfaces(i), c, f);
        }
        self.outcome_from_sums(configs, &sums, counted, placement)
    }

    /// [`Scenario::outcome_over`] given the Eq. 2-4 sums of cameras
    /// `0..counted` and one configuration per camera.
    pub(crate) fn outcome_from_sums<P>(
        &self,
        configs: &[VideoConfig],
        sums: &ConfigSums,
        counted: usize,
        placement: P,
    ) -> Result<Outcome, AggregateError>
    where
        P: IntoIterator<Item = (usize, usize)>,
    {
        let mut lat_sum = 0.0;
        let mut streams = 0usize;
        for (stream, (camera, server)) in placement.into_iter().enumerate() {
            let (Some(config), Some(&uplink)) = (configs.get(camera), self.uplinks().get(server))
            else {
                return Err(AggregateError::Placement(stream, camera, server));
            };
            if camera < counted {
                lat_sum += self.surfaces(camera).e2e_latency_secs(config, uplink);
                streams += 1;
            }
        }
        Ok(Outcome {
            latency_s: lat_sum / streams.max(1) as f64,
            accuracy: sums.accuracy / counted.max(1) as f64,
            network_bps: sums.network_bps,
            compute_tflops: sums.compute_tflops,
            power_w: sums.power_w,
        })
    }
}

#[cfg(test)]
mod tests {
    //! Differential checks: [`Scenario::outcome_over`] against copies of
    //! the per-site formulas it replaced, bit for bit.

    use super::*;
    use crate::clip::clip_set;
    use crate::config::ConfigSpace;
    use eva_stats::rng::seeded;
    use proptest::prelude::*;
    use rand::Rng;

    /// A random scenario, one random grid configuration per camera, a
    /// placement in which each camera has one to three streams in
    /// shuffled order on random servers, an unsplit per-camera
    /// placement, and one random set of frame fractions per camera.
    struct Case {
        sc: Scenario,
        configs: Vec<VideoConfig>,
        split: Vec<(usize, usize)>,
        server_of: Vec<usize>,
        fractions: Vec<FrameFractions>,
    }

    fn case(cameras: usize, servers: usize, seed: u64) -> Case {
        let mut rng = seeded(seed);
        let uplinks = (0..servers).map(|_| rng.gen_range(3e6..30e6)).collect();
        let sc = Scenario::new(clip_set(cameras, seed), uplinks, ConfigSpace::default());
        let grid = sc.config_space().len();
        let configs = (0..cameras)
            .map(|_| sc.config_space().at(rng.gen_range(0..grid)))
            .collect();
        let mut split = Vec::new();
        for c in 0..cameras {
            for _ in 0..rng.gen_range(1..4) {
                split.push((c, rng.gen_range(0..servers)));
            }
        }
        for i in (1..split.len()).rev() {
            split.swap(i, rng.gen_range(0..=i));
        }
        let server_of = (0..cameras).map(|_| rng.gen_range(0..servers)).collect();
        let fractions = (0..cameras)
            .map(|_| FrameFractions {
                generated: rng.gen_range(0.0..=1.0),
                delivered: rng.gen_range(0.0..=1.0),
                processed: rng.gen_range(0.0..=1.0),
            })
            .collect();
        Case {
            sc,
            configs,
            split,
            server_of,
            fractions,
        }
    }

    fn bits(o: &Outcome) -> [u64; 5] {
        o.to_array().map(f64::to_bits)
    }

    fn unsplit(server_of: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
        server_of.iter().copied().enumerate()
    }

    /// `Scenario::placed_outcome` with `ConfigSums`, as they were.
    fn placed_outcome_oracle(
        sc: &Scenario,
        configs: &[VideoConfig],
        placement: &[(usize, usize)],
    ) -> Outcome {
        let (mut acc, mut net, mut com, mut eng) = (0.0, 0.0, 0.0, 0.0);
        for (i, c) in configs.iter().enumerate() {
            let s = sc.surfaces(i);
            acc += s.accuracy(c);
            net += s.bandwidth_bps(c);
            com += s.compute_tflops(c);
            eng += s.power_w(c);
        }
        let mut lat_sum = 0.0;
        for &(src, server) in placement {
            let uplink = sc.uplinks()[server];
            lat_sum += sc.surfaces(src).e2e_latency_secs(&configs[src], uplink);
        }
        let m = placement.len().max(1) as f64;
        Outcome {
            latency_s: lat_sum / m,
            accuracy: acc / configs.len() as f64,
            network_bps: net,
            compute_tflops: com,
            power_w: eng,
        }
    }

    /// `eva_serve::subset_outcome`, as it was.
    fn subset_outcome_oracle(
        sc: &Scenario,
        configs: &[VideoConfig],
        placement: &[(usize, usize)],
        cameras: usize,
    ) -> Outcome {
        let cameras = cameras.min(configs.len());
        if cameras == 0 {
            return Outcome {
                latency_s: 0.0,
                accuracy: 0.0,
                network_bps: 0.0,
                compute_tflops: 0.0,
                power_w: 0.0,
            };
        }
        let (mut acc_sum, mut net, mut com, mut eng) = (0.0, 0.0, 0.0, 0.0);
        for (i, c) in configs.iter().take(cameras).enumerate() {
            let s = sc.surfaces(i);
            acc_sum += s.accuracy(c);
            net += s.bandwidth_bps(c);
            com += s.compute_tflops(c);
            eng += s.power_w(c);
        }
        let mut lat_sum = 0.0;
        let mut n_streams = 0usize;
        for &(src, server) in placement {
            if src < cameras {
                let uplink = sc.uplinks()[server];
                lat_sum += sc.surfaces(src).e2e_latency_secs(&configs[src], uplink);
                n_streams += 1;
            }
        }
        Outcome {
            latency_s: lat_sum / n_streams.max(1) as f64,
            accuracy: acc_sum / cameras as f64,
            network_bps: net,
            compute_tflops: com,
            power_w: eng,
        }
    }

    /// The outcome inside `online::realized_epoch_benefit`, as it was.
    fn realized_oracle(
        sc: &Scenario,
        configs: &[VideoConfig],
        placement: &[(usize, usize)],
        fractions: &[FrameFractions],
    ) -> Outcome {
        let m = sc.n_videos();
        let (mut acc, mut net, mut com, mut eng) = (0.0, 0.0, 0.0, 0.0);
        for (cam, c) in configs.iter().enumerate() {
            let s = sc.surfaces(cam);
            let gen = fractions[cam].generated;
            let proc = fractions[cam].processed;
            let delivered = gen * fractions[cam].delivered * proc;
            acc += s.accuracy(c) * delivered;
            net += s.bandwidth_bps(c) * gen;
            com += s.compute_tflops(c) * gen * proc;
            eng += s.power_w(c) * gen * proc;
        }
        let mut lat_sum = 0.0;
        for &(src, server) in placement {
            let uplink = sc.uplinks()[server];
            lat_sum += sc.surfaces(src).e2e_latency_secs(&configs[src], uplink);
        }
        Outcome {
            latency_s: lat_sum / placement.len().max(1) as f64,
            accuracy: acc / m as f64,
            network_bps: net,
            compute_tflops: com,
            power_w: eng,
        }
    }

    /// `eva_sim::runner`'s Eq. 5 prediction, as it was.
    fn runner_oracle(sc: &Scenario, configs: &[VideoConfig], placement: &[(usize, usize)]) -> f64 {
        placement
            .iter()
            .map(|&(src, server)| {
                sc.surfaces(src)
                    .e2e_latency_secs(&configs[src], sc.uplinks()[server])
            })
            .sum::<f64>()
            / placement.len().max(1) as f64
    }

    /// `measure_decision`'s Eq. 2-4 loop, as it was: `[accuracy,
    /// network, compute, power]`.
    fn measure_oracle(sc: &Scenario, configs: &[VideoConfig]) -> [f64; 4] {
        let (mut acc, mut net, mut com, mut eng) = (0.0, 0.0, 0.0, 0.0);
        for (i, c) in configs.iter().enumerate() {
            let s = sc.surfaces(i);
            acc += s.accuracy(c);
            net += s.bandwidth_bps(c);
            com += s.compute_tflops(c);
            eng += s.power_w(c);
        }
        [acc / sc.n_videos() as f64, net, com, eng]
    }

    /// `ext_link_dynamics`' realized-outcome loop, as it was.
    fn link_dynamics_oracle(
        sc: &Scenario,
        configs: &[VideoConfig],
        server_of: &[usize],
    ) -> Outcome {
        let n = configs.len();
        let (mut acc, mut net, mut com, mut eng, mut lat) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for i in 0..n {
            let s = sc.surfaces(i);
            let c = &configs[i];
            acc += s.accuracy(c);
            net += s.bandwidth_bps(c);
            com += s.compute_tflops(c);
            eng += s.power_w(c);
            lat += s.e2e_latency_secs(c, sc.uplinks()[server_of[i]]);
        }
        Outcome {
            latency_s: lat / n as f64,
            accuracy: acc / n as f64,
            network_bps: net,
            compute_tflops: com,
            power_w: eng,
        }
    }

    /// `ext_multipath`'s fixed outcome terms, as they were: `[accuracy,
    /// network, compute, power]`.
    fn multipath_oracle(sc: &Scenario, configs: &[VideoConfig]) -> [f64; 4] {
        let (mut acc, mut net, mut com, mut eng) = (0.0, 0.0, 0.0, 0.0);
        for (i, c) in configs.iter().enumerate() {
            let s = sc.surfaces(i);
            acc += s.accuracy(c);
            net += s.bandwidth_bps(c);
            com += s.compute_tflops(c);
            eng += s.power_w(c);
        }
        [acc / configs.len() as f64, net, com, eng]
    }

    fn resource_bits(o: &Outcome) -> [u64; 4] {
        [o.accuracy, o.network_bps, o.compute_tflops, o.power_w].map(f64::to_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn all_cameras_match_placed_outcome(
            (cameras, servers, seed) in (1usize..8, 1usize..6, 0u64..u64::MAX)
        ) {
            let c = case(cameras, servers, seed);
            let got = c.sc.outcome_over(&c.configs, c.split.iter().copied(), Cameras::All);
            let want = placed_outcome_oracle(&c.sc, &c.configs, &c.split);
            prop_assert_eq!(bits(&got.unwrap()), bits(&want));
        }

        #[test]
        fn every_prefix_matches_subset_outcome(
            (cameras, servers, seed) in (1usize..8, 1usize..6, 0u64..u64::MAX)
        ) {
            let c = case(cameras, servers, seed);
            for k in 0..=cameras {
                let prefix = Cameras::Prefix(k);
                let got = c.sc.outcome_over(&c.configs, c.split.iter().copied(), prefix);
                let want = subset_outcome_oracle(&c.sc, &c.configs, &c.split, k);
                prop_assert_eq!(bits(&got.unwrap()), bits(&want), "k = {}", k);
            }
            // The prefix of every camera is the full outcome.
            let all = c.sc.outcome_over(&c.configs, c.split.iter().copied(), Cameras::All);
            let every = Cameras::Prefix(cameras);
            let prefix = c.sc.outcome_over(&c.configs, c.split.iter().copied(), every);
            prop_assert_eq!(bits(&prefix.unwrap()), bits(&all.unwrap()));
        }

        #[test]
        fn fractions_match_the_realized_epoch_outcome(
            (cameras, servers, seed) in (1usize..8, 1usize..6, 0u64..u64::MAX)
        ) {
            let c = case(cameras, servers, seed);
            let weights = Cameras::Fractions(&c.fractions);
            let got = c.sc.outcome_over(&c.configs, c.split.iter().copied(), weights);
            let want = realized_oracle(&c.sc, &c.configs, &c.split, &c.fractions);
            prop_assert_eq!(bits(&got.unwrap()), bits(&want));
            // Unit fractions weigh nothing.
            let ones = vec![FrameFractions::FULL; cameras];
            let unit = Cameras::Fractions(&ones);
            let unit = c.sc.outcome_over(&c.configs, c.split.iter().copied(), unit);
            let all = c.sc.outcome_over(&c.configs, c.split.iter().copied(), Cameras::All);
            prop_assert_eq!(bits(&unit.unwrap()), bits(&all.unwrap()));
        }

        #[test]
        fn latency_matches_the_runner_prediction(
            (cameras, servers, seed) in (1usize..8, 1usize..6, 0u64..u64::MAX)
        ) {
            let c = case(cameras, servers, seed);
            let got = c.sc.outcome_over(&c.configs, c.split.iter().copied(), Cameras::All);
            let want = runner_oracle(&c.sc, &c.configs, &c.split);
            prop_assert_eq!(got.unwrap().latency_s.to_bits(), want.to_bits());
        }

        #[test]
        fn unsplit_sums_match_measure_decision(
            (cameras, servers, seed) in (1usize..8, 1usize..6, 0u64..u64::MAX)
        ) {
            let c = case(cameras, servers, seed);
            let got = c.sc.outcome_over(&c.configs, unsplit(&c.server_of), Cameras::All);
            let want = measure_oracle(&c.sc, &c.configs).map(f64::to_bits);
            prop_assert_eq!(resource_bits(&got.unwrap()), want);
        }

        #[test]
        fn unsplit_outcome_matches_ext_link_dynamics(
            (cameras, servers, seed) in (1usize..8, 1usize..6, 0u64..u64::MAX)
        ) {
            let c = case(cameras, servers, seed);
            let got = c.sc.outcome_over(&c.configs, unsplit(&c.server_of), Cameras::All);
            let want = link_dynamics_oracle(&c.sc, &c.configs, &c.server_of);
            prop_assert_eq!(bits(&got.unwrap()), bits(&want));
        }

        #[test]
        fn unsplit_sums_match_ext_multipath(
            (cameras, servers, seed) in (1usize..8, 1usize..6, 0u64..u64::MAX)
        ) {
            let c = case(cameras, servers, seed);
            let round_robin = (0..cameras).map(|i| (i, i % servers));
            let got = c.sc.outcome_over(&c.configs, round_robin, Cameras::All);
            let want = multipath_oracle(&c.sc, &c.configs).map(f64::to_bits);
            prop_assert_eq!(resource_bits(&got.unwrap()), want);
        }
    }

    #[test]
    fn malformed_inputs_are_errors() {
        let c = case(3, 2, 7);
        let (sc, configs) = (&c.sc, &c.configs[..]);
        let placed = || c.split.iter().copied();
        let short = &configs[..2];
        assert_eq!(
            sc.outcome_over(short, placed(), Cameras::All),
            Err(AggregateError::Length("configurations", 2, 3))
        );
        assert_eq!(
            sc.outcome_over(configs, placed(), Cameras::Prefix(4)),
            Err(AggregateError::Length("prefix cameras", 4, 3))
        );
        assert_eq!(
            sc.outcome_over(configs, placed(), Cameras::Fractions(&c.fractions[..1])),
            Err(AggregateError::Length("frame fractions", 1, 3))
        );
        let ghost_camera = placed().chain([(3, 0)]);
        assert_eq!(
            sc.outcome_over(configs, ghost_camera, Cameras::All),
            Err(AggregateError::Placement(c.split.len(), 3, 0))
        );
        // Checked for every stream, counted or not.
        let ghost_server = [(2, 5)];
        assert_eq!(
            sc.outcome_over(configs, ghost_server, Cameras::Prefix(1)),
            Err(AggregateError::Placement(0, 2, 5))
        );
    }
}
