//! Host speed, sampled while the workload runs.
//!
//! The host changes speed by up to 1.6x within seconds: other tenants
//! share its cores, and CPU time slows with wall time, so neither clock
//! removes the drift. A sampler thread pinned to the workload's CPU
//! runs a fixed probe every [`PERIOD`]; the probe's wall time is how
//! slow the CPU is at that moment. A call's wall time, less the probe
//! time that preempted it, scaled by [`PROBE_REF_S`] over the mean probe
//! around the call, is its time in *reference seconds*: what it takes
//! on a host that runs the probe in exactly [`PROBE_REF_S`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Probe wall time of the reference host.
pub const PROBE_REF_S: f64 = 5e-4;

/// Pause between the end of one probe and the start of the next.
const PERIOD: Duration = Duration::from_millis(20);

/// A fixed piece of work that touches no code of the program: dense
/// floating-point factorisations and a sort.
fn probe_kernel() -> f64 {
    const N: usize = 48;
    let mut state = 0x1234_5678_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let b: Vec<f64> = (0..N * N).map(|_| next()).collect();
    let mut acc = 0.0;
    for _ in 0..3 {
        // a = b bᵀ + N·I, then its Cholesky factor in place.
        let mut a = vec![0.0; N * N];
        for i in 0..N {
            for j in 0..N {
                let dot: f64 = (0..N).map(|k| b[i * N + k] * b[j * N + k]).sum();
                a[i * N + j] = dot + if i == j { N as f64 } else { 0.0 };
            }
        }
        for j in 0..N {
            let d = (a[j * N + j] - (0..j).map(|k| a[j * N + k].powi(2)).sum::<f64>()).sqrt();
            a[j * N + j] = d;
            for i in j + 1..N {
                let s: f64 = (0..j).map(|k| a[i * N + k] * a[j * N + k]).sum();
                a[i * N + j] = (a[i * N + j] - s) / d;
            }
        }
        acc += a[N * N - 1];
    }
    let mut v: Vec<f64> = (0..10_000).map(|_| next()).collect();
    v.sort_by(f64::total_cmp);
    acc + v[100]
}

/// One probe: when it started and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Start of the probe.
    pub at: Instant,
    /// Wall seconds it took.
    pub secs: f64,
}

/// The probes of a whole run, in time order.
#[derive(Debug, Default)]
pub struct Speed {
    probes: Vec<Probe>,
}

impl Speed {
    /// Wrap probes taken in time order.
    pub fn new(probes: Vec<Probe>) -> Self {
        Speed { probes }
    }

    /// Probes taken.
    pub fn count(&self) -> usize {
        self.probes.len()
    }

    /// Median probe wall seconds ([`PROBE_REF_S`] with no probes).
    pub fn median_s(&self) -> f64 {
        let v: Vec<f64> = self.probes.iter().map(|p| p.secs).collect();
        crate::stats::median(&v).unwrap_or(PROBE_REF_S)
    }

    /// Probe seconds that overlap `[start, start + secs)`: time the
    /// sampler took from a call that ran on the same CPU.
    pub fn stolen_s(&self, start: Instant, secs: f64) -> f64 {
        let end = start + Duration::from_secs_f64(secs);
        self.probes
            .iter()
            .map(|p| {
                let p_end = p.at + Duration::from_secs_f64(p.secs);
                let lo = p.at.max(start);
                let hi = p_end.min(end);
                hi.saturating_duration_since(lo).as_secs_f64()
            })
            .sum()
    }

    /// A call of `secs` wall seconds from `start` in reference seconds:
    /// the probe time inside it removed, then scaled by the mean probe
    /// from one period before the call to one period after it.
    pub fn reference_s(&self, start: Instant, secs: f64) -> f64 {
        let net = (secs - self.stolen_s(start, secs)).max(0.0);
        let lo = start.checked_sub(PERIOD).unwrap_or(start);
        let hi = start + Duration::from_secs_f64(secs) + PERIOD;
        let near: Vec<f64> = self
            .probes
            .iter()
            .filter(|p| p.at >= lo && p.at <= hi)
            .map(|p| p.secs)
            .collect();
        let probe = if near.is_empty() {
            // No probe around the call: use the closest one.
            self.probes
                .iter()
                .min_by_key(|p| {
                    if p.at >= start {
                        p.at - start
                    } else {
                        start - p.at
                    }
                })
                .map_or(PROBE_REF_S, |p| p.secs)
        } else {
            crate::stats::mean(&near)
        };
        net * PROBE_REF_S / probe
    }
}

/// The sampler thread.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    probes: Arc<Mutex<Vec<Probe>>>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Pin this process to the CPU it runs on, then start sampling on
    /// that CPU. Pinning failure leaves the process unpinned; the probes
    /// then sample whichever CPU the sampler lands on.
    pub fn start() -> Self {
        if let Err(e) = pin_to_current_cpu() {
            eprintln!("perfbench: could not pin to one CPU ({e}); host-speed samples may miss");
        }
        let stop = Arc::new(AtomicBool::new(false));
        let probes = Arc::new(Mutex::new(Vec::new()));
        let handle = {
            let stop = Arc::clone(&stop);
            let probes = Arc::clone(&probes);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let at = Instant::now();
                    std::hint::black_box(probe_kernel());
                    let secs = at.elapsed().as_secs_f64();
                    probes
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .push(Probe { at, secs });
                    std::thread::sleep(PERIOD);
                }
            })
        };
        Sampler {
            stop,
            probes,
            handle: Some(handle),
        }
    }

    /// Stop sampling and return every probe.
    pub fn finish(mut self) -> Speed {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            if h.join().is_err() {
                eprintln!("perfbench: the host-speed sampler panicked");
            }
        }
        let probes = std::mem::take(&mut *self.probes.lock().unwrap_or_else(|p| p.into_inner()));
        Speed::new(probes)
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// A `cpu_set_t` of glibc: 1024 CPU bits.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Restrict the calling thread, and every thread it starts afterwards,
/// to the CPU it is running on.
fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's CPU number.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    if cpu >= 1024 {
        return Err(format!("CPU {cpu} is outside a cpu_set_t"));
    }
    let mut set = CpuSet { bits: [0; 16] };
    set.bits[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live, initialised `cpu_set_t`-sized buffer and
    // the size passed is its exact size; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc != 0 {
        return Err(format!("sched_setaffinity returned {rc}"));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn probe_time_inside_a_call_is_removed_and_the_rest_scaled() {
        let t = Instant::now();
        let speed = Speed::new(vec![
            Probe {
                at: at(t, 0),
                secs: 2.0 * PROBE_REF_S,
            },
            Probe {
                at: at(t, 30),
                secs: PROBE_REF_S,
            },
            Probe {
                at: at(t, 100),
                secs: 0.01,
            },
            Probe {
                at: at(t, 500),
                secs: 2.0 * PROBE_REF_S,
            },
        ]);
        // A 200 ms call from t+50 holds the whole 10 ms probe at t+100.
        assert!((speed.stolen_s(at(t, 50), 0.2) - 0.01).abs() < 1e-9);
        // A call clear of probes keeps its time; the nearest probe ran
        // at twice the reference time, so it counts half.
        let r = speed.reference_s(at(t, 450), 0.02);
        assert!((r - 0.01).abs() < 1e-9, "{r}");
        // A call with probes around it is scaled by their mean.
        let r = speed.reference_s(at(t, 5), 0.01);
        let mean = (2.0 * PROBE_REF_S + PROBE_REF_S) / 2.0;
        assert!((r - 0.01 * PROBE_REF_S / mean).abs() < 1e-12, "{r}");
    }

    #[test]
    fn no_probes_means_reference_speed() {
        let speed = Speed::default();
        assert_eq!(speed.reference_s(Instant::now(), 0.3), 0.3);
    }

    #[test]
    fn the_sampler_probes_and_stops() {
        let sampler = Sampler::start();
        std::thread::sleep(Duration::from_millis(60));
        let speed = sampler.finish();
        assert!(speed.count() >= 1);
        assert!(speed.median_s() > 0.0);
    }
}
