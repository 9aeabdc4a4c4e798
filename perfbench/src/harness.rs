//! What every workload shares: the run record, the output digest, and
//! timing of calls into the program's public entry points.

use std::time::Instant;

use eva_obs::{NoopRecorder, Recorder};

use crate::procfs;
use crate::trace::Tracer;

/// What one pass of a workload is asked to do.
pub struct Plan<'a> {
    /// Seed of the pass's inputs.
    pub seed: u64,
    /// Timed ops (workloads with a natural end ignore it).
    pub ops: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// The tracer of a traced pass.
    pub tracer: Option<&'a Tracer>,
}

/// Seed of every workload's fleet (clips and uplinks). The fleet is a
/// fixed testbed; the run seed draws what changes over time on it
/// (content drift, churn, faults, link processes and the scheduler's
/// random stream), so runs with different seeds differ in their traffic,
/// not in the size and shape of the system under test.
pub const FLEET_SEED: u64 = 2024;

/// One timed call into the program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// When the call started.
    pub start: Instant,
    /// Wall seconds the call took.
    pub secs: f64,
    /// What kind of call it was (workload-specific label).
    pub kind: &'static str,
}

/// The record of one pass of a workload: its set-up times, its timed
/// ops, and everything the checks found.
#[derive(Debug, Default)]
pub struct Run {
    /// Start and wall seconds of each set-up repetition.
    pub setups: Vec<(Instant, f64)>,
    /// The timed ops, in order.
    pub ops: Vec<Op>,
    /// Start and end of the timed loop.
    pub window: Option<(Instant, Instant)>,
    /// Process CPU seconds over the timed loop, when `/proc` has them.
    pub cpu_s: Option<f64>,
    /// Main-thread CPU seconds over the timed loop.
    pub thread_cpu_s: Option<f64>,
    /// Ops whose call failed or whose output failed a check.
    pub failed_ops: u64,
    /// Every failed check, one line each.
    pub failures: Vec<String>,
    /// Digest of the program's outputs, for comparing two passes.
    pub digest: Digest,
    /// Workload sizes, for the result record.
    pub sizes: String,
    /// The op kind `op_s_p50` is taken over: the call a user of this
    /// workload waits for.
    pub primary: &'static str,
    /// Workload-level figures the per-layer table reports, by name.
    pub figures: Vec<(&'static str, f64)>,
}

impl Run {
    /// Record a failed check of the current op.
    pub fn fail(&mut self, what: String) {
        self.failed_ops += 1;
        self.failures.push(what);
    }

    /// Record the outcome of checking one op.
    pub fn check(&mut self, op: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.fail(format!("{op}: {e}"));
        }
    }

    /// Set the workload up `reps` times (at least once), timing each,
    /// and keep the last state. The previous state is dropped before the
    /// next set-up starts, so peak memory holds one state.
    pub fn set_up<T>(&mut self, reps: usize, mut f: impl FnMut(&mut Run) -> T) -> T {
        let mut state = None;
        for _ in 0..reps.max(1) {
            drop(state.take());
            let t0 = Instant::now();
            state = Some(f(self));
            self.setups.push((t0, t0.elapsed().as_secs_f64()));
        }
        match state {
            Some(s) => s,
            None => unreachable!("at least one set-up ran"),
        }
    }

    /// Time one op.
    pub fn op<T>(
        &mut self,
        tracer: Option<&Tracer>,
        kind: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let (out, secs) = timed(tracer, "op", f);
        self.ops.push(Op { start, secs, kind });
        out
    }

    /// Start the clocks of the timed loop.
    pub fn start_loop(&self) -> CpuMark {
        CpuMark::now()
    }

    /// Stop the clocks of the timed loop.
    pub fn end_loop(&mut self, start: CpuMark) {
        let end = CpuMark::now();
        self.window = Some((start.at, end.at));
        self.cpu_s = start.process.zip(end.process).map(|(a, b)| b - a);
        self.thread_cpu_s = start.thread.zip(end.thread).map(|(a, b)| b - a);
    }

    /// Wall seconds of each op.
    pub fn op_secs(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.secs).collect()
    }

    /// The figure named `name`, or 0 when this workload has none.
    pub fn figure(&self, name: &str) -> f64 {
        self.figures
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// FNV-1a over 64-bit words: a digest of program outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix in one word.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix in a float by its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mix in a string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }
}

/// The recorder to hand the program: the tracer in a traced pass, the
/// no-op recorder otherwise.
pub fn recorder(tracer: Option<&Tracer>) -> &dyn Recorder {
    match tracer {
        Some(t) => t,
        None => &NoopRecorder,
    }
}

/// Run `f`, returning its value and wall seconds; a traced pass also
/// keeps the call as a span named `label`.
pub fn timed<T>(tracer: Option<&Tracer>, label: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    let secs = t0.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.mark(label, t0);
    }
    (out, secs)
}

/// Wall, process CPU and thread CPU readings at one instant.
pub struct CpuMark {
    at: Instant,
    process: Option<f64>,
    thread: Option<f64>,
}

impl CpuMark {
    fn now() -> Self {
        CpuMark {
            at: Instant::now(),
            process: procfs::process_cpu_s(),
            thread: procfs::thread_cpu_s(),
        }
    }
}

/// A seed for one input stream of a workload, decorrelated from the
/// workload seed and the other streams.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed ^ (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.u64(1);
        c.u64(2);
        assert_eq!(a, c);
    }

    #[test]
    fn failed_checks_count_once_per_op() {
        let mut run = Run::default();
        run.check("op 1", Ok(()));
        run.check("op 2", Err("bad".into()));
        assert_eq!(run.failed_ops, 1);
        assert_eq!(run.failures, vec!["op 2: bad".to_string()]);
    }
}
