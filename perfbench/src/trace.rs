//! The traced run's recorder: spans with start and end times, plus the
//! program's own phase histograms and counters.
//!
//! The program reports a phase span only as a duration when it closes.
//! [`Tracer`] stamps the close time, so every span becomes an interval
//! and a layer's self time is its span minus the part of it that child
//! spans cover. Everything else is forwarded to an
//! [`eva_obs::FlightRecorder`], which keeps the counters and histograms
//! the crates emit. Spans stay in memory until [`Tracer::write`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use eva_obs::{FlightRecorder, ObsEvent, ObsSnapshot, Phase, Recorder};

/// One closed span: a program phase or a call timed by the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Phase name (`Phase::as_str`) or benchmark label.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A recorder that keeps every span as an interval.
pub struct Tracer {
    origin: Instant,
    flight: FlightRecorder,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            flight: FlightRecorder::new(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(span);
    }

    /// Record a call the benchmark timed itself, from `start` to now.
    pub fn mark(&self, name: &'static str, start: Instant) {
        let end_ns = self.now_ns();
        let start_ns = u64::try_from(start.saturating_duration_since(self.origin).as_nanos())
            .unwrap_or(u64::MAX)
            .min(end_ns);
        self.push(Span {
            name,
            start_ns,
            end_ns,
        });
    }

    /// All spans so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().unwrap_or_else(|p| p.into_inner()).clone();
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        spans
    }

    /// The forwarded counters, histograms and phase totals.
    pub fn snapshot(&self) -> ObsSnapshot {
        self.flight.snapshot()
    }

    /// Write every span (one JSON object a line) followed by the
    /// flight recorder's snapshot to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"span\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        let _ = writeln!(out, "{{\"snapshot\":{}}}", self.snapshot().to_json());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Recorder for Tracer {
    fn enabled(&self) -> bool {
        true
    }

    fn record_span(&self, phase: Phase, nanos: u64) {
        let end_ns = self.now_ns();
        self.push(Span {
            name: phase.as_str(),
            start_ns: end_ns.saturating_sub(nanos),
            end_ns,
        });
        self.flight.record_span(phase, nanos);
    }

    fn add(&self, name: &'static str, delta: u64) {
        self.flight.add(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.flight.gauge(name, value);
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.flight.observe(name, value);
    }

    fn event(&self, event: ObsEvent) {
        self.flight.event(event);
    }
}

/// Total seconds of all spans named `name` (+0 when there are none).
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .fold(0.0, |a, b| a + b)
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Total self time of the spans named `parent`: each one's duration
/// minus the union of the `children` spans inside it. `spans` must be
/// ordered by start time, as [`Tracer::spans`] returns them.
pub fn self_time_s(spans: &[Span], parent: &str, children: &[&str]) -> f64 {
    let kids: Vec<&Span> = spans
        .iter()
        .filter(|s| children.contains(&s.name))
        .collect();
    let mut total_ns = 0u64;
    for p in spans.iter().filter(|s| s.name == parent) {
        let first = kids.partition_point(|k| k.start_ns < p.start_ns);
        let mut covered = 0u64;
        let mut reach = p.start_ns;
        for k in kids[first..].iter().take_while(|k| k.start_ns < p.end_ns) {
            let lo = k.start_ns.max(reach);
            let hi = k.end_ns.min(p.end_ns);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        total_ns += (p.end_ns - p.start_ns).saturating_sub(covered);
    }
    total_ns as f64 * 1e-9
}

/// Phase totals by name, for the human-readable summary.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64)> {
    let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.secs();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("decide", 0, 100),
            span("outcome_fit", 10, 30),
            span("gp_fit", 12, 20),
            span("bo_search", 40, 90),
            span("grouping", 50, 60),
            span("decide", 200, 250),
            span("grouping", 210, 220),
        ];
        // decide: 100 - 20 - 50 = 30, plus 50 with no listed child.
        let s = self_time_s(&spans, "decide", &["outcome_fit", "bo_search"]);
        assert!((s - 80e-9).abs() < 1e-15, "{s}");
        // Nested children are not double-counted.
        let s = self_time_s(&spans, "decide", &["outcome_fit", "gp_fit", "bo_search"]);
        assert!((s - 80e-9).abs() < 1e-15, "{s}");
        let s = self_time_s(&spans, "bo_search", &["grouping"]);
        assert!((s - 40e-9).abs() < 1e-15, "{s}");
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("p", 10, 20), span("c", 15, 30)];
        assert!((self_time_s(&spans, "p", &["c"]) - 5e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_stamps_phase_spans_and_forwards_counters() {
        let t = Tracer::new();
        {
            let _g = eva_obs::span(&t, Phase::Grouping);
            std::hint::black_box(0);
        }
        t.add("sched.assignments", 2);
        let start = Instant::now();
        t.mark("op", start);
        let spans = t.spans();
        assert_eq!(count(&spans, "grouping"), 1);
        assert_eq!(count(&spans, "op"), 1);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.snapshot().metrics.counter("sched.assignments"), 2);
    }
}
