//! The flight recorder: an in-memory [`Recorder`] that keeps per-phase
//! duration histograms, a metrics registry and a bounded event log,
//! and exports them as a machine-readable JSON snapshot (tests also
//! read the event log as JSONL).

use std::cell::RefCell;
use std::fmt::Write as _;

use crate::hist::LogLinearHistogram;
use crate::json;
use crate::recorder::{ObsEvent, Phase, Recorder};
use crate::registry::MetricsRegistry;

/// Default cap on retained events; past it, new events are dropped and
/// counted in the snapshot's `events_dropped` field.
pub(crate) const DEFAULT_MAX_EVENTS: usize = 65_536;

struct Inner {
    phases: Vec<LogLinearHistogram>,
    metrics: MetricsRegistry,
    events: Vec<ObsEvent>,
    events_dropped: u64,
}

/// An enabled recorder backing the perf baseline and any diagnostic
/// run. It is single-threaded by type (`!Sync`), like the library.
pub struct FlightRecorder {
    inner: RefCell<Inner>,
    max_events: usize,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A fresh recorder with the default event cap.
    pub fn new() -> Self {
        FlightRecorder {
            inner: RefCell::new(Inner {
                phases: (0..Phase::ALL.len())
                    .map(|_| LogLinearHistogram::new())
                    .collect(),
                metrics: MetricsRegistry::new(),
                events: Vec::new(),
                events_dropped: 0,
            }),
            max_events: DEFAULT_MAX_EVENTS,
        }
    }

    /// Override the retained-event cap.
    #[cfg(test)]
    pub(crate) fn with_max_events(mut self, max_events: usize) -> Self {
        self.max_events = max_events;
        self
    }

    /// Immutable copy of everything recorded so far.
    pub fn snapshot(&self) -> ObsSnapshot {
        let inner = self.inner.borrow();
        ObsSnapshot {
            phases: Phase::ALL
                .iter()
                .map(|&p| (p, inner.phases[p.index()].clone()))
                .filter(|(_, h)| h.count() > 0)
                .collect(),
            metrics: inner.metrics.clone(),
            events: inner.events.clone(),
            events_dropped: inner.events_dropped,
        }
    }
}

impl Recorder for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record_span(&self, phase: Phase, nanos: u64) {
        self.inner.borrow_mut().phases[phase.index()].record(nanos as f64 * 1e-9);
    }

    fn add(&self, name: &'static str, delta: u64) {
        self.inner.borrow_mut().metrics.add(name, delta);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.inner.borrow_mut().metrics.gauge(name, value);
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.inner.borrow_mut().metrics.observe(name, value);
    }

    fn event(&self, event: ObsEvent) {
        let mut inner = self.inner.borrow_mut();
        if inner.events.len() >= self.max_events {
            inner.events_dropped += 1;
        } else {
            inner.events.push(event);
        }
    }
}

/// Summary statistics of one phase histogram (all durations seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Completed spans.
    pub count: u64,
    /// Total wall-clock time.
    pub total_s: f64,
    /// Mean span duration.
    pub mean_s: f64,
    /// Median span duration (bucket resolution).
    pub p50_s: f64,
    /// 95th-percentile span duration (bucket resolution).
    pub p95_s: f64,
    /// Longest span (exact).
    pub max_s: f64,
}

impl PhaseStats {
    fn of(h: &LogLinearHistogram) -> PhaseStats {
        PhaseStats {
            count: h.count(),
            total_s: h.sum(),
            mean_s: h.mean().unwrap_or(0.0),
            p50_s: h.quantile(0.5).unwrap_or(0.0),
            p95_s: h.quantile(0.95).unwrap_or(0.0),
            max_s: h.max().unwrap_or(0.0),
        }
    }
}

/// A point-in-time copy of a [`FlightRecorder`]'s contents.
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// Occupied phase histograms, pipeline-ordered (durations seconds).
    pub phases: Vec<(Phase, LogLinearHistogram)>,
    /// Counters, gauges, named histograms.
    pub metrics: MetricsRegistry,
    /// Retained events, in record order.
    pub events: Vec<ObsEvent>,
    /// Events dropped past the retention cap.
    pub events_dropped: u64,
}

impl ObsSnapshot {
    /// Per-phase summary stats, pipeline-ordered.
    pub fn phase_stats(&self) -> Vec<(Phase, PhaseStats)> {
        self.phases
            .iter()
            .map(|(p, h)| (*p, PhaseStats::of(h)))
            .collect()
    }

    /// The events as JSON Lines — one self-contained object per line.
    #[cfg(test)]
    pub(crate) fn events_jsonl(&self) -> String {
        use crate::recorder::Field;
        let mut out = String::new();
        for (seq, e) in self.events.iter().enumerate() {
            out.push('{');
            json::key(&mut out, "seq");
            let _ = write!(out, "{seq}");
            out.push(',');
            json::key(&mut out, "severity");
            let _ = write!(out, "\"{}\"", e.severity.as_str());
            out.push(',');
            json::key(&mut out, "kind");
            let _ = write!(out, "\"{}\"", json::escape(e.kind));
            out.push(',');
            json::key(&mut out, "message");
            let _ = write!(out, "\"{}\"", json::escape(&e.message));
            out.push(',');
            json::key(&mut out, "fields");
            out.push('{');
            for (i, (k, v)) in e.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::key(&mut out, k);
                match v {
                    Field::U64(n) => {
                        let _ = write!(out, "{n}");
                    }
                    Field::F64(x) => out.push_str(&json::number(*x)),
                    Field::Bool(b) => {
                        let _ = write!(out, "{b}");
                    }
                    Field::Str(s) => {
                        let _ = write!(out, "\"{}\"", json::escape(s));
                    }
                }
            }
            out.push_str("}}\n");
        }
        out
    }

    /// Machine-readable JSON of phases, counters, gauges and histogram
    /// summaries (durations in milliseconds for phases, raw units for
    /// named histograms).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        json::key(&mut out, "phases");
        out.push('{');
        for (i, (p, h)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::key(&mut out, p.as_str());
            let s = PhaseStats::of(h);
            out.push('{');
            let _ = write!(out, "\"count\":{},", s.count);
            let _ = write!(out, "\"total_ms\":{},", json::number(s.total_s * 1e3));
            let _ = write!(out, "\"mean_ms\":{},", json::number(s.mean_s * 1e3));
            let _ = write!(out, "\"p50_ms\":{},", json::number(s.p50_s * 1e3));
            let _ = write!(out, "\"p95_ms\":{},", json::number(s.p95_s * 1e3));
            let _ = write!(out, "\"max_ms\":{}", json::number(s.max_s * 1e3));
            out.push('}');
        }
        out.push_str("},");
        json::key(&mut out, "counters");
        out.push('{');
        for (i, (k, v)) in self.metrics.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::key(&mut out, k);
            let _ = write!(out, "{v}");
        }
        out.push_str("},");
        json::key(&mut out, "gauges");
        out.push('{');
        for (i, (k, v)) in self.metrics.gauges().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::key(&mut out, k);
            out.push_str(&json::number(v));
        }
        out.push_str("},");
        json::key(&mut out, "histograms");
        out.push('{');
        for (i, (k, h)) in self.metrics.histograms().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::key(&mut out, k);
            out.push('{');
            let _ = write!(out, "\"count\":{},", h.count());
            let _ = write!(out, "\"sum\":{},", json::number(h.sum()));
            let _ = write!(
                out,
                "\"min\":{},",
                json::number(h.min().unwrap_or(f64::NAN))
            );
            let _ = write!(
                out,
                "\"max\":{},",
                json::number(h.max().unwrap_or(f64::NAN))
            );
            let _ = write!(
                out,
                "\"p50\":{},",
                json::number(h.quantile(0.5).unwrap_or(f64::NAN))
            );
            let _ = write!(
                out,
                "\"p95\":{}",
                json::number(h.quantile(0.95).unwrap_or(f64::NAN))
            );
            out.push('}');
        }
        out.push_str("},");
        json::key(&mut out, "events_recorded");
        let _ = write!(out, "{}", self.events.len());
        out.push(',');
        json::key(&mut out, "events_dropped");
        let _ = write!(out, "{}", self.events_dropped);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{span, Severity};

    #[test]
    fn spans_land_in_phase_histograms() {
        let rec = FlightRecorder::new();
        {
            let _g = span(&rec, Phase::BoSearch);
            std::hint::black_box(1 + 1);
        }
        rec.record_span(Phase::Grouping, 1_500); // 1.5 µs, injected
        let snap = rec.snapshot();
        let stats = snap.phase_stats();
        assert!(stats
            .iter()
            .any(|(p, s)| *p == Phase::BoSearch && s.count == 1));
        let g = stats
            .iter()
            .find(|(p, _)| *p == Phase::Grouping)
            .map(|(_, s)| *s)
            .unwrap();
        assert!((g.total_s - 1.5e-6).abs() < 1e-12);
    }

    #[test]
    fn jsonl_escapes_and_orders_events() {
        let rec = FlightRecorder::new();
        rec.event(
            ObsEvent::warn("skip", "line \"one\"\nline two")
                .with("epoch", 7u64)
                .with("why", "nan"),
        );
        rec.event(ObsEvent::info("ok", "fine").with("x", 0.5));
        let jsonl = rec.snapshot().events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[0].contains("\\\"one\\\""));
        assert!(lines[0].contains("\\n"));
        assert!(lines[1].contains("\"x\":0.5"));
        // Every line is a complete JSON object.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn event_cap_drops_and_counts() {
        let rec = FlightRecorder::new().with_max_events(2);
        for i in 0..5u64 {
            rec.event(ObsEvent::info("e", "x").with("i", i));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events_dropped, 3);
        assert_eq!(snap.events[0].severity, Severity::Info);
    }

    #[test]
    fn snapshot_json_is_well_formed_enough() {
        let rec = FlightRecorder::new();
        rec.add("des.events", 10);
        rec.gauge("bo.converged", 1.0);
        rec.observe("gp.cholesky.dim", 25.0);
        rec.record_span(Phase::Des, 2_000_000);
        let js = rec.snapshot().to_json();
        assert!(js.starts_with('{') && js.ends_with('}'));
        assert!(js.contains("\"des\":{\"count\":1"));
        assert!(js.contains("\"des.events\":10"));
        assert!(js.contains("\"gp.cholesky.dim\":{\"count\":1"));
        assert_eq!(js.matches('{').count(), js.matches('}').count());
    }
}
