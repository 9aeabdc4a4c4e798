//! The [`Recorder`] trait: the single seam every instrumented crate
//! talks to.
//!
//! Hot paths take a `&dyn Recorder` and call [`span`] / counters /
//! [`emit_warn`] unconditionally; the default [`NoopRecorder`] has
//! empty method bodies and reports `enabled() == false`, so spans never
//! read the clock and event payloads are never built when telemetry is
//! off — the instrumented code path performs the same arithmetic in
//! the same order and stays bit-identical to an uninstrumented run
//! (telemetry never touches RNG state or any numeric input).

use std::time::Instant;

/// The phase taxonomy of the scheduler pipeline. One span per phase
/// execution; a [`crate::FlightRecorder`] keeps a duration histogram
/// per phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One full online scheduling epoch.
    Epoch,
    /// One full PaMO decision (Algorithm 2 end to end).
    Decide,
    /// Outcome-GP bank fitting (Algorithm 2 lines 1-4).
    OutcomeFit,
    /// Preference elicitation + preference-GP update (lines 5-11).
    PrefModel,
    /// The qNEI/BO search loop (lines 12-26).
    BoSearch,
    /// Batched composite-surrogate posteriors for one candidate scan
    /// (inside `BoSearch`).
    BoPrepare,
    /// The per-camera outcome-GP posteriors of one batched scan
    /// (inside `BoPrepare`).
    BoPosterior,
    /// Common-random-number sample assembly of one batched scan: draws
    /// pushed through the preference layer (inside `BoPrepare`).
    BoAssemble,
    /// The greedy batch construction of one BO iteration: every slot's
    /// acquisition scan over the candidate pool (inside `BoSearch`).
    BoAcquisition,
    /// Conditioning the outcome-model bank on one objective
    /// evaluation's measurements (Algorithm 2 line 18, inside
    /// `BoSearch`).
    BankUpdate,
    /// One GP hyperparameter fit (inside `OutcomeFit`).
    GpFit,
    /// Algorithm-1 splitting + Theorem-3 grouping.
    Grouping,
    /// Rank-pairing group→server assignment.
    Assignment,
    /// A discrete-event simulation run.
    Des,
    /// The degraded-mode uniform-fallback ladder scan.
    Fallback,
    /// One admission-control feasibility probe (continuous serving).
    Admission,
    /// One event-driven replan (incremental row repair or full
    /// Algorithm 1 re-solve) triggered by arrival/departure/failure/
    /// restore.
    Replan,
    /// Retry-queue load shedding (age expiry or high-water eviction)
    /// under overload.
    Shed,
    /// Bonded-uplink packet striping: per-frame multipath scheduling
    /// plus the receiver reorder-buffer model (inside `Des` seeding).
    BondStripe,
}

impl Phase {
    /// All phases, in pipeline order (the order summaries print in).
    pub(crate) const ALL: [Phase; 19] = [
        Phase::Epoch,
        Phase::Decide,
        Phase::OutcomeFit,
        Phase::PrefModel,
        Phase::BoSearch,
        Phase::BoPrepare,
        Phase::BoPosterior,
        Phase::BoAssemble,
        Phase::BoAcquisition,
        Phase::BankUpdate,
        Phase::GpFit,
        Phase::Grouping,
        Phase::Assignment,
        Phase::Des,
        Phase::Fallback,
        Phase::Admission,
        Phase::Replan,
        Phase::Shed,
        Phase::BondStripe,
    ];

    /// Stable machine-readable name (used in exports and schemas).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Epoch => "epoch",
            Phase::Decide => "decide",
            Phase::OutcomeFit => "outcome_fit",
            Phase::PrefModel => "pref_model",
            Phase::BoSearch => "bo_search",
            Phase::BoPrepare => "bo_prepare",
            Phase::BoPosterior => "bo_posterior",
            Phase::BoAssemble => "bo_assemble",
            Phase::BoAcquisition => "bo_acquisition",
            Phase::BankUpdate => "bank_update",
            Phase::GpFit => "gp_fit",
            Phase::Grouping => "grouping",
            Phase::Assignment => "assignment",
            Phase::Des => "des",
            Phase::Fallback => "fallback",
            Phase::Admission => "admission",
            Phase::Replan => "replan",
            Phase::Shed => "shed",
            Phase::BondStripe => "bond_stripe",
        }
    }

    /// Index into [`Phase::ALL`]-ordered storage.
    pub(crate) fn index(self) -> usize {
        match self {
            Phase::Epoch => 0,
            Phase::Decide => 1,
            Phase::OutcomeFit => 2,
            Phase::PrefModel => 3,
            Phase::BoSearch => 4,
            Phase::BoPrepare => 5,
            Phase::BoPosterior => 6,
            Phase::BoAssemble => 7,
            Phase::BoAcquisition => 8,
            Phase::BankUpdate => 9,
            Phase::GpFit => 10,
            Phase::Grouping => 11,
            Phase::Assignment => 12,
            Phase::Des => 13,
            Phase::Fallback => 14,
            Phase::Admission => 15,
            Phase::Replan => 16,
            Phase::Shed => 17,
            Phase::BondStripe => 18,
        }
    }
}

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Operational breadcrumb (fault detection, restore, fallback).
    Info,
    /// Degraded operation — these mirror to stderr via [`emit_warn`].
    Warn,
}

#[cfg(test)]
impl Severity {
    /// Stable lowercase name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
        }
    }
}

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}
impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}
impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F64(v)
    }
}
impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}
impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_string())
    }
}
impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}

/// A structured telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable kind (e.g. `"epoch_skipped"`).
    pub kind: &'static str,
    /// Human-readable message — for warnings this is exactly the line
    /// mirrored to stderr.
    pub message: String,
    /// Typed key/value payload.
    pub fields: Vec<(&'static str, Field)>,
}

impl ObsEvent {
    /// A warning event (mirrored to stderr by [`emit_warn`]).
    pub fn warn(kind: &'static str, message: impl Into<String>) -> Self {
        ObsEvent {
            severity: Severity::Warn,
            kind,
            message: message.into(),
            fields: Vec::new(),
        }
    }

    /// An informational event.
    pub fn info(kind: &'static str, message: impl Into<String>) -> Self {
        ObsEvent {
            severity: Severity::Info,
            kind,
            message: message.into(),
            fields: Vec::new(),
        }
    }

    /// Attach a typed field.
    pub fn with(mut self, key: &'static str, value: impl Into<Field>) -> Self {
        self.fields.push((key, value.into()));
        self
    }
}

/// The telemetry sink. All methods default to no-ops so recorders
/// implement only what they store.
pub trait Recorder {
    /// Whether this recorder stores anything. `false` lets call sites
    /// skip clock reads and event construction entirely.
    fn enabled(&self) -> bool {
        false
    }

    /// A completed phase span of `nanos` wall-clock nanoseconds.
    fn record_span(&self, phase: Phase, nanos: u64) {
        let _ = (phase, nanos);
    }

    /// Increment a named counter.
    fn add(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Set a named gauge to its latest value.
    fn gauge(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Record a value into a named histogram.
    fn observe(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Record a structured event.
    fn event(&self, event: ObsEvent) {
        let _ = event;
    }

    /// Whether [`emit_warn`] also prints the warning to stderr. `true`
    /// by default; a recorder for steps that already ran once (a
    /// checkpoint's replay) returns `false` so their warnings are not
    /// printed twice.
    fn mirrors_warnings(&self) -> bool {
        true
    }
}

/// The default recorder: stores nothing, `enabled() == false`, every
/// method compiles to an empty body.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// An RAII phase span: reads the clock only when the recorder is
/// enabled, and reports the elapsed wall-clock time on drop.
#[must_use = "a span measures the scope it is bound to; bind it to a named guard"]
pub struct Span<'a> {
    rec: &'a dyn Recorder,
    phase: Phase,
    start: Option<Instant>,
}

/// Open a phase span on `rec`. Under a [`NoopRecorder`] this never
/// touches the clock.
pub fn span<'a>(rec: &'a dyn Recorder, phase: Phase) -> Span<'a> {
    Span {
        rec,
        phase,
        start: rec.enabled().then(Instant::now),
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.rec.record_span(self.phase, nanos);
        }
    }
}

/// Record a warning event *and* mirror its message to stderr.
///
/// The stderr line is printed for every recorder whose
/// [`Recorder::mirrors_warnings`] holds — the no-op one included — so
/// replacing an ad-hoc `eprintln!` with `emit_warn` preserves the exact
/// observable behaviour of uninstrumented runs.
pub fn emit_warn(rec: &dyn Recorder, event: ObsEvent) {
    if rec.mirrors_warnings() {
        eprintln!("{}", event.message);
    }
    if rec.enabled() {
        rec.event(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_index_matches_all_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "{p:?}");
        }
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Phase::ALL.len(), "duplicate phase name");
    }

    #[test]
    fn noop_recorder_is_disabled_and_spans_skip_the_clock() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        let s = span(&rec, Phase::BoSearch);
        assert!(s.start.is_none(), "noop span must not read the clock");
        drop(s);
    }

    #[test]
    fn event_builder_collects_fields() {
        let e = ObsEvent::warn("epoch_skipped", "skipping")
            .with("epoch", 3u64)
            .with("reason", "decision_failed")
            .with("benefit", f64::NAN);
        assert_eq!(e.severity, Severity::Warn);
        assert_eq!(e.fields.len(), 3);
        assert_eq!(e.fields[0], ("epoch", Field::U64(3)));
    }
}
