//! The metrics registry: named counters, gauges and histograms.
//!
//! A plain container — [`crate::FlightRecorder`] keeps one in a
//! `RefCell`, and aggregation jobs merge per-run registries after the
//! fact. `BTreeMap` keys keep every export deterministically ordered.

use std::collections::BTreeMap;

use crate::hist::LogLinearHistogram;

/// Counters, gauges and histograms by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogLinearHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Increment counter `name` by `delta`.
    pub(crate) fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set gauge `name` to its latest value.
    pub(crate) fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Record `value` into histogram `name`.
    pub(crate) fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Latest value of a gauge.
    #[cfg(test)]
    pub(crate) fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&LogLinearHistogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, name-ordered.
    pub(crate) fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, name-ordered.
    pub(crate) fn histograms(&self) -> impl Iterator<Item = (&str, &LogLinearHistogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merge another registry into this one: counters add, histograms
    /// merge bucket-wise, gauges take `other`'s value (latest wins).
    #[cfg(test)]
    pub(crate) fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.counter("x"), 0);
        r.add("x", 2);
        r.add("x", 3);
        assert_eq!(r.counter("x"), 5);
    }

    #[test]
    fn gauges_keep_latest_value() {
        let mut r = MetricsRegistry::new();
        r.gauge("g", 1.0);
        r.gauge("g", 7.5);
        assert_eq!(r.gauge_value("g"), Some(7.5));
    }

    #[test]
    fn merge_adds_counters_and_merges_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add("c", 1);
        b.add("c", 2);
        a.observe("h", 1.0);
        b.observe("h", 4.0);
        b.gauge("g", 9.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.histogram("h").map(|h| h.count()), Some(2));
        assert_eq!(a.histogram("h").and_then(|h| h.max()), Some(4.0));
        assert_eq!(a.gauge_value("g"), Some(9.0));
    }
}
