//! The per-layer ledger.
//!
//! Spans are recorded from the benchmark's side of each layer boundary: the
//! benchmark wraps its own calls into a layer's public functions, or replays
//! a layer's work outside the production call (on the same input) when the
//! production call runs it internally. A parent's `self` span is its
//! measured time minus the child spans of the same operation.
//!
//! Spans and counters are recorded only while the tracer is *active*. In a
//! traced run set-up and checks are always active, and the measured loop
//! alternates active and plain iterations, so the loop's plain iterations
//! give the untraced baseline the tracing overhead is reported against.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats;

/// Part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building the inputs and the program state the loop starts from.
    Setup,
    /// The measured loop.
    Loop,
    /// Output checks after the loop.
    Check,
}

/// Seconds → unit factor of a per-call time.
fn unit_scale(unit: &str) -> f64 {
    match unit {
        "us" => 1e6,
        _ => 1e3,
    }
}

/// Every span the ledger reports, on every workload, with the unit of its
/// per-call time; the metric is `<span>_<unit>`. Per operation: children
/// first, then the `self` remainder of the parent.
pub const SPANS: &[(&str, &str)] = &[
    // `StreamingDetector::push` completing a window.
    ("features.streaming.push_hop", "us"),
    ("features.quality.window", "us"),
    ("ml.flat.predict", "us"),
    ("core.streaming.self", "us"),
    // `observe_missed_seizure` + `save_to_store`.
    ("features.quality.batch", "ms"),
    ("features.paper.batch", "ms"),
    ("core.algorithm", "ms"),
    ("features.rich.batch", "ms"),
    ("ml.incremental.retrain", "ms"),
    ("core.pipeline.self", "ms"),
    ("ml.persist.save", "ms"),
    // `FlashStore::mount` + `resume_from_store`.
    ("ml.persist.mount", "ms"),
    ("core.pipeline.resume_base", "ms"),
    ("ml.incremental.replay", "ms"),
    ("core.pipeline.resume_self", "ms"),
];

/// How a counter's observations are summarised.
#[derive(Clone, Copy)]
pub enum Summary {
    Mean,
    Median,
}

/// Every counter the ledger reports: name, unit, summary.
pub const COUNTERS: &[(&str, &str, Summary)] = &[
    ("ml.incremental.trees_refit", "count", Summary::Mean),
    ("ml.incremental.pool_windows", "count", Summary::Mean),
    ("ml.persist.bytes_programmed", "B", Summary::Mean),
    ("ml.persist.rebases", "1/save", Summary::Mean),
    ("ml.persist.base_bytes", "B", Summary::Mean),
    ("ml.persist.journal_entries", "count", Summary::Mean),
    ("core.algorithm.label_delta_s", "s", Summary::Median),
];

#[derive(Debug, Default, Clone, Copy)]
struct SpanTotals {
    calls: u64,
    busy_s: f64,
    loop_busy_s: f64,
}

/// The span and counter ledger of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    active: bool,
    phase: Phase,
    spans: BTreeMap<&'static str, SpanTotals>,
    counters: BTreeMap<&'static str, Vec<f64>>,
    /// Loop operation times of active iterations.
    traced_ops: Vec<f64>,
    /// Loop operation times of plain iterations.
    plain_ops: Vec<f64>,
}

impl Tracer {
    /// A tracer for a run with tracing on or off; an off tracer records
    /// nothing and every call on it is a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            active: false,
            phase: Phase::Setup,
            spans: BTreeMap::new(),
            counters: BTreeMap::new(),
            traced_ops: Vec::new(),
            plain_ops: Vec::new(),
        }
    }

    /// `true` while spans are being recorded: the caller replays children.
    /// Set-up and checks are always traced in a traced run; the loop
    /// follows [`Tracer::set_active`].
    pub fn is_active(&self) -> bool {
        self.enabled && (self.active || self.phase != Phase::Loop)
    }

    /// Enters a phase.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    /// Marks the next loop iteration traced or plain.
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    /// Records one call of `span` that took `secs`.
    pub fn span(&mut self, span: &'static str, secs: f64) {
        if !self.is_active() {
            return;
        }
        let totals = self.spans.entry(span).or_default();
        totals.calls += 1;
        totals.busy_s += secs;
        if self.phase == Phase::Loop {
            totals.loop_busy_s += secs;
        }
    }

    /// Runs `f` and records it as one call of `span`; returns its result and
    /// its duration (0 when inactive, where `f` still runs).
    pub fn time<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.is_active() {
            return (f(), 0.0);
        }
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.span(span, secs);
        (out, secs)
    }

    /// Records one observation of a counter.
    pub fn count(&mut self, counter: &'static str, value: f64) {
        if self.is_active() {
            self.counters.entry(counter).or_default().push(value);
        }
    }

    /// Records one end-to-end loop operation, for the share and overhead
    /// bases.
    pub fn op(&mut self, secs: f64) {
        if !self.enabled || self.phase != Phase::Loop {
            return;
        }
        if self.active {
            self.traced_ops.push(secs);
        } else {
            self.plain_ops.push(secs);
        }
    }

    /// Relative cost of tracing: mean traced loop operation over the mean
    /// plain one, minus one, in percent.
    pub fn overhead_pct(&self) -> f64 {
        (stats::mean(&self.traced_ops) / stats::mean(&self.plain_ops) - 1.0) * 100.0
    }

    /// The per-layer metrics, `(name, value, unit)`, in a fixed order:
    /// per span its per-call time and its share of the traced loop
    /// operations' time; then the counters. Call counts and busy time are
    /// in [`Tracer::busy`].
    pub fn per_layer(&self) -> Vec<(String, f64, &'static str)> {
        let loop_total: f64 = self.traced_ops.iter().sum();
        let mut out = Vec::new();
        for &(span, unit) in SPANS {
            let t = self.spans.get(span).copied().unwrap_or_default();
            let per_call = if t.calls == 0 {
                0.0
            } else {
                t.busy_s / t.calls as f64 * unit_scale(unit)
            };
            out.push((format!("{span}_{unit}"), per_call, unit));
            let share = if loop_total > 0.0 {
                100.0 * t.loop_busy_s / loop_total
            } else {
                0.0
            };
            out.push((format!("{span}.share_pct"), share, "%"));
        }
        for &(name, unit, summary) in COUNTERS {
            let values = self.counters.get(name).map_or(&[][..], Vec::as_slice);
            let value = if values.is_empty() {
                0.0
            } else {
                match summary {
                    Summary::Mean => stats::mean(values),
                    Summary::Median => stats::median(values),
                }
            };
            out.push((name.to_string(), value, unit));
        }
        out
    }

    /// Calls and busy seconds of a span over the whole run.
    pub fn busy(&self, span: &str) -> (u64, f64) {
        self.spans
            .get(span)
            .map_or((0, 0.0), |t| (t.calls, t.busy_s))
    }
}
