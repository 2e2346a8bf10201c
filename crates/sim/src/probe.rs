//! Streaming probe layer: the one way to observe a run. Slot records and
//! typed protocol/engine events fan out to pluggable sinks.
//!
//! * Protocols buffer typed [`ProbeEvent`]s in an [`EventBuf`] (armed only
//!   when a sink wants events, so the disabled path allocates nothing) and
//!   the engine drains them once per slot via
//!   [`crate::engine::Protocol::drain_events`].
//! * The engine fans slot records and events out to every configured
//!   [`ProbeSink`] through a [`ProbeBus`].
//! * Sinks trade fidelity for memory: [`RingBufferSink`] keeps the last
//!   `capacity` records (a ring that never evicts is the full slot trace,
//!   which is what [`crate::engine::EngineConfig::with_trace`] attaches),
//!   [`AggregatingSink`] keeps only per-window-class histograms,
//!   [`ChromeTraceSink`] renders a Perfetto/chrome://tracing JSON timeline,
//!   [`SamplingSink`] keeps a deterministic 1-in-`period` slice, and
//!   [`EventLogSink`] keeps the raw event stream for claim-checking
//!   experiments.
//!
//! Sinks are configured declaratively with a serde-able [`ProbeSpec`] inside
//! [`crate::engine::EngineConfig`], and their outputs come back as
//! [`ProbeOutput`] values inside [`crate::metrics::SimReport::probes`].
//!
//! ## Determinism contract
//!
//! Protocols may emit events only from slots they attend (`act` or
//! `on_feedback` calls). Under the wake-hint contract
//! ([`crate::engine::Protocol::next_wake`]) the attended slots are identical
//! between event-driven and dense scheduling, so the per-job event streams
//! are identical too. The engine drains each slot's events in job-id order
//! and assembles [`ProbeEvent::JobRetired`] from outcomes after the loop,
//! so every event stream is the same under both modes. Gap skips show up
//! as [`SlotOutcome::SilentGap`] records and in
//! [`crate::metrics::SchedStats`], never as events. Slot records do depend
//! on scheduling (a skipped stretch is one record, and parked jobs declare
//! no contention); [`ChromeTraceSink`] drops silent records and those
//! fields, and [`AggregatingSink`] reads only events, which makes both
//! byte-identical across scheduling modes (tested by the conformance
//! matrix's `DENSE | OBSERVED` cells in `tests/scheduling_equivalence.rs`).

use crate::trace::{SlotOutcome, SlotRecord};
use dcr_stats::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A typed observation from the engine or a protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProbeEvent {
    /// The job's protocol entered a named phase (protocol-defined labels,
    /// e.g. PUNCTUAL's `"slingshot"` or ALIGNED's `"broadcast"`).
    PhaseEnter {
        /// Protocol-defined phase label.
        phase: String,
    },
    /// ALIGNED published its size estimate `n_ℓ = τ·2^argmax` for a class.
    /// `n_true` is filled in by the engine (the only component with a global
    /// view): the number of jobs of that class live in the emission slot.
    SizeEstimate {
        /// The window class `ℓ` the estimate is for.
        class: u32,
        /// The protocol's estimate of the class size.
        n_est: u64,
        /// Ground truth supplied by the engine (0 as emitted by protocols).
        n_true: u64,
    },
    /// A PUNCTUAL job won the slingshot claim and became the leader.
    LeaderElected,
    /// A PUNCTUAL job gave up on coordination and converted to an anarchist.
    AnarchistConversion {
        /// The phase the job was in when it converted.
        from: String,
    },
    /// The pecking order preempted this job's class broadcast: a different
    /// class took over the channel before the class finished.
    Preemption {
        /// The class whose broadcast was preempted.
        class: u32,
        /// The class that took over.
        by_class: u32,
    },
    /// A job left the simulation (delivered, done, or window closed).
    /// Emitted by the engine for every job, in job-id order, at end of run.
    JobRetired {
        /// True if the job's data message was delivered in its window.
        success: bool,
        /// Retirement slot minus release slot.
        latency: u64,
        /// The job's window size `w`.
        window: u64,
        /// Slots the job spent transmitting.
        transmissions: u64,
        /// Slots the job spent listening without transmitting.
        listens: u64,
    },
}

impl ProbeEvent {
    /// Stable short name of the event kind (used as Perfetto event names).
    pub fn name(&self) -> &'static str {
        match self {
            ProbeEvent::PhaseEnter { .. } => "PhaseEnter",
            ProbeEvent::SizeEstimate { .. } => "SizeEstimate",
            ProbeEvent::LeaderElected => "LeaderElected",
            ProbeEvent::AnarchistConversion { .. } => "AnarchistConversion",
            ProbeEvent::Preemption { .. } => "Preemption",
            ProbeEvent::JobRetired { .. } => "JobRetired",
        }
    }
}

/// One event, stamped with the slot it was drained in and the job (if any)
/// it concerns. Events an aggregate class driver emits for the whole class
/// carry `job: None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeRecord {
    /// Global slot index the event was observed in.
    pub slot: u64,
    /// The job the event concerns, or `None` for class-driver events.
    pub job: Option<u32>,
    /// The event itself.
    pub event: ProbeEvent,
}

/// A consumer of the probe stream. One boxed sink per [`SinkSpec`]; the
/// engine only does the work a sink declares interest in (`wants_slots`
/// gates per-slot record construction, `wants_events` gates protocol
/// buffering and draining).
pub trait ProbeSink {
    /// True if this sink consumes per-slot [`SlotRecord`]s.
    fn wants_slots(&self) -> bool {
        false
    }

    /// True if this sink consumes [`ProbeRecord`] events.
    fn wants_events(&self) -> bool {
        true
    }

    /// Observe one slot record (only called when [`Self::wants_slots`]).
    fn on_slot(&mut self, _rec: &SlotRecord) {}

    /// Observe one event (only called when [`Self::wants_events`]).
    fn on_event(&mut self, _rec: &ProbeRecord) {}

    /// Consume the sink at end of run and produce its output.
    fn finish(self: Box<Self>) -> ProbeOutput;
}

/// The finished product of one sink, carried in
/// [`crate::metrics::SimReport::probes`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ProbeOutput {
    /// Tail of the slot trace ([`RingBufferSink`]); the full trace when
    /// `dropped` is 0.
    Ring {
        /// The last `capacity` slot records, oldest first.
        records: Vec<SlotRecord>,
        /// Records evicted to respect the bound.
        dropped: u64,
    },
    /// Per-window-class streaming aggregates ([`AggregatingSink`]).
    Aggregate(AggregateReport),
    /// Perfetto / chrome://tracing JSON ([`ChromeTraceSink`]).
    ChromeTrace(String),
    /// Deterministic 1-in-`period` sample ([`SamplingSink`]).
    Sample {
        /// Slot records whose covered range hits a multiple of the period.
        slots: Vec<SlotRecord>,
        /// All events (events are sparse; they are never sampled away).
        events: Vec<ProbeRecord>,
    },
    /// The raw event stream ([`EventLogSink`]).
    Events(Vec<ProbeRecord>),
}

/// Streaming per-window-class aggregates: latency and attempt histograms
/// built from [`ProbeEvent::JobRetired`] events with no per-slot storage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AggregateReport {
    /// One aggregate per window class present in the run, ascending class.
    pub classes: Vec<ClassAggregate>,
}

/// Aggregate statistics for one window class `ℓ` (windows in `[2^ℓ, 2^ℓ+1)`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassAggregate {
    /// The class `ℓ = ⌊log2 w⌋`.
    pub class: u32,
    /// Jobs of this class that ran.
    pub jobs: u64,
    /// Jobs that met their deadline.
    pub successes: u64,
    /// Delivery latency (slots since release) of successful jobs, over
    /// `[0, 2^(ℓ+1))`.
    pub latency: Histogram,
    /// Transmission attempts per job (all jobs), over `[0, 256)`.
    pub attempts: Histogram,
}

/// Declarative sink configuration (serde-able; lives in
/// [`crate::engine::EngineConfig::probe`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SinkSpec {
    /// [`RingBufferSink`] keeping the last `capacity` slot records.
    Ring {
        /// Maximum records retained.
        capacity: u64,
    },
    /// [`AggregatingSink`].
    Aggregate,
    /// [`ChromeTraceSink`].
    ChromeTrace,
    /// [`SamplingSink`] keeping slots at multiples of `period`.
    Sample {
        /// Sampling period in slots (≥ 1).
        period: u64,
    },
    /// [`EventLogSink`].
    Events,
}

impl SinkSpec {
    /// Instantiate the sink this spec describes.
    pub fn build(&self) -> Box<dyn ProbeSink> {
        match *self {
            SinkSpec::Ring { capacity } => Box::new(RingBufferSink::new(capacity as usize)),
            SinkSpec::Aggregate => Box::new(AggregatingSink::new()),
            SinkSpec::ChromeTrace => Box::new(ChromeTraceSink::new()),
            SinkSpec::Sample { period } => Box::new(SamplingSink::new(period)),
            SinkSpec::Events => Box::new(EventLogSink::default()),
        }
    }
}

/// The probe configuration of one run: which sinks to attach.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProbeSpec {
    /// Sinks to attach, in output order.
    pub sinks: Vec<SinkSpec>,
}

impl ProbeSpec {
    /// An empty spec (no sinks).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style: append a sink.
    pub fn with(mut self, sink: SinkSpec) -> Self {
        self.sinks.push(sink);
        self
    }
}

/// Sink outputs of one run, in [`ProbeSpec::sinks`] order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbeReport {
    /// One output per configured sink.
    pub outputs: Vec<ProbeOutput>,
}

impl ProbeReport {
    /// The first raw event stream, if an [`EventLogSink`] was configured.
    pub fn events(&self) -> Option<&[ProbeRecord]> {
        self.outputs.iter().find_map(|o| match o {
            ProbeOutput::Events(evs) => Some(evs.as_slice()),
            _ => None,
        })
    }

    /// The first Perfetto JSON string, if a [`ChromeTraceSink`] was
    /// configured.
    pub fn chrome_trace(&self) -> Option<&str> {
        self.outputs.iter().find_map(|o| match o {
            ProbeOutput::ChromeTrace(json) => Some(json.as_str()),
            _ => None,
        })
    }

    /// The first aggregate report, if an [`AggregatingSink`] was configured.
    pub fn aggregate(&self) -> Option<&AggregateReport> {
        self.outputs.iter().find_map(|o| match o {
            ProbeOutput::Aggregate(agg) => Some(agg),
            _ => None,
        })
    }
}

/// Fan-out from the engine to every configured sink. Interest flags are
/// cached so the disabled path costs two branch checks per slot.
#[derive(Default)]
pub struct ProbeBus {
    sinks: Vec<Box<dyn ProbeSink>>,
    wants_slots: bool,
    wants_events: bool,
}

impl ProbeBus {
    /// An empty bus (no sinks, nothing recorded).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a sink.
    pub fn push(&mut self, sink: Box<dyn ProbeSink>) {
        self.wants_slots |= sink.wants_slots();
        self.wants_events |= sink.wants_events();
        self.sinks.push(sink);
    }

    /// True if no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// True if any sink consumes slot records.
    #[inline]
    pub fn wants_slots(&self) -> bool {
        self.wants_slots
    }

    /// True if any sink consumes events.
    #[inline]
    pub fn wants_events(&self) -> bool {
        self.wants_events
    }

    /// Fan a slot record out to interested sinks.
    pub fn on_slot(&mut self, rec: &SlotRecord) {
        for sink in &mut self.sinks {
            if sink.wants_slots() {
                sink.on_slot(rec);
            }
        }
    }

    /// Fan an event out to interested sinks.
    pub fn on_event(&mut self, rec: &ProbeRecord) {
        for sink in &mut self.sinks {
            if sink.wants_events() {
                sink.on_event(rec);
            }
        }
    }

    /// Finish every sink, returning outputs in attachment order.
    pub fn finish(self) -> Vec<ProbeOutput> {
        self.sinks.into_iter().map(|s| s.finish()).collect()
    }
}

/// A protocol-side event buffer. Disarmed (the default) it is a single
/// null pointer — one word per protocol instance, no heap — and pushes are
/// dropped; the engine arms it via `JobCtx::probed` at activation only
/// when some sink wants events.
#[derive(Debug, Clone, Default)]
pub struct EventBuf {
    // Box<Vec<_>> on purpose: disarmed protocols carry one null word, not
    // a 3-word empty Vec — this field sits in every protocol instance.
    #[allow(clippy::box_collection)]
    events: Option<Box<Vec<ProbeEvent>>>,
}

impl EventBuf {
    /// Arm the buffer: subsequent pushes are retained.
    pub fn arm(&mut self) {
        if self.events.is_none() {
            self.events = Some(Box::default());
        }
    }

    /// True once armed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Buffer an event (no-op while disarmed).
    #[inline]
    pub fn push(&mut self, event: ProbeEvent) {
        if let Some(events) = &mut self.events {
            events.push(event);
        }
    }

    /// Buffer a [`ProbeEvent::PhaseEnter`] with the given label.
    pub fn phase(&mut self, phase: &str) {
        if self.events.is_some() {
            self.push(ProbeEvent::PhaseEnter {
                phase: phase.to_string(),
            });
        }
    }

    /// Move all buffered events into `out` (preserving order).
    pub fn drain_into(&mut self, out: &mut Vec<ProbeEvent>) {
        if let Some(events) = &mut self.events {
            out.append(events);
        }
    }

    /// Absorb another buffer's pending events (used when a protocol retires
    /// an embedded sub-protocol mid-slot and must not lose its events).
    pub fn absorb(&mut self, other: &mut EventBuf) {
        let Some(theirs) = &mut other.events else {
            return;
        };
        if let Some(events) = &mut self.events {
            events.append(theirs);
        } else {
            theirs.clear();
        }
    }
}

// A checkpoint carries a protocol's buffer as `null`: snapshots refuse
// probed runs, so the buffer is always disarmed there. A restored
// protocol starts disarmed, as a factory-built one does.
impl Serialize for EventBuf {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl<'de> Deserialize<'de> for EventBuf {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Null => Ok(Self::default()),
            other => Err(serde::DeError::msg(format!(
                "expected a disarmed event buffer (null), got {}",
                other.kind()
            ))),
        }
    }
}

/// Slot trace with a memory bound: keeps the last `capacity` records,
/// counting evictions. With `capacity = u64::MAX` it never evicts and holds
/// the full trace.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    records: VecDeque<SlotRecord>,
    dropped: u64,
}

impl RingBufferSink {
    /// A ring retaining at most `capacity` records (`capacity ≥ 1`). The
    /// buffer grows as records arrive, so a large `capacity` reserves
    /// nothing up front.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "ring capacity must be at least 1");
        Self {
            capacity,
            records: VecDeque::new(),
            dropped: 0,
        }
    }
}

impl ProbeSink for RingBufferSink {
    fn wants_slots(&self) -> bool {
        true
    }
    fn wants_events(&self) -> bool {
        false
    }
    fn on_slot(&mut self, rec: &SlotRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(*rec);
    }
    fn finish(self: Box<Self>) -> ProbeOutput {
        ProbeOutput::Ring {
            records: self.records.into(),
            dropped: self.dropped,
        }
    }
}

/// Streaming per-window-class aggregates from [`ProbeEvent::JobRetired`]:
/// O(#classes) memory regardless of run length, and order-insensitive, so
/// its output is identical across scheduling modes.
#[derive(Debug, Default)]
pub struct AggregatingSink {
    classes: BTreeMap<u32, ClassAggregate>,
}

impl AggregatingSink {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ProbeSink for AggregatingSink {
    fn on_event(&mut self, rec: &ProbeRecord) {
        let ProbeEvent::JobRetired {
            success,
            latency,
            window,
            transmissions,
            ..
        } = rec.event
        else {
            return;
        };
        let class = window.max(1).ilog2();
        let agg = self.classes.entry(class).or_insert_with(|| {
            let hi = (1u64 << (class + 1).min(62)) as f64;
            ClassAggregate {
                class,
                jobs: 0,
                successes: 0,
                latency: Histogram::new(0.0, hi, 32),
                attempts: Histogram::new(0.0, 256.0, 32),
            }
        });
        agg.jobs += 1;
        if success {
            agg.successes += 1;
            agg.latency.push(latency as f64);
        }
        agg.attempts.push(transmissions as f64);
    }
    fn finish(self: Box<Self>) -> ProbeOutput {
        ProbeOutput::Aggregate(AggregateReport {
            classes: self.classes.into_values().collect(),
        })
    }
}

/// Renders a Perfetto / chrome://tracing "Trace Event Format" JSON string:
/// one track (tid) per job carrying its protocol-phase spans and instant
/// events, plus a channel track (tid 0) with non-silent slot outcomes.
///
/// Only scheduling-independent inputs are rendered (silent/gap records are
/// dropped, and mode-dependent `declared_contention`/`live_jobs` fields are
/// not emitted), and buffered events are canonically ordered in
/// [`ProbeSink::finish`], so the output is byte-identical across scheduling
/// modes.
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    channel: Vec<SlotRecord>,
    events: Vec<ProbeRecord>,
    last_slot: u64,
}

impl ChromeTraceSink {
    /// An empty Perfetto sink.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Minimal JSON string escaping for the label strings we render.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl ChromeTraceSink {
    fn render(self) -> String {
        let mut events = self.events;
        // Canonical order: slot, then job. The stable sort preserves each
        // job's intra-slot emission order, which is scheduling-independent;
        // only the interleaving of different jobs within a slot is not.
        events.sort_by_key(|r| (r.slot, r.job));

        let mut jobs: BTreeSet<u32> = BTreeSet::new();
        for rec in &events {
            jobs.extend(rec.job);
        }
        for rec in &self.channel {
            if let SlotOutcome::Success { src, .. } = rec.outcome {
                jobs.insert(src);
            }
        }

        let mut rows: Vec<String> = Vec::new();
        rows.push(
            r#"{"name":"process_name","ph":"M","pid":0,"args":{"name":"dcr-sim"}}"#.to_string(),
        );
        rows.push(
            r#"{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"channel"}}"#
                .to_string(),
        );
        for &job in &jobs {
            rows.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{},"args":{{"name":"job {}"}}}}"#,
                job + 1,
                job
            ));
        }

        // Channel track: one instant per non-silent slot.
        for rec in &self.channel {
            let (name, args) = match rec.outcome {
                SlotOutcome::Success { src, was_data } => (
                    if was_data { "data-success" } else { "success" },
                    format!(r#"{{"src":{src}}}"#),
                ),
                SlotOutcome::Collision { n_tx } => ("collision", format!(r#"{{"n_tx":{n_tx}}}"#)),
                SlotOutcome::Jammed { n_tx } => ("jammed", format!(r#"{{"n_tx":{n_tx}}}"#)),
                SlotOutcome::Silent | SlotOutcome::SilentGap { .. } => continue,
            };
            rows.push(format!(
                r#"{{"name":"{name}","ph":"i","ts":{},"pid":0,"tid":0,"s":"t","args":{args}}}"#,
                rec.slot
            ));
        }

        // Job tracks: phase spans from PhaseEnter boundaries, instants for
        // everything else. A phase closes at the next PhaseEnter of the same
        // job, or at its JobRetired slot.
        let mut open: BTreeMap<u32, (String, u64)> = BTreeMap::new();
        for rec in &events {
            let Some(job) = rec.job else { continue };
            let tid = job + 1;
            let ts = rec.slot;
            match &rec.event {
                ProbeEvent::PhaseEnter { phase } => {
                    if let Some((prev, start)) = open.insert(job, (phase.clone(), ts)) {
                        rows.push(format!(
                            r#"{{"name":"{}","ph":"X","ts":{start},"dur":{},"pid":0,"tid":{tid}}}"#,
                            json_escape(&prev),
                            ts - start
                        ));
                    }
                }
                ProbeEvent::SizeEstimate {
                    class,
                    n_est,
                    n_true,
                } => rows.push(format!(
                    r#"{{"name":"SizeEstimate","ph":"i","ts":{ts},"pid":0,"tid":{tid},"s":"t","args":{{"class":{class},"n_est":{n_est},"n_true":{n_true}}}}}"#
                )),
                ProbeEvent::LeaderElected => rows.push(format!(
                    r#"{{"name":"LeaderElected","ph":"i","ts":{ts},"pid":0,"tid":{tid},"s":"t"}}"#
                )),
                ProbeEvent::AnarchistConversion { from } => rows.push(format!(
                    r#"{{"name":"AnarchistConversion","ph":"i","ts":{ts},"pid":0,"tid":{tid},"s":"t","args":{{"from":"{}"}}}}"#,
                    json_escape(from)
                )),
                ProbeEvent::Preemption { class, by_class } => rows.push(format!(
                    r#"{{"name":"Preemption","ph":"i","ts":{ts},"pid":0,"tid":{tid},"s":"t","args":{{"class":{class},"by_class":{by_class}}}}}"#
                )),
                ProbeEvent::JobRetired {
                    success, latency, ..
                } => {
                    if let Some((prev, start)) = open.remove(&job) {
                        rows.push(format!(
                            r#"{{"name":"{}","ph":"X","ts":{start},"dur":{},"pid":0,"tid":{tid}}}"#,
                            json_escape(&prev),
                            ts - start
                        ));
                    }
                    rows.push(format!(
                        r#"{{"name":"JobRetired","ph":"i","ts":{ts},"pid":0,"tid":{tid},"s":"t","args":{{"success":{success},"latency":{latency}}}}}"#
                    ));
                }
            }
        }
        // Close any phase still open (job never retired: horizon hit).
        let end = self.last_slot;
        for (job, (prev, start)) in open {
            rows.push(format!(
                r#"{{"name":"{}","ph":"X","ts":{start},"dur":{},"pid":0,"tid":{}}}"#,
                json_escape(&prev),
                end.saturating_sub(start),
                job + 1
            ));
        }

        format!("{{\"traceEvents\":[\n{}\n]}}\n", rows.join(",\n"))
    }
}

impl ProbeSink for ChromeTraceSink {
    fn wants_slots(&self) -> bool {
        true
    }
    fn on_slot(&mut self, rec: &SlotRecord) {
        self.last_slot = self.last_slot.max(rec.slot + rec.covered_slots());
        if !rec.is_silent() {
            self.channel.push(*rec);
        }
    }
    fn on_event(&mut self, rec: &ProbeRecord) {
        self.last_slot = self.last_slot.max(rec.slot);
        self.events.push(rec.clone());
    }
    fn finish(self: Box<Self>) -> ProbeOutput {
        ProbeOutput::ChromeTrace(self.render())
    }
}

/// Deterministic decimation: keeps slot records whose covered slot range
/// `[slot, slot + covered)` contains a multiple of `period`, and every
/// event (events are sparse already). Purely a function of slot indices,
/// never of randomness, so samples are replayable.
#[derive(Debug)]
pub struct SamplingSink {
    period: u64,
    slots: Vec<SlotRecord>,
    events: Vec<ProbeRecord>,
}

impl SamplingSink {
    /// Sample every `period`-th slot (`period ≥ 1`).
    pub fn new(period: u64) -> Self {
        assert!(period >= 1, "sampling period must be at least 1");
        Self {
            period,
            slots: Vec::new(),
            events: Vec::new(),
        }
    }
}

impl ProbeSink for SamplingSink {
    fn wants_slots(&self) -> bool {
        true
    }
    fn on_slot(&mut self, rec: &SlotRecord) {
        let start = rec.slot;
        let end = rec.slot + rec.covered_slots();
        // First multiple of `period` at or after `start`.
        let next = start.div_ceil(self.period) * self.period;
        if next < end {
            self.slots.push(*rec);
        }
    }
    fn on_event(&mut self, rec: &ProbeRecord) {
        self.events.push(rec.clone());
    }
    fn finish(self: Box<Self>) -> ProbeOutput {
        ProbeOutput::Sample {
            slots: self.slots,
            events: self.events,
        }
    }
}

/// Retains the raw event stream — what claim-checking experiments consume.
#[derive(Debug, Default)]
pub struct EventLogSink {
    events: Vec<ProbeRecord>,
}

impl ProbeSink for EventLogSink {
    fn on_event(&mut self, rec: &ProbeRecord) {
        self.events.push(rec.clone());
    }
    fn finish(self: Box<Self>) -> ProbeOutput {
        ProbeOutput::Events(self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot_rec(slot: u64, outcome: SlotOutcome) -> SlotRecord {
        SlotRecord {
            slot,
            outcome,
            live_jobs: 1,
            declared_contention: 0.0,
            payload: None,
        }
    }

    #[test]
    fn ring_sink_bounds_memory() {
        let mut sink = Box::new(RingBufferSink::new(3));
        for slot in 0..10 {
            sink.on_slot(&slot_rec(slot, SlotOutcome::Silent));
        }
        let ProbeOutput::Ring { records, dropped } = ProbeSink::finish(sink) else {
            panic!("ring sink must produce Ring output");
        };
        assert_eq!(dropped, 7);
        assert_eq!(
            records.iter().map(|r| r.slot).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
    }

    #[test]
    fn ring_capacity_reserves_nothing_up_front() {
        // A spec-supplied capacity past what memory can hold must not
        // panic at build time; the ring holds what arrived.
        let mut sink = SinkSpec::Ring { capacity: u64::MAX }.build();
        sink.on_slot(&slot_rec(0, SlotOutcome::Silent));
        let ProbeOutput::Ring { records, dropped } = sink.finish() else {
            panic!("ring sink must produce Ring output");
        };
        assert_eq!((records.len(), dropped), (1, 0));
    }

    #[test]
    fn unbounded_ring_is_the_identity() {
        let mut sink = SinkSpec::Ring { capacity: u64::MAX }.build();
        let recs: Vec<SlotRecord> = (0..4)
            .map(|s| {
                slot_rec(
                    s,
                    SlotOutcome::Success {
                        src: 0,
                        was_data: true,
                    },
                )
            })
            .collect();
        for r in &recs {
            sink.on_slot(r);
        }
        let ProbeOutput::Ring { records, dropped } = sink.finish() else {
            panic!("ring sink must produce Ring output");
        };
        assert_eq!((records, dropped), (recs, 0));
    }

    #[test]
    fn aggregating_sink_buckets_by_class() {
        let mut sink = Box::new(AggregatingSink::new());
        for (job, window, success) in [(0u32, 64u64, true), (1, 64, false), (2, 1024, true)] {
            sink.on_event(&ProbeRecord {
                slot: 10,
                job: Some(job),
                event: ProbeEvent::JobRetired {
                    success,
                    latency: 5,
                    window,
                    transmissions: 3,
                    listens: 2,
                },
            });
        }
        let ProbeOutput::Aggregate(agg) = ProbeSink::finish(sink) else {
            panic!("aggregating sink must produce Aggregate output");
        };
        assert_eq!(agg.classes.len(), 2);
        assert_eq!(agg.classes[0].class, 6);
        assert_eq!(agg.classes[0].jobs, 2);
        assert_eq!(agg.classes[0].successes, 1);
        assert_eq!(agg.classes[0].latency.total(), 1);
        assert_eq!(agg.classes[0].attempts.total(), 2);
        assert_eq!(agg.classes[1].class, 10);
    }

    #[test]
    fn aggregating_sink_is_order_insensitive() {
        let recs: Vec<ProbeRecord> = (0..6)
            .map(|i| ProbeRecord {
                slot: 100 + i,
                job: Some(i as u32),
                event: ProbeEvent::JobRetired {
                    success: i % 2 == 0,
                    latency: i * 3,
                    window: 64,
                    transmissions: i,
                    listens: 0,
                },
            })
            .collect();
        let run = |order: Vec<usize>| {
            let mut sink = Box::new(AggregatingSink::new());
            for &i in &order {
                sink.on_event(&recs[i]);
            }
            serde_json::to_string(&ProbeSink::finish(sink)).unwrap()
        };
        assert_eq!(run(vec![0, 1, 2, 3, 4, 5]), run(vec![5, 3, 1, 4, 2, 0]));
    }

    #[test]
    fn chrome_trace_renders_valid_shape() {
        let mut sink = Box::new(ChromeTraceSink::new());
        sink.on_slot(&slot_rec(
            3,
            SlotOutcome::Success {
                src: 0,
                was_data: true,
            },
        ));
        sink.on_slot(&slot_rec(4, SlotOutcome::SilentGap { len: 10 }));
        sink.on_event(&ProbeRecord {
            slot: 0,
            job: Some(0),
            event: ProbeEvent::PhaseEnter {
                phase: "estimation".into(),
            },
        });
        sink.on_event(&ProbeRecord {
            slot: 2,
            job: Some(0),
            event: ProbeEvent::SizeEstimate {
                class: 6,
                n_est: 16,
                n_true: 8,
            },
        });
        sink.on_event(&ProbeRecord {
            slot: 5,
            job: Some(0),
            event: ProbeEvent::JobRetired {
                success: true,
                latency: 5,
                window: 64,
                transmissions: 1,
                listens: 4,
            },
        });
        let ProbeOutput::ChromeTrace(json) = ProbeSink::finish(sink) else {
            panic!("chrome sink must produce ChromeTrace output");
        };
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let Some(serde_json::Value::Array(rows)) = parsed.get("traceEvents") else {
            panic!("traceEvents must be an array");
        };
        assert!(rows.len() >= 5);
        assert!(json.contains(r#""name":"SizeEstimate""#));
        assert!(json.contains(r#""name":"estimation","ph":"X","ts":0,"dur":5"#));
        // Silent gaps never render on the channel track.
        assert!(!json.contains(r#""ts":4,"pid":0,"tid":0"#));
    }

    #[test]
    fn chrome_trace_order_is_canonical() {
        let ev = |slot, job| ProbeRecord {
            slot,
            job: Some(job),
            event: ProbeEvent::PhaseEnter {
                phase: format!("p{job}"),
            },
        };
        let run = |order: Vec<ProbeRecord>| {
            let mut sink = Box::new(ChromeTraceSink::new());
            for r in &order {
                sink.on_event(r);
            }
            let ProbeOutput::ChromeTrace(json) = ProbeSink::finish(sink) else {
                unreachable!()
            };
            json
        };
        // Same events, different intra-slot interleaving of distinct jobs.
        let a = run(vec![ev(0, 0), ev(0, 1), ev(3, 0)]);
        let b = run(vec![ev(0, 1), ev(0, 0), ev(3, 0)]);
        assert_eq!(a, b);
    }

    #[test]
    fn sampling_sink_keeps_period_multiples() {
        let mut sink = Box::new(SamplingSink::new(8));
        for slot in 0..20 {
            sink.on_slot(&slot_rec(slot, SlotOutcome::Silent));
        }
        // A gap record covering a sampled slot is kept.
        sink.on_slot(&slot_rec(20, SlotOutcome::SilentGap { len: 5 }));
        let ProbeOutput::Sample { slots, .. } = ProbeSink::finish(sink) else {
            panic!("sampling sink must produce Sample output");
        };
        let kept: Vec<u64> = slots.iter().map(|r| r.slot).collect();
        assert_eq!(kept, vec![0, 8, 16, 20]); // 20 covers slot 24
    }

    #[test]
    fn event_buf_disarmed_drops_and_stays_empty() {
        let mut buf = EventBuf::default();
        buf.push(ProbeEvent::LeaderElected);
        buf.phase("x");
        let mut out = Vec::new();
        buf.drain_into(&mut out);
        assert!(out.is_empty());
        buf.arm();
        buf.push(ProbeEvent::LeaderElected);
        buf.drain_into(&mut out);
        assert_eq!(out, vec![ProbeEvent::LeaderElected]);
    }

    #[test]
    fn bus_caches_interest_flags() {
        let mut bus = ProbeBus::new();
        assert!(!bus.wants_slots() && !bus.wants_events());
        bus.push(Box::new(EventLogSink::default()));
        assert!(!bus.wants_slots() && bus.wants_events());
        bus.push(Box::new(RingBufferSink::new(4)));
        assert!(bus.wants_slots() && bus.wants_events());
        assert_eq!(bus.finish().len(), 2);
    }

    #[test]
    fn spec_builds_matching_sinks() {
        let spec = ProbeSpec::new()
            .with(SinkSpec::Ring { capacity: 16 })
            .with(SinkSpec::Aggregate)
            .with(SinkSpec::ChromeTrace)
            .with(SinkSpec::Sample { period: 4 })
            .with(SinkSpec::Events);
        let mut bus = ProbeBus::new();
        for s in &spec.sinks {
            bus.push(s.build());
        }
        let outputs = bus.finish();
        assert!(matches!(outputs[0], ProbeOutput::Ring { .. }));
        assert!(matches!(outputs[1], ProbeOutput::Aggregate(_)));
        assert!(matches!(outputs[2], ProbeOutput::ChromeTrace(_)));
        assert!(matches!(outputs[3], ProbeOutput::Sample { .. }));
        assert!(matches!(outputs[4], ProbeOutput::Events(_)));
    }
}
