//! Spans recorded around the benchmark's calls into each
//! layer's public functions.
//!
//! Tracing is off unless [`enable`] was called: a disarmed [`span`] takes
//! no clock reading and records nothing, so the untraced run measures the
//! program alone. Armed spans add their duration to a per-name total.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Per span name: total nanoseconds and number of spans.
static TOTALS: Mutex<BTreeMap<&'static str, (u64, u64)>> = Mutex::new(BTreeMap::new());

/// Arm (or disarm) tracing for the spans that follow.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Guard that records its span when dropped.
pub struct SpanGuard {
    open: Option<(&'static str, Instant)>,
}

/// Open a span named `name` (a layer boundary, e.g. `engine.build`).
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        open: ENABLED
            .load(Ordering::Relaxed)
            .then(|| (name, Instant::now())),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, start)) = self.open.take() {
            let ns = start.elapsed().as_nanos() as u64;
            if let Ok(mut totals) = TOTALS.lock() {
                let t = totals.entry(name).or_default();
                t.0 += ns;
                t.1 += 1;
            }
        }
    }
}

/// Total milliseconds and number of spans named `name`.
pub fn total_ms(name: &str) -> (f64, u64) {
    let totals = TOTALS.lock().expect("trace totals lock");
    totals
        .get(name)
        .map_or((0.0, 0), |&(ns, n)| (ns as f64 / 1e6, n))
}

/// Mean milliseconds per span named `name` (0 when none ran).
pub fn mean_ms(name: &str) -> f64 {
    match total_ms(name) {
        (_, 0) => 0.0,
        (ms, n) => ms / n as f64,
    }
}
