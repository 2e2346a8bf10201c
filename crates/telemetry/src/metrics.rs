//! The three metric primitives: [`Counter`], [`Gauge`], [`Histogram`].
//!
//! All mutation is a single relaxed atomic RMW — no locks, no allocation,
//! no syscalls — so a metric update is safe to place on any code path
//! short of the engine's per-slot loop (which stays uninstrumented; see
//! the crate docs for the zero-cost contract). Reads for exposition are
//! relaxed loads; a scrape racing a writer may observe a count and a sum
//! from instants a few nanoseconds apart, which Prometheus semantics
//! explicitly tolerate (both are monotone).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing counter.
///
/// Prometheus counters never decrease; resets are only ever implicit in a
/// process restart. `add` takes `u64`, making decrements unrepresentable.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: an integer value that can go up and down (queue depths,
/// in-flight requests, subscriber counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh gauge at zero.
    pub const fn new() -> Self {
        Self(AtomicI64::new(0))
    }

    /// Set to an absolute value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram with log₂-spaced bucket bounds, built for latencies.
///
/// Observations are `f64` values in the family's base unit (seconds, per
/// Prometheus convention for `_seconds` families). Per-bucket counts are
/// stored non-cumulatively and accumulated at render time, so an observe
/// is one `fetch_add` on the owning bucket plus one on the sum — two
/// relaxed RMWs, no floating-point atomics (`sum` is kept in integer
/// nanounits: `value × 1e9`, exact for the sub-hour durations a request
/// latency can be).
#[derive(Debug)]
pub struct Histogram {
    /// Strictly increasing finite upper bounds (`le` values); an implicit
    /// `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// One slot per bound plus the `+Inf` overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations in nanounits (`value × 1e9`, saturating).
    sum_nanos: AtomicU64,
}

impl Histogram {
    /// A histogram over explicit finite bucket bounds (must be strictly
    /// increasing; `+Inf` is implicit).
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (+Inf is implicit)"
        );
        let n = bounds.len() + 1;
        Self {
            bounds,
            buckets: (0..n).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// The crate's standard latency scheme: `count` log₂-spaced bounds
    /// `2^min_exp, 2^(min_exp+1), …` (seconds). The default request
    /// scheme, [`Histogram::latency`], spans ~61 µs to 32 s.
    pub fn log2(min_exp: i32, count: usize) -> Self {
        assert!(count >= 1, "need at least one bucket");
        Self::with_bounds(
            (0..count)
                .map(|i| (min_exp + i as i32) as f64)
                .map(f64::exp2)
                .collect(),
        )
    }

    /// The default request-latency scheme: 20 log₂ buckets from 2⁻¹⁴ s
    /// (~61 µs) to 2⁵ s (32 s).
    pub fn latency() -> Self {
        Self::log2(-14, 20)
    }

    /// Record one observation (in the family's base unit, i.e. seconds
    /// for latency families). Negative and NaN observations are ignored
    /// (they have no Prometheus meaning).
    pub fn observe(&self, v: f64) {
        if v.is_nan() || v < 0.0 {
            return;
        }
        // partition_point: first bound >= v fails `b < v`; `le` is
        // inclusive, so v lands in the first bucket with bound >= v.
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let nanos = (v * 1e9).min(u64::MAX as f64) as u64;
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// The finite bucket bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Cumulative count per finite bound (Prometheus `_bucket` semantics),
    /// in bound order. The `+Inf` bucket equals [`Histogram::count`].
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.bounds
            .iter()
            .enumerate()
            .map(|(i, _)| {
                acc += self.buckets[i].load(Ordering::Relaxed);
                acc
            })
            .collect()
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations in the base unit.
    pub fn sum(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Sum in integer nanounits (exact; the renderer formats this without
    /// a float round-trip so exposition is byte-deterministic).
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.set(7);
        g.dec();
        g.add(-2);
        g.inc();
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn histogram_buckets_are_le_inclusive() {
        let h = Histogram::with_bounds(vec![1.0, 2.0, 4.0]);
        h.observe(0.5); // -> le=1
        h.observe(1.0); // boundary -> le=1 (inclusive)
        h.observe(3.0); // -> le=4
        h.observe(100.0); // -> +Inf only
        assert_eq!(h.cumulative(), vec![2, 2, 3]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 104.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_ignores_nonsense() {
        let h = Histogram::with_bounds(vec![1.0]);
        h.observe(-1.0);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn log2_bounds_double() {
        let h = Histogram::log2(-2, 4);
        assert_eq!(h.bounds(), &[0.25, 0.5, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_bounds_panic() {
        let _ = Histogram::with_bounds(vec![2.0, 1.0]);
    }
}
