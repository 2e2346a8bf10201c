//! Running univariate summaries (Welford's algorithm).

use serde::{Deserialize, Serialize};

/// A numerically stable running summary of a stream of `f64` samples.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Absorb one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Build a summary from an iterator. (Deliberately an inherent method
    /// rather than the `FromIterator` trait so call sites read
    /// `Summary::from_iter(..)` without an import.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        for x in iter {
            s.push(x);
        }
        s
    }

    /// Sample count.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sample mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`NaN` when `n < 2`).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum sample (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum sample (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = Summary::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_and_single() {
        let e = Summary::new();
        assert!(e.mean().is_nan());
        let mut s = Summary::new();
        s.push(3.0);
        assert_eq!(s.mean(), 3.0);
        assert!(s.variance().is_nan());
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let full = Summary::from_iter(xs.iter().copied());
        let mut a = Summary::from_iter(xs[..37].iter().copied());
        let b = Summary::from_iter(xs[37..].iter().copied());
        a.merge(&b);
        assert_eq!(a.n(), full.n());
        assert!((a.mean() - full.mean()).abs() < 1e-9);
        assert!((a.variance() - full.variance()).abs() < 1e-9);
        assert_eq!(a.min(), full.min());
        assert_eq!(a.max(), full.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::from_iter([1.0, 2.0]);
        let before = s.mean();
        s.merge(&Summary::new());
        assert_eq!(s.mean(), before);
        let mut e = Summary::new();
        e.merge(&Summary::from_iter([1.0, 2.0]));
        assert_eq!(e.n(), 2);
    }
}
