//! Named job-set instances.

use dcr_sim::job::JobSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A contention-resolution problem instance: a set of jobs with windows.
///
/// Invariant (enforced by [`Instance::new`]): job ids are exactly
/// `0..jobs.len()` in order, which is what [`dcr_sim::engine::Engine`]
/// requires.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Instance {
    /// Human-readable name (appears in experiment tables).
    pub name: String,
    /// The jobs, with ids `0..n` in order.
    pub jobs: Vec<JobSpec>,
}

impl Instance {
    /// Build an instance, renumbering job ids to `0..n` in the given order.
    pub fn new(name: impl Into<String>, mut jobs: Vec<JobSpec>) -> Self {
        for (i, job) in jobs.iter_mut().enumerate() {
            job.id = i as u32;
        }
        Self {
            name: name.into(),
            jobs,
        }
    }

    /// Number of jobs.
    pub fn n(&self) -> usize {
        self.jobs.len()
    }

    /// One past the last deadline (0 for an empty instance).
    pub fn horizon(&self) -> u64 {
        self.jobs.iter().map(|j| j.deadline).max().unwrap_or(0)
    }

    /// Earliest release (0 for an empty instance).
    pub fn start(&self) -> u64 {
        self.jobs.iter().map(|j| j.release).min().unwrap_or(0)
    }

    /// The smallest window size in the instance.
    pub fn min_window(&self) -> Option<u64> {
        self.jobs.iter().map(|j| j.window()).min()
    }

    /// The largest window size in the instance.
    pub fn max_window(&self) -> Option<u64> {
        self.jobs.iter().map(|j| j.window()).max()
    }

    /// True if every job satisfies the paper's power-of-2-aligned condition.
    pub fn is_aligned(&self) -> bool {
        self.jobs.iter().all(|j| j.is_aligned())
    }

    /// Histogram of jobs per window size.
    pub fn window_histogram(&self) -> BTreeMap<u64, usize> {
        let mut h = BTreeMap::new();
        for j in &self.jobs {
            *h.entry(j.window()).or_insert(0) += 1;
        }
        h
    }

    /// Merge another instance's jobs into this one (ids are renumbered).
    pub fn merged(mut self, other: Instance) -> Instance {
        self.jobs.extend(other.jobs);
        Instance::new(format!("{}+{}", self.name, other.name), self.jobs)
    }

    /// Retain only jobs satisfying `pred` (ids are renumbered).
    pub fn filtered(self, pred: impl FnMut(&JobSpec) -> bool) -> Instance {
        let mut jobs = self.jobs;
        let mut pred = pred;
        jobs.retain(|j| pred(j));
        Instance::new(self.name, jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> Instance {
        Instance::new(
            "t",
            vec![
                JobSpec::new(99, 0, 8),
                JobSpec::new(98, 8, 16),
                JobSpec::new(97, 0, 32),
            ],
        )
    }

    #[test]
    fn ids_renumbered() {
        let i = inst();
        assert_eq!(
            i.jobs.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn extents() {
        let i = inst();
        assert_eq!(i.horizon(), 32);
        assert_eq!(i.start(), 0);
        assert_eq!(i.min_window(), Some(8));
        assert_eq!(i.max_window(), Some(32));
    }

    #[test]
    fn histogram() {
        let h = inst().window_histogram();
        assert_eq!(h[&8], 2);
        assert_eq!(h[&32], 1);
    }

    #[test]
    fn aligned_detection() {
        assert!(inst().is_aligned());
        let unaligned = Instance::new("u", vec![JobSpec::new(0, 3, 11)]);
        assert!(!unaligned.is_aligned());
    }

    #[test]
    fn merge_and_filter() {
        let a = inst();
        let b = Instance::new("b", vec![JobSpec::new(0, 0, 4)]);
        let m = a.merged(b);
        assert_eq!(m.n(), 4);
        let f = m.filtered(|j| j.window() >= 8);
        assert_eq!(f.n(), 3);
        assert_eq!(f.jobs.last().unwrap().id, 2);
    }

    #[test]
    fn empty_instance() {
        let e = Instance::new("e", vec![]);
        assert_eq!(e.horizon(), 0);
        assert_eq!(e.min_window(), None);
        assert!(e.is_aligned());
    }
}
