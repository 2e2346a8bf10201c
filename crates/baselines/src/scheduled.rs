//! A genie-scheduled protocol: the offline optimum.
//!
//! [`ScheduledSlot`] is handed the slot it should transmit in (relative to
//! its release) by an offline scheduler — e.g. an EDF assignment computed
//! by `dcr_workloads::feasibility`. On a feasible instance every job
//! succeeds, which makes this the collision-free upper bound against which
//! the distributed protocols are scored, and [`edf_assignment`] computes
//! exactly that assignment for unit messages.

use dcr_sim::engine::{Action, JobCtx, Protocol, Wake};
use dcr_sim::job::JobSpec;
use dcr_sim::message::Payload;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Transmit the data message exactly once, in the given local slot.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledSlot {
    local_slot: u64,
    fired: bool,
}

impl ScheduledSlot {
    /// Transmit at `local_slot` (relative to release).
    pub fn new(local_slot: u64) -> Self {
        Self {
            local_slot,
            fired: false,
        }
    }
}

impl Protocol for ScheduledSlot {
    fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn rand::RngCore) -> Action {
        if !self.fired && ctx.local_time == self.local_slot {
            self.fired = true;
            Action::Transmit(Payload::Data(ctx.id))
        } else {
            // The schedule is fixed offline; nothing on the channel can
            // change it, so the radio stays off outside the assigned slot.
            Action::Sleep
        }
    }

    fn is_done(&self) -> bool {
        self.fired
    }

    fn next_wake(&self, ctx: &JobCtx) -> Option<Wake> {
        if !self.fired && self.local_slot > ctx.local_time {
            Some(Wake::Asleep(self.local_slot))
        } else {
            Some(Wake::NEVER)
        }
    }
}

/// Compute an EDF slot assignment for unit-length messages: each job gets
/// one distinct slot inside its window, or `None` if the instance is
/// infeasible. Returned as local (release-relative) slots indexed by job
/// id position in `jobs`.
pub fn edf_assignment(jobs: &[JobSpec]) -> Option<Vec<u64>> {
    let mut order: Vec<(usize, &JobSpec)> = jobs.iter().enumerate().collect();
    order.sort_by_key(|(_, j)| j.release);

    let mut assignment = vec![0u64; jobs.len()];
    // Min-heap of (deadline, original index) for released jobs.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut now = 0u64;
    let mut next = 0usize;
    while next < order.len() || !heap.is_empty() {
        if heap.is_empty() {
            now = now.max(order[next].1.release);
        }
        while next < order.len() && order[next].1.release <= now {
            let (idx, j) = order[next];
            heap.push(Reverse((j.deadline, idx)));
            next += 1;
        }
        let Reverse((deadline, idx)) = heap.pop().expect("non-empty");
        if now >= deadline {
            return None;
        }
        assignment[idx] = now - jobs[idx].release;
        now += 1;
    }
    Some(assignment)
}

/// Build `(spec, protocol)` pairs for a genie-scheduled run. `None` if the
/// instance is infeasible even for the offline scheduler.
pub fn scheduled_protocols(jobs: &[JobSpec]) -> Option<Vec<ScheduledSlot>> {
    let assignment = edf_assignment(jobs)?;
    Some(assignment.into_iter().map(ScheduledSlot::new).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcr_sim::engine::{Engine, EngineConfig};

    fn j(id: u32, r: u64, d: u64) -> JobSpec {
        JobSpec::new(id, r, d)
    }

    #[test]
    fn assignment_fits_windows_and_is_distinct() {
        let jobs = vec![j(0, 0, 4), j(1, 0, 2), j(2, 1, 3), j(3, 0, 8)];
        let a = edf_assignment(&jobs).unwrap();
        let mut absolute: Vec<u64> = a
            .iter()
            .zip(&jobs)
            .map(|(local, spec)| spec.release + local)
            .collect();
        for (abs, spec) in absolute.iter().zip(&jobs) {
            assert!(spec.contains(*abs), "slot {abs} outside {spec:?}");
        }
        absolute.sort_unstable();
        absolute.dedup();
        assert_eq!(absolute.len(), jobs.len(), "slots must be distinct");
    }

    #[test]
    fn infeasible_detected() {
        let jobs: Vec<_> = (0..5).map(|i| j(i, 0, 4)).collect();
        assert!(edf_assignment(&jobs).is_none());
    }

    #[test]
    fn genie_run_delivers_everything() {
        let jobs = vec![j(0, 0, 4), j(1, 0, 4), j(2, 2, 6), j(3, 5, 9)];
        let protos = scheduled_protocols(&jobs).unwrap();
        let mut e = Engine::new(EngineConfig::default(), 1);
        for (spec, proto) in jobs.iter().zip(protos) {
            e.add_job(*spec, Box::new(proto));
        }
        let r = e.run();
        assert_eq!(r.successes(), 4);
        assert_eq!(r.counts.collision, 0);
    }

    #[test]
    fn empty_instance() {
        assert_eq!(edf_assignment(&[]), Some(vec![]));
    }
}
