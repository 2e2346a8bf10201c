//! Wake-slot calendar for the event-driven engine.
//!
//! Protocols that know their next active slot (see
//! [`crate::engine::Protocol::next_wake`]) are *parked*: the engine removes
//! them from the per-slot polling set and records the slot at which they next
//! need an `act()` call here.
//!
//! The structure is a hierarchical timing wheel: wakes within the next
//! `WHEEL` slots land in a ring of per-slot buckets (plain `Vec`s whose
//! allocations are reused forever — pushing and popping a job is a couple of
//! array writes, no ordering work at all), while the rare distant wake goes
//! to a binary-heap overflow that migrates into the ring as the wheel turns.
//! This shape is dictated by the workloads: duty-cycled protocols like
//! PUNCTUAL park and wake several times per *round* (`ROUND_LEN` = 10 slots,
//! so horizons of 1–9 slots, millions of operations per run, and many jobs
//! sharing each wake slot), while one-shot protocols like UNIFORM park once
//! for up to a whole window. A comparison-based queue pays `O(log n)` per
//! job for the punctual traffic; the wheel pays `O(1)` and keeps the
//! grouped, insertion-ordered pops that make wake order deterministic. The
//! wheel is robust under the engine's arbitrary fast-forward jumps (idle
//! gaps and all-parked stretches can skip millions of slots at once).

use crate::checkpoint::{CheckpointError, ParkedSnap};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ring size in slots. Wakes within `WHEEL` slots of the queue's current
/// base take the O(1) bucket path; anything farther overflows to the heap.
/// 64 comfortably covers PUNCTUAL's round length (10) and the other
/// duty-cycled protocols' short hops, while keeping `next_wake`'s worst-case
/// ring scan trivial.
const WHEEL: usize = 64;

/// One overflow entry, packed for cheap heap comparisons: wake slot in the
/// high bits, then insertion sequence, then the job index.
type FarEntry = Reverse<(u64, u64, u32)>;

/// A calendar of parked jobs keyed by absolute wake slot.
///
/// Values are indices into the engine's job table. Within one wake slot,
/// jobs pop in insertion order, so wake order is deterministic.
#[derive(Debug)]
pub struct WakeQueue {
    /// Ring of per-slot buckets; slot `s` lives in `buckets[s % WHEEL]`.
    /// Invariant: every bucketed entry's slot is in `[base, base + WHEEL)`.
    buckets: Vec<Vec<u32>>,
    /// Lower edge of the ring's horizon; advances monotonically with
    /// [`WakeQueue::pop_due`]. All live entries are at slots `>= base`.
    base: u64,
    /// Entries currently in the ring.
    near: usize,
    /// Overflow for wakes at `base + WHEEL` or beyond. Invariant restored
    /// after every base advance by migrating newly-near entries into the
    /// ring, so `near > 0` implies the earliest wake is in the ring.
    far: BinaryHeap<FarEntry>,
    seq: u64,
    pushes: u64,
    peak: usize,
}

impl Default for WakeQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl WakeQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            buckets: (0..WHEEL).map(|_| Vec::new()).collect(),
            base: 0,
            near: 0,
            far: BinaryHeap::new(),
            seq: 0,
            pushes: 0,
            peak: 0,
        }
    }

    /// Park `job` until `slot`. `slot` must not precede slots already
    /// processed by [`WakeQueue::pop_due`] (the engine only parks forward).
    pub fn push(&mut self, slot: u64, job: u32) {
        debug_assert!(slot >= self.base, "park into the past");
        if slot - self.base < WHEEL as u64 {
            self.buckets[(slot % WHEEL as u64) as usize].push(job);
            self.near += 1;
        } else {
            self.far.push(Reverse((slot, self.seq, job)));
            self.seq += 1;
        }
        self.pushes += 1;
        self.peak = self.peak.max(self.len());
    }

    /// The earliest wake slot, if any job is parked.
    pub fn next_wake(&self) -> Option<u64> {
        if self.near > 0 {
            // The far heap only holds entries past the ring's horizon, so
            // a non-empty ring always contains the minimum.
            for off in 0..WHEEL as u64 {
                let s = self.base + off;
                if !self.buckets[(s % WHEEL as u64) as usize].is_empty() {
                    return Some(s);
                }
            }
            unreachable!("near count positive but no occupied bucket");
        }
        self.far.peek().map(|Reverse((slot, _, _))| *slot)
    }

    /// Move every job due at or before `slot` into `out`, in ascending slot
    /// order (insertion order within a slot).
    pub fn pop_due(&mut self, slot: u64, out: &mut Vec<u32>) {
        if slot < self.base {
            return;
        }
        if self.near == 0 && self.far.is_empty() {
            self.base = slot + 1;
            return;
        }
        if self.near > 0 {
            // Usually `base == slot` and this inspects a single bucket; a
            // fast-forward jump sweeps at most the whole ring once.
            let hi = slot.min(self.base.saturating_add(WHEEL as u64 - 1));
            let mut s = self.base;
            while s <= hi && self.near > 0 {
                let bucket = &mut self.buckets[(s % WHEEL as u64) as usize];
                if !bucket.is_empty() {
                    self.near -= bucket.len();
                    out.append(bucket);
                }
                s += 1;
            }
        }
        // Ring slots all precede far slots, so draining the heap second
        // keeps `out` in ascending slot order.
        while let Some(Reverse((due, _, job))) = self.far.peek() {
            if *due > slot {
                break;
            }
            out.push(*job);
            self.far.pop();
        }
        self.base = slot + 1;
        // Restore the horizon invariant: far entries the advance brought
        // within the ring move into their buckets now, before any same-slot
        // push can land behind them (far entries are always older).
        while let Some(Reverse((due, _, _))) = self.far.peek() {
            if *due - self.base >= WHEEL as u64 {
                break;
            }
            let Reverse((due, _, job)) = self.far.pop().expect("peeked");
            self.buckets[(due % WHEEL as u64) as usize].push(job);
            self.near += 1;
        }
    }

    /// Number of parked jobs.
    pub fn len(&self) -> usize {
        self.near + self.far.len()
    }

    /// True when no job is parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total park operations over the queue's lifetime (one job can park
    /// many times; feeds [`crate::metrics::SchedStats::parks`]).
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Peak simultaneous occupancy over the queue's lifetime.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Serialize the calendar for [`crate::checkpoint`]: entries as
    /// `(wake slot, job)` in exactly the order [`WakeQueue::pop_due`] would
    /// surface them, plus the base and lifetime counters. Pop order is the
    /// only order-sensitive fact the queue holds; the near/far split is a
    /// performance detail reconstructed on load.
    pub(crate) fn save(&self) -> ParkedSnap {
        let mut entries = Vec::with_capacity(self.len());
        for off in 0..WHEEL as u64 {
            let s = self.base + off;
            for &job in &self.buckets[(s % WHEEL as u64) as usize] {
                entries.push((s, job));
            }
        }
        // `into_sorted_vec` ascends in `Reverse` order (= descending
        // `(slot, seq)`); reversing restores heap pop order.
        for Reverse((s, _, job)) in self.far.clone().into_sorted_vec().into_iter().rev() {
            entries.push((s, job));
        }
        ParkedSnap {
            base: self.base,
            entries,
            pushes: self.pushes,
            peak: self.peak as u64,
        }
    }

    /// Rebuild the calendar from [`WakeQueue::save`] output, for a run
    /// over `n` jobs paused before `slot`. Jobs re-park in saved pop order
    /// (sequence numbers are reassigned but ascend, so relative order
    /// within a slot is preserved); the lifetime counters are then
    /// overwritten with the saved values. An entry before the base, a base
    /// past `slot`, or a job out of range is a mismatch.
    pub(crate) fn load(
        &mut self,
        snap: &ParkedSnap,
        slot: u64,
        n: usize,
    ) -> Result<(), CheckpointError> {
        if snap.base > slot
            || snap
                .entries
                .iter()
                .any(|&(s, j)| s < snap.base || j as usize >= n)
        {
            return Err(CheckpointError::Mismatch(
                "wake-queue entry out of range".into(),
            ));
        }
        self.clear();
        self.base = snap.base;
        for &(wake, job) in &snap.entries {
            self.push(wake, job);
        }
        self.pushes = snap.pushes;
        self.peak = snap.peak as usize;
        Ok(())
    }

    /// Empty the queue and reset the lifetime counters, keeping every
    /// bucket's and the heap's allocation for the next run (the trial
    /// arena's clearing contract).
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.far.clear();
        self.base = 0;
        self.near = 0;
        self.seq = 0;
        self.pushes = 0;
        self.peak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_slot_then_insertion_order() {
        let mut q = WakeQueue::new();
        q.push(7, 2);
        q.push(3, 1);
        q.push(7, 0);
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_wake(), Some(3));

        let mut out = Vec::new();
        q.pop_due(2, &mut out);
        assert!(out.is_empty());
        q.pop_due(3, &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(q.next_wake(), Some(7));

        out.clear();
        // A fast-forward past several wake slots drains all of them.
        q.pop_due(100, &mut out);
        assert_eq!(out, vec![2, 0]);
        assert!(q.is_empty());
        assert_eq!(q.next_wake(), None);
    }

    #[test]
    fn lifetime_counters_survive_pops() {
        let mut q = WakeQueue::new();
        q.push(3, 0);
        q.push(5, 1);
        let mut out = Vec::new();
        q.pop_due(10, &mut out);
        q.push(20, 0);
        // Counters are cumulative: emptying the queue does not reset them.
        assert_eq!(q.pushes(), 3);
        assert_eq!(q.peak(), 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_wakes_cross_the_ring_horizon() {
        let mut q = WakeQueue::new();
        // Two distant wakes on the same slot plus one near wake on that
        // slot, pushed after the wheel turned: pops stay insertion-ordered.
        q.push(1_000_000, 7);
        q.push(1_000_000, 8);
        q.push(2, 1);
        assert_eq!(q.next_wake(), Some(2));

        let mut out = Vec::new();
        q.pop_due(999_990, &mut out);
        assert_eq!(out, vec![1]);
        // The far entries are now within the ring horizon; a same-slot push
        // must land behind them.
        q.push(1_000_000, 9);
        assert_eq!(q.next_wake(), Some(1_000_000));
        out.clear();
        q.pop_due(1_000_000, &mut out);
        assert_eq!(out, vec![7, 8, 9]);
        assert!(q.is_empty());
    }

    #[test]
    fn giant_jump_drains_near_then_far_in_slot_order() {
        let mut q = WakeQueue::new();
        q.push(5, 0);
        q.push(1_000, 1);
        q.push(1_000_000, 2);
        q.push(6, 3);
        let mut out = Vec::new();
        q.pop_due(1_000_000_000_000, &mut out);
        assert_eq!(out, vec![0, 3, 1, 2]);
        assert!(q.is_empty());
        // Still usable after the jump.
        q.push(1_000_000_000_010, 4);
        assert_eq!(q.next_wake(), Some(1_000_000_000_010));
    }

    #[test]
    fn wheel_wraps_across_many_rounds() {
        // Exercise ring reuse: repeated short-horizon park/pop cycles far
        // beyond the ring size, mimicking PUNCTUAL's round train.
        let mut q = WakeQueue::new();
        let mut out = Vec::new();
        for slot in 0..10_000u64 {
            q.pop_due(slot, &mut out);
            for (j, step) in [(0u32, 2u64), (1, 3), (2, 9)] {
                if (slot + step) % (step + 1) == 0 {
                    q.push(slot + step, j);
                }
            }
            out.clear();
        }
        assert_eq!(q.pushes(), {
            let mut n = 0;
            for slot in 0..10_000u64 {
                for step in [2u64, 3, 9] {
                    if (slot + step) % (step + 1) == 0 {
                        n += 1;
                    }
                }
            }
            n
        });
    }

    #[test]
    fn clear_resets_counters_and_contents() {
        let mut q = WakeQueue::new();
        q.push(3, 0);
        q.push(500, 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pushes(), 0);
        assert_eq!(q.peak(), 0);
        assert_eq!(q.next_wake(), None);
        // Reusable after a clear, with counters starting over.
        q.push(9, 4);
        let mut out = Vec::new();
        q.pop_due(9, &mut out);
        assert_eq!(out, vec![4]);
        assert_eq!(q.pushes(), 1);
    }

    #[test]
    fn save_load_round_trips_pop_order() {
        let mut q = WakeQueue::new();
        q.push(7, 2);
        q.push(3, 1);
        q.push(7, 0);
        q.push(1_000, 5);
        q.push(1_000, 6);
        let mut out = Vec::new();
        q.pop_due(3, &mut out);
        let snap = q.save();
        let mut r = WakeQueue::new();
        r.load(&snap, 4, 7).expect("consistent image");
        assert_eq!(r.len(), q.len());
        assert_eq!(r.pushes(), q.pushes());
        assert_eq!(r.peak(), q.peak());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        q.pop_due(2_000, &mut a);
        r.pop_due(2_000, &mut b);
        assert_eq!(a, b);
    }

    /// Randomized cross-check against a straightforward ordered-map model:
    /// same pops, same order, same counters, under interleaved pushes,
    /// per-slot pops, and occasional fast-forward jumps.
    #[test]
    fn matches_btreemap_model_under_random_traffic() {
        use std::collections::BTreeMap;
        let mut q = WakeQueue::new();
        let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        // Tiny deterministic LCG so the test needs no rng dependency wiring.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut slot = 0u64;
        let mut out = Vec::new();
        let mut expect = Vec::new();
        for step in 0..50_000u64 {
            // Mostly +1 advances, occasionally a big jump.
            slot += match rand() % 100 {
                0 => 1_000 + rand() % 10_000,
                1..=9 => 2 + rand() % 60,
                _ => 1,
            };
            out.clear();
            q.pop_due(slot, &mut out);
            expect.clear();
            let due: Vec<u64> = model.range(..=slot).map(|(s, _)| *s).collect();
            for s in due {
                expect.extend(model.remove(&s).unwrap());
            }
            assert_eq!(out, expect, "step {step} slot {slot}");
            assert_eq!(q.len(), model.values().map(Vec::len).sum::<usize>());
            assert_eq!(q.next_wake(), model.keys().next().copied());
            for _ in 0..rand() % 4 {
                let horizon = match rand() % 10 {
                    0 => 100 + rand() % 100_000, // far
                    _ => 2 + rand() % 12,        // punctual-style near
                };
                let job = (rand() % 500) as u32;
                q.push(slot + horizon, job);
                model.entry(slot + horizon).or_default().push(job);
            }
        }
    }
}
