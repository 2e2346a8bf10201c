//! The vectorized slot kernel behind [`Fidelity::Vectorized`].
//!
//! Jobs whose protocol exposes a [`CohortTx`] profile are lifted out of
//! the per-job dispatch loop into two flat structures:
//!
//! - **Bernoulli buckets** ([`CohortTx::Constant`]): jobs sharing
//!   `(p, deadline)` sit in one bucket as parallel `keys`/`jobs` lanes
//!   with a 64-lane-per-word liveness bitmask. Each slot the kernel
//!   evaluates the counter-based draw `replay_bernoulli(key, slot, p)`
//!   for every live lane in a tight pass — no protocol calls, no
//!   per-job state, no branches on dead lanes beyond the mask.
//! - **One-shot calendar** ([`CohortTx::OneShot`]): the single
//!   transmission slot is precomputed at activation from the same pure
//!   draw the exact path's `on_activate` makes, and pushed into a
//!   min-heap keyed by that slot. Due entries pop in O(log n); slots
//!   with no due entry cost a peek.
//!
//! Because every draw is a pure function of `(job_key, slot, phase)`
//! (see [`crate::crng`]), the kernel's transmission set each slot is
//! *bit-identical* to what the exact path would produce — the
//! conformance matrix's `VECTORIZED` column (`tests/kernel_differential.rs`)
//! pins this across the full protocol × adversary grid.
//!
//! [`Fidelity::Vectorized`]: crate::engine::Fidelity::Vectorized
//! [`CohortTx`]: crate::engine::CohortTx
//! [`CohortTx::Constant`]: crate::engine::CohortTx::Constant
//! [`CohortTx::OneShot`]: crate::engine::CohortTx::OneShot

use crate::checkpoint::{BucketSnap, KernelSnap};
use crate::crng;
use crate::job::JobSpec;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// One `(p, deadline)` class of constant-probability transmitters.
struct BernBucket {
    /// Per-slot transmission probability shared by every lane.
    p: f64,
    /// `p.to_bits()`, the bucket-identity half of the grouping key.
    p_bits: u64,
    /// Common deadline: the whole bucket expires at this slot.
    deadline: u64,
    /// Per-lane counter keys, parallel to `jobs`.
    keys: Vec<u64>,
    /// Per-lane job indices, parallel to `keys`.
    jobs: Vec<u32>,
    /// Liveness bitmask: bit `i` of word `i / 64` is lane `i`. Cleared
    /// on delivery; lanes are never compacted.
    alive: Vec<u64>,
    /// Count of set bits in `alive`.
    live: usize,
}

impl BernBucket {
    /// Evaluate the slot's Bernoulli draws for every live lane,
    /// appending transmitting job indices to `out`.
    fn collect(&self, slot: u64, out: &mut Vec<u32>) {
        for (wi, &word) in self.alive.iter().enumerate() {
            if word == 0 {
                continue;
            }
            let base = wi * 64;
            let mut tx = if word.count_ones() >= 32 && base + 64 <= self.keys.len() {
                // Dense word: draw all 64 lanes branchlessly, mask after.
                let mut bits = 0u64;
                for b in 0..64 {
                    let hit = crng::replay_bernoulli(self.keys[base + b], slot, self.p);
                    bits |= u64::from(hit) << b;
                }
                bits & word
            } else {
                // Sparse word: draw only the set bits.
                let mut bits = 0u64;
                let mut rest = word;
                while rest != 0 {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    if crng::replay_bernoulli(self.keys[base + b], slot, self.p) {
                        bits |= 1u64 << b;
                    }
                }
                bits
            };
            while tx != 0 {
                let b = tx.trailing_zeros() as usize;
                tx &= tx - 1;
                out.push(self.jobs[base + b]);
            }
        }
    }
}

/// Where a kernel-managed job lives, for O(1) delivery handling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Home {
    /// Not kernel-managed (exact-path job, or never inserted).
    None,
    /// Lane `.1` of Bernoulli bucket `.0`.
    Bern(u32, u32),
    /// In the one-shot calendar.
    Shot,
}

/// The vectorized slot kernel: batched Bernoulli buckets plus a
/// one-shot transmission calendar. Owned by the engine; empty, and so
/// inert, unless the run's fidelity is `Vectorized`.
#[derive(Default)]
pub(crate) struct SlotKernel {
    berns: Vec<BernBucket>,
    /// One-shot calendar: `(transmission slot, job index)` min-heap.
    shots: BinaryHeap<Reverse<(u64, u32)>>,
    /// Pending (undelivered, unexpired) one-shot members per deadline.
    /// A fired-but-collided one-shot stays pending until its deadline —
    /// the exact path likewise parks the job to `deadline - 1`, keeping
    /// it in live-job accounting and extending the run to its deadline.
    shot_live: BTreeMap<u64, u64>,
    /// Per-job home, indexed by job index.
    homes: Vec<Home>,
    /// Total pending kernel-managed jobs (bern live + one-shot live).
    pending: usize,
    /// Total live Bernoulli lanes across buckets.
    bern_live: usize,
}

impl SlotKernel {
    /// Reset for a run over `n_jobs` jobs.
    pub(crate) fn prepare(&mut self, n_jobs: usize) {
        self.clear();
        self.homes.resize(n_jobs, Home::None);
    }

    /// Drop all state (the trial arena's clearing contract).
    pub(crate) fn clear(&mut self) {
        self.berns.clear();
        self.shots.clear();
        self.shot_live.clear();
        self.homes.clear();
        self.pending = 0;
        self.bern_live = 0;
    }

    /// Pending kernel-managed jobs (counted in `live_jobs` traces and
    /// the run's termination condition).
    pub(crate) fn pending(&self) -> usize {
        self.pending
    }

    /// Live Bernoulli lanes: while nonzero, every slot needs a draw
    /// pass, so the engine must not gap-skip.
    pub(crate) fn bern_live(&self) -> usize {
        self.bern_live
    }

    /// The earliest scheduled one-shot transmission, if any.
    pub(crate) fn next_tx(&self) -> Option<u64> {
        self.shots.peek().map(|Reverse((s, _))| *s)
    }

    /// The last live slot (`deadline - 1`) of the earliest-expiring
    /// pending one-shot, if any. The engine's gap-skip runs its landing
    /// slot, so this mirrors the exact path precisely: there the parked
    /// job wakes at `deadline - 1`, sits out that one slot, and retires
    /// at its deadline — the run extends exactly that far, no further.
    pub(crate) fn next_expiry(&self) -> Option<u64> {
        self.shot_live.first_key_value().map(|(&d, _)| d - 1)
    }

    /// Σ live·p over Bernoulli buckets: the kernel's contribution to
    /// the slot's declared contention `C(t)`.
    pub(crate) fn declared(&self) -> f64 {
        self.berns.iter().map(|b| b.live as f64 * b.p).sum()
    }

    /// Admit a constant-probability job at activation.
    pub(crate) fn insert_bern(&mut self, idx: u32, key: u64, p: f64, deadline: u64) {
        let p_bits = p.to_bits();
        let bi = match self
            .berns
            .iter()
            .position(|b| b.p_bits == p_bits && b.deadline == deadline)
        {
            Some(bi) => bi,
            None => {
                self.berns.push(BernBucket {
                    p,
                    p_bits,
                    deadline,
                    keys: Vec::new(),
                    jobs: Vec::new(),
                    alive: Vec::new(),
                    live: 0,
                });
                self.berns.len() - 1
            }
        };
        let bucket = &mut self.berns[bi];
        let lane = bucket.keys.len();
        bucket.keys.push(key);
        bucket.jobs.push(idx);
        if lane.is_multiple_of(64) {
            bucket.alive.push(0);
        }
        bucket.alive[lane / 64] |= 1u64 << (lane % 64);
        bucket.live += 1;
        self.bern_live += 1;
        self.pending += 1;
        self.homes[idx as usize] = Home::Bern(bi as u32, lane as u32);
    }

    /// Admit a one-shot job at activation: replay the activation draw
    /// the exact path's `on_activate` would make and calendar the
    /// resulting transmission slot. The job pends until delivery or its
    /// deadline — *not* its transmission slot: a fired-but-collided
    /// one-shot remains a live (if silent) job until its window closes,
    /// exactly as the exact path's parked job does.
    pub(crate) fn insert_shot(
        &mut self,
        idx: u32,
        key: u64,
        release: u64,
        window: u64,
        deadline: u64,
    ) {
        let tx = crng::replay_oneshot(key, release, window);
        self.shots.push(Reverse((tx, idx)));
        *self.shot_live.entry(deadline).or_insert(0) += 1;
        self.pending += 1;
        self.homes[idx as usize] = Home::Shot;
    }

    /// Retire expired state at the top of slot `slot`: buckets and
    /// one-shot members whose deadline has arrived stop pending (their
    /// outcomes are settled by the engine's end-of-run sweep, which
    /// defaults untouched jobs to `Missed` — same as the exact path).
    pub(crate) fn expire(&mut self, slot: u64) {
        for bucket in &mut self.berns {
            if bucket.deadline <= slot && bucket.live > 0 {
                for idx in &bucket.jobs {
                    self.homes[*idx as usize] = Home::None;
                }
                self.bern_live -= bucket.live;
                self.pending -= bucket.live;
                bucket.live = 0;
                bucket.alive.iter_mut().for_each(|w| *w = 0);
            }
        }
        while let Some((&deadline, _)) = self.shot_live.first_key_value() {
            if deadline > slot {
                break;
            }
            let (_, n) = self.shot_live.pop_first().expect("checked nonempty");
            self.pending -= n as usize;
        }
        // Calendar entries need no sweep: a one-shot's transmission slot
        // precedes its deadline and the engine never gap-skips past a
        // pending transmission, so every entry pops in `collect` at
        // exactly its slot, strictly before its deadline can expire it.
    }

    /// Record delivery of job `idx`: its lane goes dead (Bernoulli) or
    /// its deadline's pending count drops (one-shot). A job the kernel
    /// does not manage is left alone.
    pub(crate) fn on_delivery(&mut self, idx: usize, deadline: u64) {
        match self.homes[idx] {
            Home::None => {}
            Home::Bern(bi, lane) => {
                let bucket = &mut self.berns[bi as usize];
                let (wi, bit) = (lane as usize / 64, lane as usize % 64);
                debug_assert_ne!(bucket.alive[wi] & (1 << bit), 0, "double delivery");
                bucket.alive[wi] &= !(1u64 << bit);
                bucket.live -= 1;
                self.bern_live -= 1;
                self.pending -= 1;
                self.homes[idx] = Home::None;
            }
            Home::Shot => {
                let n = self
                    .shot_live
                    .get_mut(&deadline)
                    .expect("delivered one-shot must be pending");
                *n -= 1;
                if *n == 0 {
                    self.shot_live.remove(&deadline);
                }
                self.pending -= 1;
                self.homes[idx] = Home::None;
            }
        }
    }

    /// Capture kernel state for a checkpoint (see [`KernelSnap`]).
    pub(crate) fn save(&self) -> KernelSnap {
        let mut shots: Vec<(u64, u32)> = self.shots.iter().map(|&Reverse(e)| e).collect();
        shots.sort_unstable();
        KernelSnap {
            buckets: self
                .berns
                .iter()
                .map(|b| BucketSnap {
                    p_bits: b.p_bits,
                    deadline: b.deadline,
                    jobs: b.jobs.clone(),
                    alive: b.alive.clone(),
                })
                .collect(),
            shots,
            shot_live: self.shot_live.iter().map(|(&d, &n)| (d, n)).collect(),
            shot_homes: (0..self.homes.len() as u32)
                .filter(|&i| self.homes[i as usize] == Home::Shot)
                .collect(),
        }
    }

    /// Rebuild kernel state from [`SlotKernel::save`] output. `keys` is
    /// the engine's per-job counter-key column (lane keys are re-derived
    /// rather than stored); the derived counters (`live`, `bern_live`,
    /// `pending`) are recomputed. Must be called after
    /// [`SlotKernel::prepare`], for a run paused before `slot`. Refuses a
    /// job out of range or homed twice, a liveness mask that does not fit
    /// its lanes, a calendar entry that is already past, not before its
    /// job's deadline, listed twice or not homed in the calendar, and a
    /// pending-per-deadline map that lists a deadline twice or disagrees
    /// with the homed jobs' deadlines in `specs`.
    pub(crate) fn load(
        &mut self,
        snap: &KernelSnap,
        keys: &[u64],
        specs: &[JobSpec],
        slot: u64,
    ) -> Result<(), &'static str> {
        let mut home_at = |j: u32, home: Home| match self.homes.get_mut(j as usize) {
            Some(h @ Home::None) => {
                *h = home;
                Ok(())
            }
            _ => Err("kernel job out of range or homed twice"),
        };
        let mut berns = Vec::with_capacity(snap.buckets.len());
        for (bi, b) in snap.buckets.iter().enumerate() {
            let lanes = b.jobs.len();
            let spare = lanes % 64 != 0 && b.alive.last().is_some_and(|w| w >> (lanes % 64) != 0);
            if b.alive.len() != lanes.div_ceil(64) || spare {
                return Err("bucket liveness mask does not fit its lanes");
            }
            let mut lane_keys = Vec::with_capacity(lanes);
            let mut live = 0;
            for (lane, &j) in b.jobs.iter().enumerate() {
                lane_keys.push(*keys.get(j as usize).ok_or("kernel job out of range")?);
                if b.alive[lane / 64] >> (lane % 64) & 1 != 0 {
                    home_at(j, Home::Bern(bi as u32, lane as u32))?;
                    live += 1;
                }
            }
            berns.push(BernBucket {
                p: f64::from_bits(b.p_bits),
                p_bits: b.p_bits,
                deadline: b.deadline,
                keys: lane_keys,
                jobs: b.jobs.clone(),
                alive: b.alive.clone(),
                live,
            });
        }
        for &j in &snap.shot_homes {
            home_at(j, Home::Shot)?;
        }
        let mut queued = vec![false; self.homes.len()];
        for &(s, idx) in &snap.shots {
            let j = idx as usize;
            if s < slot
                || self.homes.get(j) != Some(&Home::Shot)
                || s >= specs[j].deadline
                || std::mem::replace(&mut queued[j], true)
            {
                return Err("calendar entry is past, unhomed, outside its window or repeated");
            }
            self.shots.push(Reverse((s, idx)));
        }
        for &(d, n) in &snap.shot_live {
            if self.shot_live.insert(d, n).is_some() {
                return Err("pending-per-deadline map lists a deadline twice");
            }
        }
        if self.shot_live != self.homed_shots(specs, slot) {
            return Err("pending-per-deadline map disagrees with the homed jobs");
        }
        self.bern_live = berns.iter().map(|b| b.live).sum();
        self.pending = self.bern_live + self.shot_live.values().sum::<u64>() as usize;
        self.berns = berns;
        Ok(())
    }

    /// Jobs homed in the calendar per deadline, counting only deadlines
    /// at or after `slot`: [`SlotKernel::expire`] drops a deadline's
    /// count on its own slot but leaves its members homed, and the run
    /// pauses before expiring its pause slot.
    fn homed_shots(&self, specs: &[JobSpec], slot: u64) -> BTreeMap<u64, u64> {
        let mut live = BTreeMap::new();
        for (home, spec) in self.homes.iter().zip(specs) {
            if *home == Home::Shot && spec.deadline >= slot {
                *live.entry(spec.deadline).or_insert(0) += 1;
            }
        }
        live
    }

    /// Evaluate slot `slot`: pop due one-shot transmissions and run the
    /// Bernoulli pass, appending transmitting job indices to `out`.
    ///
    /// The output *set* is a pure function of `(slot, keys)`; its order
    /// is unspecified (the engine only counts transmitters and resolves
    /// the unique single transmitter, so order is unobservable).
    pub(crate) fn collect(&mut self, slot: u64, out: &mut Vec<u32>) {
        while let Some(&Reverse((s, idx))) = self.shots.peek() {
            if s > slot {
                break;
            }
            self.shots.pop();
            // A calendar entry pops exactly on its slot: the engine's
            // gap-skip treats `next_tx` as an event, and a shot resolves
            // (delivery or expiry) only at or after its transmission.
            debug_assert_eq!(s, slot, "one-shot transmission slot was skipped");
            debug_assert_eq!(self.homes[idx as usize], Home::Shot, "stale calendar entry");
            out.push(idx);
        }
        if self.bern_live == 0 {
            return;
        }
        for bucket in &self.berns {
            if bucket.live > 0 && bucket.deadline > slot {
                bucket.collect(slot, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> Vec<u64> {
        (0..n)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xABCD)
            .collect()
    }

    #[test]
    fn bern_pass_matches_scalar_replay() {
        let mut k = SlotKernel::default();
        let ks = keys(100);
        k.prepare(100);
        for (i, &key) in ks.iter().enumerate() {
            k.insert_bern(i as u32, key, 0.25, 1000);
        }
        for slot in 0..50 {
            let mut got = Vec::new();
            k.collect(slot, &mut got);
            got.sort_unstable();
            let want: Vec<u32> = (0..100u32)
                .filter(|&i| crng::replay_bernoulli(ks[i as usize], slot, 0.25))
                .collect();
            assert_eq!(got, want, "slot {slot}");
        }
    }

    #[test]
    fn oneshot_calendar_fires_once_at_replayed_slot() {
        let mut k = SlotKernel::default();
        k.prepare(4);
        let ks = keys(4);
        for (i, &key) in ks.iter().enumerate() {
            k.insert_shot(i as u32, key, 10, 32, 42);
        }
        assert_eq!(k.pending(), 4);
        assert_eq!(k.next_expiry(), Some(41));
        let mut fired = vec![Vec::new(); 4];
        for slot in 10..42 {
            k.expire(slot);
            let mut out = Vec::new();
            k.collect(slot, &mut out);
            for idx in out {
                fired[idx as usize].push(slot);
            }
        }
        for (i, slots) in fired.iter().enumerate() {
            let want = crng::replay_oneshot(ks[i], 10, 32);
            assert_eq!(slots, &vec![want], "job {i}");
        }
        // Undelivered shots pend (as the exact path's parked jobs stay
        // live) until their deadline expires them.
        assert_eq!(k.pending(), 4);
        k.expire(42);
        assert_eq!(k.pending(), 0);
        assert_eq!(k.next_expiry(), None);
    }

    #[test]
    fn delivery_and_expiry_zero_out_pending() {
        let mut k = SlotKernel::default();
        k.prepare(3);
        k.insert_bern(0, 1, 0.5, 100);
        k.insert_bern(1, 2, 0.5, 100);
        k.insert_shot(2, 3, 0, 64, 64);
        assert_eq!(k.pending(), 3);
        assert_eq!(k.bern_live(), 2);
        k.on_delivery(0, 100);
        assert_eq!(k.homes[0], Home::None);
        assert_ne!(k.homes[1], Home::None);
        assert_eq!(k.pending(), 2);
        assert_eq!(k.bern_live(), 1);
        k.on_delivery(2, 64);
        assert_eq!(k.pending(), 1);
        assert_eq!(k.next_expiry(), None);
        k.expire(100);
        assert_eq!(k.pending(), 0);
        assert_eq!(k.bern_live(), 0);
    }

    #[test]
    fn save_load_round_trips_mixed_state() {
        let ks = keys(8);
        let mut k = SlotKernel::default();
        k.prepare(8);
        for i in 0..4u32 {
            k.insert_bern(i, ks[i as usize], 0.3, 200);
        }
        for i in 4..8u32 {
            k.insert_shot(i, ks[i as usize], 0, 64, 64);
        }
        k.on_delivery(1, 200);
        // Advance past some one-shot firings so the saved state mixes
        // fired-but-pending and not-yet-fired calendar members.
        let mut out = Vec::new();
        for slot in 0..20 {
            k.expire(slot);
            out.clear();
            k.collect(slot, &mut out);
        }
        let snap = k.save();
        let mut r = SlotKernel::default();
        r.prepare(8);
        let specs: Vec<JobSpec> = (0..8)
            .map(|i| JobSpec::new(i, 0, if i < 4 { 200 } else { 64 }))
            .collect();
        assert_eq!(r.load(&snap, &ks, &specs, 20), Ok(()));
        assert_eq!(r.pending(), k.pending());
        assert_eq!(r.bern_live(), k.bern_live());
        assert_eq!(r.next_tx(), k.next_tx());
        assert_eq!(r.next_expiry(), k.next_expiry());
        assert_eq!(r.homes, k.homes);
        for slot in 20..70 {
            k.expire(slot);
            r.expire(slot);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            k.collect(slot, &mut a);
            r.collect(slot, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "slot {slot}");
            assert_eq!(k.pending(), r.pending());
        }
    }

    #[test]
    fn declared_tracks_live_lanes() {
        let mut k = SlotKernel::default();
        k.prepare(4);
        for i in 0..4 {
            k.insert_bern(i, u64::from(i) + 7, 0.25, 50);
        }
        assert!((k.declared() - 1.0).abs() < 1e-12);
        k.on_delivery(1, 50);
        assert!((k.declared() - 0.75).abs() < 1e-12);
    }
}
