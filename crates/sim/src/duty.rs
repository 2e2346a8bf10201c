//! Duty groups: the event-driven owner of periodic-schedule jobs.
//!
//! A job whose protocol declares a [`DutyCycle`] (see
//! [`crate::engine::Protocol::duty_cycle`]) leaves the engine's active set
//! for the group of every job sharing its schedule at the same global
//! phase. The engine then visits the group as a unit: wake positions poll
//! the members, standing-transmission positions occupy the channel in
//! aggregate, and listen positions are resolved by one representative.
//! Per-member transmission and listen counters are settled lazily, in
//! closed form, when the member leaves the layer.
//!
//! The whole set is serialized verbatim into a
//! [`crate::checkpoint::Checkpoint`] — group *member order* selects the
//! listen representative, so groups are transplanted, never re-registered.

use crate::engine::DutyCycle;
use crate::message::Payload;
use crate::metrics::AccessCounts;
use serde::{Deserialize, Serialize};

/// One duty group: every member shares the same [`DutyCycle`] schedule
/// aligned to the same global phase, so the group is visited (and its
/// standing transmissions are counted) as a unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct DutyGroup {
    pub period: u8,
    /// Global round position of pattern position 0:
    /// `(release + anchor_local) % period`.
    pub anchor_mod: u8,
    pub wake_mask: u64,
    pub tx_mask: u64,
    pub listen_mask: u64,
    pub payload: Payload,
    /// Live member job indices; `swap_remove` removal, order arbitrary.
    pub members: Vec<u32>,
}

impl DutyGroup {
    /// This slot's position in the group's pattern. `memo` caches
    /// `(period, slot % period)`: groups usually share one period, so a
    /// scan over them performs a single division.
    pub fn position(&self, slot: u64, memo: &mut (u64, u64)) -> u64 {
        let period = u64::from(self.period);
        if memo.0 != period {
            *memo = (period, slot % period);
        }
        let pos = memo.1 + period - u64::from(self.anchor_mod);
        if pos >= period {
            pos - period
        } else {
            pos
        }
    }

    fn matches(&self, dc: &DutyCycle, anchor_mod: u8) -> bool {
        self.period == dc.period
            && self.anchor_mod == anchor_mod
            && self.wake_mask == dc.wake_mask
            && self.tx_mask == dc.tx_mask
            && self.listen_mask == dc.listen_mask
            && self.payload == dc.tx_payload
    }
}

/// Number of slots in `[from, to)` whose position `(s - anchor_mod) % period`
/// has its bit set in `mask` — the closed form behind lazy standing-
/// transmission accounting.
fn covered_count(from: u64, to: u64, period: u8, anchor_mod: u8, mask: u64) -> u64 {
    if to <= from || mask == 0 {
        return 0;
    }
    let period = u64::from(period);
    let len = to - from;
    let mut n = (len / period) * u64::from(mask.count_ones());
    let mut pos = (from + period - u64::from(anchor_mod)) % period;
    for _ in 0..len % period {
        n += mask >> pos & 1;
        pos += 1;
        if pos == period {
            pos = 0;
        }
    }
    n
}

/// All duty groups of one run, plus per-job membership bookkeeping.
/// Opaque outside the engine: a checkpoint carries it verbatim.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DutySet {
    pub(crate) groups: Vec<DutyGroup>,
    /// Total live members across all groups.
    pub(crate) total: usize,
    /// Per-job `(group index + 1, position in members)`; group 0 = none.
    pub(crate) where_of: Vec<(u32, u32)>,
    /// Per-job: the exact `DutyCycle` value the job registered with, so the
    /// per-visit re-query is one struct compare (the `key_matches` fallback
    /// handles equivalent-but-unequal values, e.g. a shifted anchor).
    pub(crate) reg_dc: Vec<Option<DutyCycle>>,
    /// Per-job first slot from which standing positions count as
    /// transmissions (settled lazily when the job leaves).
    pub(crate) reg_slot: Vec<u64>,
    /// Per-job: a deadline backstop entry exists in the wake queue.
    pub(crate) backstopped: Vec<bool>,
    /// Backstop wake-queue entries whose job already left the duty layer.
    /// Queue entries are not removable, so they are discarded when popped —
    /// and discounted from live-job accounting until then.
    pub(crate) dead_backstops: u64,
}

impl DutySet {
    /// Reset for a run over `n` jobs, keeping allocations.
    pub(crate) fn prepare(&mut self, n: usize) {
        self.clear();
        self.where_of.resize(n, (0, 0));
        self.reg_dc.resize(n, None);
        self.reg_slot.resize(n, 0);
        self.backstopped.resize(n, false);
    }

    pub(crate) fn clear(&mut self) {
        self.groups.clear();
        self.total = 0;
        self.where_of.clear();
        self.reg_dc.clear();
        self.reg_slot.clear();
        self.backstopped.clear();
        self.dead_backstops = 0;
    }

    fn anchor_mod(dc: &DutyCycle, release: u64) -> u8 {
        ((release + dc.anchor_local) % u64::from(dc.period)) as u8
    }

    /// Is `idx` registered under exactly the schedule `dc` resolves to?
    pub(crate) fn key_matches(&self, idx: usize, dc: &DutyCycle, release: u64) -> bool {
        let (g1, _) = self.where_of[idx];
        g1 != 0 && self.groups[g1 as usize - 1].matches(dc, Self::anchor_mod(dc, release))
    }

    /// Enter `idx` into the group for `dc` (creating it if needed).
    /// Standing accounting starts at the slot after `slot` (the current
    /// slot was acted normally).
    pub(crate) fn register(&mut self, idx: usize, dc: &DutyCycle, release: u64, slot: u64) {
        debug_assert!(dc.period > 0 && dc.period <= 64, "period out of range");
        debug_assert_eq!(dc.wake_mask & dc.tx_mask, 0, "masks must be disjoint");
        debug_assert_eq!(
            (dc.wake_mask | dc.tx_mask) & dc.listen_mask,
            0,
            "listen mask must be disjoint from wake and tx masks"
        );
        debug_assert!(
            !dc.tx_payload.is_data(),
            "standing transmissions cannot carry data"
        );
        let anchor_mod = Self::anchor_mod(dc, release);
        let gi = self
            .groups
            .iter()
            .position(|g| g.matches(dc, anchor_mod))
            .unwrap_or_else(|| {
                self.groups.push(DutyGroup {
                    period: dc.period,
                    anchor_mod,
                    wake_mask: dc.wake_mask,
                    tx_mask: dc.tx_mask,
                    listen_mask: dc.listen_mask,
                    payload: dc.tx_payload,
                    members: Vec::new(),
                });
                self.groups.len() - 1
            });
        let pos = self.groups[gi].members.len();
        self.groups[gi].members.push(idx as u32);
        self.where_of[idx] = (gi as u32 + 1, pos as u32);
        self.reg_dc[idx] = Some(*dc);
        self.reg_slot[idx] = slot + 1;
        self.total += 1;
    }

    /// Remove `idx` from its group, if registered, and credit `acc` with
    /// the standing transmissions and aggregate listens it made in
    /// `[reg_slot, now)`, plus `attended` listens the lazy settle does not
    /// cover (a fan-out slot the member observed individually).
    pub(crate) fn leave(&mut self, idx: usize, now: u64, acc: &mut AccessCounts, attended: u64) {
        let (g1, pos) = self.where_of[idx];
        if g1 == 0 {
            return;
        }
        let g = &mut self.groups[g1 as usize - 1];
        let pos = pos as usize;
        g.members.swap_remove(pos);
        if let Some(&moved) = g.members.get(pos) {
            self.where_of[moved as usize].1 = pos as u32;
        }
        self.where_of[idx] = (0, 0);
        self.reg_dc[idx] = None;
        self.total -= 1;
        let from = self.reg_slot[idx];
        acc.transmissions += covered_count(from, now, g.period, g.anchor_mod, g.tx_mask);
        acc.listens += covered_count(from, now, g.period, g.anchor_mod, g.listen_mask) + attended;
    }

    /// Earliest slot ≥ `slot` at which any group wakes, transmits, or
    /// listens.
    pub(crate) fn next_event(&self, slot: u64) -> u64 {
        let mut best = u64::MAX;
        let mut memo = (0u64, 0u64);
        for g in &self.groups {
            let bits = g.wake_mask | g.tx_mask | g.listen_mask;
            if g.members.is_empty() || bits == 0 {
                continue;
            }
            let period = u64::from(g.period);
            let pos = g.position(slot, &mut memo);
            // Distance to the next set bit at or after `pos`, cyclically:
            // rotate the pattern right by `pos` and count trailing zeros.
            let rot = if period == 64 {
                bits.rotate_right(pos as u32)
            } else {
                ((bits >> pos) | (bits << (period - pos))) & !(u64::MAX << period)
            };
            debug_assert_ne!(rot, 0);
            best = best.min(slot + u64::from(rot.trailing_zeros()));
        }
        best
    }

    /// Is this set a consistent image for a run over `n` jobs? Every group
    /// in range, every member's back-pointer naming its exact position, and
    /// nothing else registered — what [`crate::engine::Engine::restore`]
    /// requires before transplanting a checkpoint's set.
    pub(crate) fn is_consistent(&self, n: usize) -> bool {
        if self.where_of.len() != n
            || self.reg_dc.len() != n
            || self.reg_slot.len() != n
            || self.backstopped.len() != n
        {
            return false;
        }
        let mut members = 0usize;
        for (gi, g) in self.groups.iter().enumerate() {
            if g.period == 0 || g.period > 64 || g.anchor_mod >= g.period {
                return false;
            }
            for (p, &m) in g.members.iter().enumerate() {
                if self.where_of.get(m as usize) != Some(&(gi as u32 + 1, p as u32)) {
                    return false;
                }
            }
            members += g.members.len();
        }
        members == self.total && self.where_of.iter().filter(|w| w.0 != 0).count() == members
    }
}
