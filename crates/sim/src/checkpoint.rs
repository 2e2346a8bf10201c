//! Checkpoint/branch-and-replay: engine state capture at slot boundaries.
//!
//! A [`Checkpoint`] is a complete, serializable image of a paused
//! [`crate::engine::Engine`] run — everything the slot loop carries between
//! slots, flattened into plain-old-data so it can travel through
//! `serde_json`, live in the experiment server's content-addressed cache,
//! and be restored into a *fresh* engine on any thread.
//!
//! The contract is **bit identity**: an engine that runs to slot `s`, is
//! snapshotted, and a fresh engine restored from that snapshot and run to
//! completion must produce a [`crate::metrics::SimReport`] byte-identical
//! (modulo wall-clock `engine_nanos`) to an uninterrupted run of the same
//! configuration. `tests/checkpoint_equivalence.rs` enforces this across
//! the protocol × adversary × fidelity grid.
//!
//! ## What a checkpoint captures
//!
//! * slot cursor, pending-activation cursor, and all run accounting
//!   ([`crate::metrics::SlotCounts`], gap-skip counters, declared-contention
//!   sum as raw bits);
//! * per-job outcomes, access counters, and the active set (in engine
//!   order — `swap_remove` order is behavior, not noise);
//! * the wake-queue calendar (entries in pop order plus lifetime counters);
//! * each live job's protocol state as a flat word blob
//!   ([`crate::engine::Protocol::save_state`]);
//! * duty groups verbatim, including member order (the listen-representative
//!   is the first member, so order affects behavior);
//! * cohort aggregates and phase-synchronized class drivers
//!   ([`crate::classes::ClassDriver::save_state`]);
//! * the vectorized kernel's buckets and one-shot calendar;
//! * the jammer's counters and adversary state
//!   ([`crate::jamming::Adversary::save_state`]);
//! * the word positions of the two stateful RNG streams (jammer, cohort).
//!   Everything else draws from counter-based streams that are pure
//!   functions of `(key, slot, phase)` and need no capture at all.
//!
//! ## What a checkpoint does *not* capture
//!
//! The static run inputs — config, master seed, job specs, protocol
//! parameters, adversary spec — are **not** serialized. A restore target
//! must be rebuilt from the same inputs (same constructors, same order);
//! the checkpoint carries a [`Checkpoint::fingerprint`] over those inputs
//! and [`crate::engine::Engine::restore`] refuses a mismatch. Probe sinks
//! and trace recording are also out of scope: snapshots are only permitted
//! on unprobed, untraced runs (observability buffers are unbounded and
//! belong to the run that made them).
//!
//! ## Word-blob convention
//!
//! Protocol, class-driver, and adversary state travels as `Vec<u64>` built
//! with [`StatePack`] and decoded with [`StateReader`]: floats as
//! `to_bits`, bools as 0/1, `Option` as a 0/1 flag followed by the value,
//! vectors length-prefixed. Blobs hold *dynamic* state only — anything
//! fixed at construction is re-supplied by the rebuilt instance.

use crate::cohort::Cohort;
use crate::duty::DutySet;
use crate::metrics::{AccessCounts, JobOutcome, SlotCounts};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Version tag of the checkpoint wire format. Bump on any layout change;
/// [`crate::engine::Engine::restore`] rejects other versions.
pub const CHECKPOINT_VERSION: u32 = 2;

/// A complete engine-state image at a slot boundary. See the
/// [module docs](self) for the capture contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Wire-format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// FNV-1a digest of the run's static inputs (master seed, behavior
    /// config, `p_jam`, job specs). A restore target rebuilt from
    /// different inputs is rejected by fingerprint mismatch.
    pub fingerprint: u64,
    /// The master seed the run was built with (convenience duplicate of
    /// what the fingerprint commits to; lets tooling rebuild the engine).
    pub master_seed: u64,
    /// The slot boundary the run is paused at (next slot to execute).
    pub slot: u64,
    /// Cursor into the release-sorted activation order: jobs before it
    /// have already activated.
    pub next_pending: u64,
    /// Channel activity counters accumulated so far.
    pub counts: SlotCounts,
    /// Gap fast-forwards taken so far ([`crate::metrics::SchedStats`]).
    pub gap_skips: u64,
    /// Slots covered by those fast-forwards.
    pub gap_slots: u64,
    /// Raw bits of the running declared-contention sum (`f64::to_bits`;
    /// bit-exact round-trip through JSON).
    pub contention_sum_bits: u64,
    /// Word position of the jammer's ChaCha stream.
    pub jam_word_pos: u64,
    /// Word position of the cohort stream (`Some` iff cohort fidelity).
    pub cohort_word_pos: Option<u64>,
    /// Per-job outcomes so far (indexed by job id).
    pub outcomes: Vec<Option<JobOutcome>>,
    /// Per-job channel-access counters (indexed by job id).
    pub accesses: Vec<AccessCounts>,
    /// The active set, in engine order (`swap_remove` order is behavior:
    /// it fixes polling order and therefore RNG-free tie-breaks).
    pub active: Vec<u32>,
    /// The wake-queue calendar.
    pub parked: ParkedSnap,
    /// Per-job protocol state: `Some(blob)` for jobs whose protocol is
    /// live at the boundary, `None` for pending/retired/aggregate-managed
    /// jobs (their protocols are rebuilt fresh or never consulted).
    pub protocol_state: Vec<Option<Vec<u64>>>,
    /// Duty groups and per-job duty bookkeeping, verbatim.
    pub duty: DutySet,
    /// Cohort aggregates (cohort fidelity), verbatim.
    pub cohorts: Vec<Cohort>,
    /// Phase-synchronized class aggregates (cohort fidelity).
    pub classes: Vec<ClassSnap>,
    /// The vectorized kernel's state as one flat word blob (an empty
    /// kernel unless vectorized fidelity).
    pub kernel: Vec<u64>,
    /// Jam attempts so far ([`crate::jamming::Jammer::attempted`]).
    pub jams_attempted: u64,
    /// Successful jams so far ([`crate::jamming::Jammer::succeeded`]).
    pub jams_succeeded: u64,
    /// The adversary's dynamic state
    /// ([`crate::jamming::Adversary::save_state`]).
    pub adversary: Vec<u64>,
}

/// The wake-queue calendar: parked entries in pop order plus the queue's
/// lifetime counters (which feed [`crate::metrics::SchedStats`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParkedSnap {
    /// The queue's base slot (pop cursor).
    pub base: u64,
    /// `(wake_slot, job)` entries in pop order.
    pub entries: Vec<(u64, u32)>,
    /// Lifetime push count.
    pub pushes: u64,
    /// High-water mark of queued entries.
    pub peak: u64,
}

/// One phase-synchronized class aggregate. The driver is rebuilt through
/// the opening job's [`crate::engine::Protocol::class_driver`] and then
/// fed `state` via [`crate::classes::ClassDriver::restore_state`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSnap {
    /// Protocol-chosen class discriminant.
    pub tag: u64,
    /// Shared release slot.
    pub release: u64,
    /// Shared deadline slot.
    pub deadline: u64,
    /// Cached live-member count from the end of the previous slot.
    pub live: u64,
    /// The job that opened the class (supplies the rebuilt driver).
    pub opener: u32,
    /// The driver's dynamic state blob (carries the member set).
    pub state: Vec<u64>,
}

/// Why a snapshot or restore was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The engine is not paused inside a run (call
    /// [`crate::engine::Engine::run_to`] first).
    NotPaused,
    /// The run already hit its natural end; there is nothing left to
    /// branch over (call [`crate::engine::Engine::finish`]).
    Finished,
    /// The run uses a feature the checkpoint layer does not cover; the
    /// string names it (trace/probe recording, a protocol, class driver,
    /// or adversary without state support, ...).
    Unsupported(String),
    /// The checkpoint's version or fingerprint does not match the restore
    /// target; the string says which.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotPaused => write!(f, "engine is not paused inside a run"),
            Self::Finished => write!(f, "run already ended; nothing to snapshot"),
            Self::Unsupported(what) => write!(f, "not checkpointable: {what}"),
            Self::Mismatch(what) => write!(f, "checkpoint does not match engine: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Builder for the flat word blobs protocol/class/adversary state travels
/// in. See the [module docs](self) for the encoding convention.
#[derive(Debug, Default)]
pub struct StatePack {
    words: Vec<u64>,
}

impl StatePack {
    /// Start an empty blob.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one word.
    pub fn word(&mut self, w: u64) -> &mut Self {
        self.words.push(w);
        self
    }

    /// Append a bool as 0/1.
    pub fn flag(&mut self, b: bool) -> &mut Self {
        self.word(u64::from(b))
    }

    /// Append an `f64` as its raw bits.
    pub fn float(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    /// Append an `Option<u64>` as a 0/1 flag followed (when set) by the
    /// value.
    pub fn opt(&mut self, x: Option<u64>) -> &mut Self {
        match x {
            Some(w) => self.flag(true).word(w),
            None => self.flag(false),
        }
    }

    /// Append a slice as a length prefix followed by its words.
    pub fn seq(&mut self, xs: &[u64]) -> &mut Self {
        self.word(xs.len() as u64);
        self.words.extend_from_slice(xs);
        self
    }

    /// Finish the blob.
    pub fn finish(self) -> Vec<u64> {
        self.words
    }
}

/// Cursor over a [`StatePack`]-encoded blob. Every read returns `None` on
/// underrun or malformed data; a restore should propagate that as failure.
#[derive(Debug, Clone, Copy)]
pub struct StateReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Read from the start of `words`.
    pub fn new(words: &'a [u64]) -> Self {
        Self { words, pos: 0 }
    }

    /// Next word.
    pub fn word(&mut self) -> Option<u64> {
        let w = self.words.get(self.pos).copied();
        if w.is_some() {
            self.pos += 1;
        }
        w
    }

    /// Next word as a bool; `None` unless it is exactly 0 or 1.
    pub fn flag(&mut self) -> Option<bool> {
        match self.word()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Next word as `f64` bits.
    pub fn float(&mut self) -> Option<f64> {
        self.word().map(f64::from_bits)
    }

    /// Next flag-prefixed `Option<u64>`.
    pub fn opt(&mut self) -> Option<Option<u64>> {
        match self.flag()? {
            false => Some(None),
            true => self.word().map(Some),
        }
    }

    /// Next length-prefixed sequence.
    pub fn seq(&mut self) -> Option<&'a [u64]> {
        let n = usize::try_from(self.word()?).ok()?;
        let xs = self.words.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(xs)
    }

    /// True when the whole blob has been consumed — restores should check
    /// this so trailing garbage is rejected rather than ignored.
    pub fn done(&self) -> bool {
        self.pos == self.words.len()
    }
}

/// FNV-1a over a word stream — the static-input fingerprint digest.
pub(crate) struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_reader_round_trip() {
        let mut p = StatePack::new();
        p.word(7)
            .flag(true)
            .flag(false)
            .float(0.25)
            .opt(Some(99))
            .opt(None)
            .seq(&[1, 2, 3]);
        let blob = p.finish();
        let mut r = StateReader::new(&blob);
        assert_eq!(r.word(), Some(7));
        assert_eq!(r.flag(), Some(true));
        assert_eq!(r.flag(), Some(false));
        assert_eq!(r.float(), Some(0.25));
        assert_eq!(r.opt(), Some(Some(99)));
        assert_eq!(r.opt(), Some(None));
        assert_eq!(r.seq(), Some(&[1u64, 2, 3][..]));
        assert!(r.done());
        assert_eq!(r.word(), None);
    }

    #[test]
    fn reader_rejects_malformed() {
        // Flag words must be exactly 0 or 1.
        assert_eq!(StateReader::new(&[2]).flag(), None);
        // Sequence longer than the blob.
        assert_eq!(StateReader::new(&[5, 1, 2]).seq(), None);
        // Underrun.
        let mut r = StateReader::new(&[]);
        assert_eq!(r.word(), None);
        assert!(r.done());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.word(1);
        a.word(2);
        let mut b = Digest::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn checkpoint_serde_round_trip() {
        let mut duty = DutySet::default();
        duty.prepare(3);
        let dc = crate::engine::DutyCycle {
            period: 8,
            wake_mask: 0b1,
            tx_mask: 0b10,
            tx_payload: crate::message::Payload::Control(crate::message::ControlMsg::of_kind(7)),
            listen_mask: 0b100,
            anchor_local: 3,
        };
        duty.register(2, &dc, 0, 4);
        duty.register(0, &dc, 0, 8);
        let mut set = crate::cohort::CohortSet::default();
        set.insert(crate::engine::CohortTx::OneShot, 256, 5);
        set.insert(crate::engine::CohortTx::Constant { p: 0.1 }, 256, 7);
        let (cohorts, _) = set.save();
        let ck = Checkpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: 0xdead_beef,
            master_seed: 42,
            slot: 100,
            next_pending: 3,
            counts: SlotCounts {
                silent: 50,
                success: 30,
                collision: 15,
                jammed: 5,
                data_success: 28,
            },
            gap_skips: 2,
            gap_slots: 40,
            contention_sum_bits: 1.75f64.to_bits(),
            jam_word_pos: 64,
            cohort_word_pos: Some(16),
            outcomes: vec![
                Some(JobOutcome::Success { slot: 9 }),
                None,
                Some(JobOutcome::Missed),
            ],
            accesses: vec![AccessCounts {
                transmissions: 4,
                listens: 2,
            }],
            active: vec![1, 0],
            parked: ParkedSnap {
                base: 100,
                entries: vec![(120, 2), (130, 1)],
                pushes: 6,
                peak: 3,
            },
            protocol_state: vec![Some(vec![1, 2]), None, Some(Vec::new())],
            duty,
            cohorts,
            classes: vec![ClassSnap {
                tag: 11,
                release: 0,
                deadline: 64,
                live: 3,
                opener: 5,
                state: vec![3, 5, 6, 7],
            }],
            kernel: vec![0, 9, 9],
            jams_attempted: 12,
            jams_succeeded: 4,
            adversary: vec![1],
        };
        let json = serde_json::to_string(&ck).expect("serialize");
        let back: Checkpoint = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, ck);
    }
}
