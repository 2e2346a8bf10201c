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
//! configuration. The conformance matrix's `RESTORE` column
//! (`tests/checkpoint_equivalence.rs`) enforces this across the protocol ×
//! adversary × fidelity grid, duty groups included.
//!
//! ## What a checkpoint captures
//!
//! * slot cursor, pending-activation cursor, and all run accounting
//!   ([`crate::metrics::SlotCounts`] and gap-skip counters);
//! * per-job outcomes, access counters, and the active set (in engine
//!   order — `swap_remove` order is behavior, not noise);
//! * the wake-queue calendar (entries in pop order plus lifetime counters);
//! * each live job's protocol state ([`crate::engine::Protocol::save_state`]);
//! * duty groups verbatim, including member order (the listen-representative
//!   is the first member, so order affects behavior);
//! * cohort aggregates and phase-synchronized class drivers
//!   ([`crate::classes::ClassDriver::save_state`]);
//! * the vectorized kernel's buckets and one-shot calendar ([`KernelSnap`]);
//! * the jammer's counters and adversary state
//!   ([`crate::jamming::Adversary::save_state`]).
//!
//! No RNG state: every draw the engine makes — jobs, classes, cohorts and
//! the jammer — is a counter-based position, a pure function of
//! `(key, slot, phase)` (DESIGN.md §3f), so the slot cursor is the only
//! position a resumed run needs.
//!
//! ## What a checkpoint does *not* capture
//!
//! The static run inputs — config, master seed, job specs, adversary
//! spec — are **not** serialized. A restore target
//! must be rebuilt from the same inputs (same constructors, same order);
//! the checkpoint carries a [`Checkpoint::fingerprint`] over those inputs
//! and [`crate::engine::Engine::restore`] refuses a mismatch. Probe sinks,
//! the slot trace among them, are also out of scope: snapshots are only
//! permitted on unprobed runs (observability buffers are unbounded and
//! belong to the run that made them).
//!
//! ## One encoding
//!
//! Every part of a checkpoint is serde-derived. The engine's own owners
//! are typed structs; protocol, class-driver and adversary state travels
//! as a [`serde::Value`] that the implementor derives from its own type
//! (typically `Some(self.to_value())`) and decodes with
//! `Deserialize::from_value` on restore. A state value is outside input
//! to the restore: it must re-check every invariant its constructor
//! asserts and refuse a malformed value with an error, which
//! [`crate::engine::Engine::restore`] reports as a
//! [`CheckpointError::Mismatch`]. Floats travel as JSON numbers, which
//! round-trip a finite `f64` exactly; a non-finite one prints as `null`,
//! so a float that may be non-finite travels as raw bits.

use crate::cohort::Cohort;
use crate::duty::DutySet;
use crate::metrics::{AccessCounts, JobOutcome, SlotCounts};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Version tag of the checkpoint wire format. Bump on any layout change;
/// [`crate::engine::Engine::restore`] rejects other versions.
pub const CHECKPOINT_VERSION: u32 = 4;

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
    /// Per-job outcomes so far (indexed by job id).
    pub outcomes: Vec<Option<JobOutcome>>,
    /// Per-job channel-access counters (indexed by job id).
    pub accesses: Vec<AccessCounts>,
    /// The active set, in engine order (`swap_remove` order is behavior:
    /// it fixes polling order and therefore RNG-free tie-breaks).
    pub active: Vec<u32>,
    /// The wake-queue calendar.
    pub parked: ParkedSnap,
    /// Per-job protocol state: `Some(state)` for jobs whose protocol is
    /// live at the boundary, `None` for pending/retired/aggregate-managed
    /// jobs (their protocols are rebuilt fresh or never consulted). A
    /// `null` state reads back from JSON as `None`: a protocol whose whole
    /// state is `null` has nothing to restore beyond its factory build.
    pub protocol_state: Vec<Option<Value>>,
    /// Duty groups and per-job duty bookkeeping, verbatim.
    pub duty: DutySet,
    /// Cohort aggregates (cohort fidelity), verbatim.
    pub cohorts: Vec<Cohort>,
    /// Phase-synchronized class aggregates (cohort fidelity).
    pub classes: Vec<ClassSnap>,
    /// The vectorized kernel's state (empty unless vectorized fidelity).
    pub kernel: KernelSnap,
    /// Jam attempts so far ([`crate::jamming::Jammer::attempted`]).
    pub jams_attempted: u64,
    /// Successful jams so far ([`crate::jamming::Jammer::succeeded`]).
    pub jams_succeeded: u64,
    /// The adversary's state ([`crate::jamming::Adversary::save_state`]).
    pub adversary: Value,
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
    /// The driver's state (carries the member set).
    pub state: Value,
}

/// The vectorized kernel's state. Lane keys and the derived counters are
/// not stored: a restore recomputes them from the engine's job table.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelSnap {
    /// Bernoulli buckets, in creation order (a lane's home names its
    /// bucket by index).
    pub buckets: Vec<BucketSnap>,
    /// The one-shot calendar: `(transmission slot, job)` in ascending
    /// order.
    pub shots: Vec<(u64, u32)>,
    /// Pending (undelivered, unexpired) one-shot members per deadline:
    /// `(deadline, count)` in ascending deadline order.
    pub shot_live: Vec<(u64, u64)>,
    /// Jobs homed in the calendar. A fired-but-collided one-shot has
    /// left `shots` yet stays pending (and homed) until its deadline.
    pub shot_homes: Vec<u32>,
}

/// One `(p, deadline)` bucket of constant-probability kernel lanes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketSnap {
    /// Raw bits of the shared per-slot probability (the bucket identity).
    pub p_bits: u64,
    /// Shared deadline.
    pub deadline: u64,
    /// Lane jobs, in lane order.
    pub jobs: Vec<u32>,
    /// Liveness bitmask: bit `i % 64` of word `i / 64` is lane `i`.
    pub alive: Vec<u64>,
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
    /// target, or a part of it is malformed or inconsistent; the string
    /// says which.
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
        let cohorts = set.save();
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
            protocol_state: vec![
                Some(vec![1u64, 2].to_value()),
                None,
                Some(Value::Bool(true)),
            ],
            duty,
            cohorts,
            classes: vec![ClassSnap {
                tag: 11,
                release: 0,
                deadline: 64,
                live: 3,
                opener: 5,
                state: vec![5u32, 6, 7].to_value(),
            }],
            kernel: KernelSnap {
                buckets: vec![BucketSnap {
                    p_bits: 0.25f64.to_bits(),
                    deadline: 64,
                    jobs: vec![0, 2],
                    alive: vec![0b10],
                }],
                shots: vec![(110, 1)],
                shot_live: vec![(128, 1)],
                shot_homes: vec![1],
            },
            jams_attempted: 12,
            jams_succeeded: 4,
            adversary: Value::Bool(true),
        };
        let json = serde_json::to_string(&ck).expect("serialize");
        let back: Checkpoint = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, ck);
    }
}
