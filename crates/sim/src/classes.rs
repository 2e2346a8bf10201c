//! Phase-synchronized aggregate classes — the million-job fidelity layer.
//!
//! [`crate::engine::CohortTx::Constant`] and [`crate::engine::CohortTx::OneShot`]
//! cover memoryless profiles: a cohort member never listens and never changes
//! its law in response to feedback, so the whole cohort is a single binomial
//! per slot. The paper's headline protocols (ALIGNED, PUNCTUAL) are *not*
//! memoryless — they advance through phases, elect leaders, and react to the
//! channel — but they are **phase-synchronized**: every member of a class
//! (same protocol parameters, same release, same deadline) occupies the same
//! protocol state in every slot, transmits with the same per-slot
//! probability, and updates that shared state from the same public feedback.
//! Members are exchangeable until the moment one of them is singled out.
//!
//! A [`ClassDriver`] exploits that: it simulates the *shared* state machine
//! once per class and replaces the per-member Bernoulli coins with one exact
//! `Binomial(m, p)` draw per slot ([`crate::rng::sample_binomial`]), so a
//! class of 10⁶ members costs the same per slot as a class of 10. Individual
//! members are **materialized** only at the boundaries where exchangeability
//! breaks:
//!
//! * a **lone win** — the channel needs a concrete `src` and payload;
//! * a **leader election** — the winner leaves the aggregate and becomes an
//!   ordinary exact-path job ([`ClassEvent::Eject`]);
//! * any other protocol-defined conversion that differentiates a member.
//!
//! ## Randomness and replayability
//!
//! Every class draws from [`crate::crng::CounterRng`] streams keyed on
//! `(class_seed, slot, phase)` where `class_seed` is derived from the trial
//! seed via [`crate::rng::StreamLabel::Class`] and the class's identity
//! `(tag, release, deadline)`. Construction of a counter RNG is free and the
//! stream depends only on the key and the slot number — never on scheduling
//! order — so aggregate runs are exactly replayable, as the vectorized
//! kernel's are.
//!
//! ## Fidelity contract
//!
//! Aggregate classes run under [`crate::engine::Fidelity::Cohort`] only and
//! promise **statistical** equivalence with the exact path (same success-law,
//! checked by Wilson-interval overlap in `tests/cohort_equivalence.rs`), not
//! bit identity: the class stream and the per-job streams are distinct RNG
//! domains. Under [`crate::engine::Fidelity::Vectorized`] class-profile jobs
//! take the exact per-job path so the kernel's bit-identity contract is
//! untouched.

use crate::checkpoint::{CheckpointError, ClassSnap};
use crate::engine::{JobCtx, Protocol};
use crate::job::{JobId, JobSpec};
use crate::message::Payload;
use crate::probe::ProbeEvent;
use crate::rng::{SeedSeq, StreamLabel};
use crate::slot::Feedback;

/// Class-level context handed to [`crate::engine::Protocol::class_driver`]
/// when the engine opens a new aggregate class.
///
/// Unlike [`crate::engine::JobCtx`] this speaks *global* time: the driver is
/// an engine-side aggregate, not a station, so it may know the release slot
/// outright. (A real station in the class knows the same information
/// relative to its own clock — all members share release and deadline, which
/// is exactly what makes the aggregation sound.)
#[derive(Debug, Clone, Copy)]
pub struct ClassCtx {
    /// Shared release slot of every member.
    pub release: u64,
    /// Shared deadline slot of every member (window is `[release, deadline)`).
    pub deadline: u64,
    /// Shared window size `deadline - release`.
    pub window: u64,
    /// The class's counter-RNG key (derived via
    /// [`crate::rng::StreamLabel::Class`]); feed it to
    /// [`crate::crng::CounterRng::new`] together with a slot and phase.
    pub class_seed: u64,
    /// True when some probe sink consumes protocol events: the driver should
    /// arm its event buffer. Observability only — must not affect decisions.
    pub probed: bool,
}

/// One slot's aggregate declaration from a class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassSlot {
    /// Number of members transmitting this slot (an exact binomial draw, or
    /// a deterministic count on broadcast-style steps).
    pub count: u64,
    /// The class's contribution to the slot's declared contention — the sum
    /// of the members' transmission probabilities (`m·p` on a sampled step,
    /// `m` on a deterministic one, `0` on a listen step).
    pub declared: f64,
}

/// A state change a class reports to the engine after seeing feedback.
pub enum ClassEvent {
    /// `member` leaves the aggregate and continues as an ordinary exact-path
    /// job driven by `protocol` (e.g. an elected leader). The protocol is
    /// constructed pre-synchronized: the engine starts polling it next slot
    /// with the member's usual local clock.
    Eject {
        /// The member being materialized out of the aggregate.
        member: JobId,
        /// Replacement per-job protocol, already synchronized to the class's
        /// shared state.
        protocol: Box<dyn Protocol>,
    },
}

/// The shared state machine of one aggregate class.
///
/// The engine drives every live class each slot:
///
/// 1. [`begin_slot`](ClassDriver::begin_slot) returns the class's transmitter
///    count (and declared contention) for this slot;
/// 2. iff the class turns out to be the slot's **sole transmitter globally**
///    (its count is 1 and nothing else transmitted),
///    [`materialize`](ClassDriver::materialize) names the member and payload
///    that go on the channel;
/// 3. [`end_slot`](ClassDriver::end_slot) sees the slot's public feedback —
///    exactly what a listening member would see — settles shared state, and
///    reports ejections. A delivered data payload is credited by the engine
///    itself (the materialized member's id is the slot's `src`), so drivers
///    only drop the member from their live set.
///
/// Drivers must derive all randomness from `CounterRng(class_seed, slot,
/// phase)` streams so runs replay exactly. The same-slot contract as for
/// protocols applies to probe events: emit only from slots the class
/// actually attended.
pub trait ClassDriver {
    /// Add one member. Called once per member at its activation slot; all
    /// members share the class's `(release, deadline)` by construction.
    fn admit(&mut self, member: JobId);

    /// Members still live in the aggregate (admitted, not delivered, not
    /// ejected, not given up).
    fn live(&self) -> usize;

    /// Open `slot`: decide the aggregate transmitter count.
    fn begin_slot(&mut self, slot: u64) -> ClassSlot;

    /// Name the single transmitting member and its payload. Called only when
    /// this class is the slot's sole transmitter globally; the returned id
    /// becomes the slot's `src`, so data payloads are delivered to the
    /// returned member by the generic engine path.
    fn materialize(&mut self, slot: u64) -> (JobId, Payload);

    /// Close `slot` with its resolved feedback; push state changes that need
    /// engine cooperation into `out`.
    fn end_slot(&mut self, slot: u64, fb: &Feedback, out: &mut Vec<ClassEvent>);

    /// Move buffered probe events into `out` (no-op when unprobed).
    fn drain_events(&mut self, out: &mut Vec<ProbeEvent>) {
        let _ = out;
    }

    /// Serialize the driver's *dynamic* state as a flat word blob for
    /// [`crate::checkpoint`]. Parameters fixed at construction must not be
    /// included — a restore rebuilds the driver through
    /// [`crate::engine::Protocol::class_driver`] and replays the blob over
    /// it. Returning `None` (the default) declares the driver
    /// non-checkpointable: a snapshot with such a class live fails.
    fn save_state(&self) -> Option<Vec<u64>> {
        None
    }

    /// Restore the state captured by [`ClassDriver::save_state`] onto a
    /// freshly constructed driver (before any `admit` calls beyond the
    /// opening one are replayed — the blob must carry the member set).
    /// Returns `false` (the default) when the driver cannot restore.
    fn restore_state(&mut self, _state: &[u64]) -> bool {
        false
    }
}

/// The per-seed stream index of class `(tag, release, deadline)` under
/// [`crate::rng::StreamLabel::Class`].
pub fn class_stream_index(tag: u64, release: u64, deadline: u64) -> u64 {
    tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ release.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ deadline.wrapping_mul(0x94d0_49bb_1331_11eb)
}

/// One live aggregate class inside the engine.
struct ClassEntry {
    /// Protocol-chosen discriminant (commits to protocol kind + parameters).
    tag: u64,
    /// Shared release slot.
    release: u64,
    /// Shared deadline slot.
    deadline: u64,
    /// Cached `driver.live()` from the end of the previous slot.
    live: usize,
    /// This slot's transmitter count (reset every slot).
    count: u64,
    /// The job that opened the class (supplied its driver via
    /// [`crate::engine::Protocol::class_driver`]). A checkpoint restore
    /// rebuilds the driver through the same opener.
    opener: u32,
    /// The shared state machine.
    driver: Box<dyn ClassDriver>,
}

/// The set of live aggregate classes: the [`Fidelity::Cohort`] owner of
/// phase-synchronized jobs, driven by the engine once per slot through
/// [`begin_slot`](Self::begin_slot), [`materialize`](Self::materialize),
/// [`settle`](Self::settle) and [`dissolve`](Self::dissolve).
///
/// [`Fidelity::Cohort`]: crate::engine::Fidelity::Cohort
#[derive(Default)]
pub(crate) struct ClassSet {
    entries: Vec<ClassEntry>,
    /// Total live members across all entries; the engine's liveness
    /// accounting (gap-skip gating, all-dead break, `live_jobs`).
    total: usize,
}

impl ClassSet {
    /// Drop all classes (trial-arena reset).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.total = 0;
    }

    /// Live members (the engine's liveness accounting).
    pub fn live(&self) -> usize {
        self.total
    }

    /// Ask `protocol` — the class's opening member, whose context is `ctx`
    /// — for the driver of class `(tag, release, deadline)`.
    fn open(
        protocol: &dyn Protocol,
        ctx: &JobCtx,
        seeds: &SeedSeq,
        tag: u64,
        release: u64,
        deadline: u64,
    ) -> Option<Box<dyn ClassDriver>> {
        let cctx = ClassCtx {
            release,
            deadline,
            window: deadline - release,
            class_seed: seeds.derive(
                StreamLabel::Class,
                class_stream_index(tag, release, deadline),
            ),
            probed: ctx.probed,
        };
        protocol.class_driver(ctx, &cctx)
    }

    /// Route the activating job `spec` (context `ctx`) into its class,
    /// opening the driver at first contact (see
    /// [`crate::engine::CohortTx::Class`]). Returns `false` when the
    /// protocol declines to supply a driver; the job then takes the exact
    /// per-job path.
    pub fn admit(
        &mut self,
        tag: u64,
        spec: &JobSpec,
        ctx: &JobCtx,
        protocol: &dyn Protocol,
        seeds: &SeedSeq,
    ) -> bool {
        // Same-slot admissions cluster at the back: scan newest-first.
        let (release, deadline) = (spec.release, spec.deadline);
        if let Some(entry) = self
            .entries
            .iter_mut()
            .rev()
            .find(|e| e.tag == tag && e.release == release && e.deadline == deadline)
        {
            entry.driver.admit(spec.id);
            entry.live += 1;
            self.total += 1;
            return true;
        }
        let Some(mut driver) = Self::open(protocol, ctx, seeds, tag, release, deadline) else {
            return false;
        };
        driver.admit(spec.id);
        self.entries.push(ClassEntry {
            tag,
            release,
            deadline,
            live: 1,
            count: 0,
            opener: spec.id,
            driver,
        });
        self.total += 1;
        true
    }

    /// Open `slot`: each class's shared state machine decides its
    /// transmitter count (one exact binomial on sampled steps, a
    /// deterministic count on broadcast steps, zero on listen steps). Adds
    /// the classes' declared contention to `declared` and returns the
    /// slot's class transmitter count.
    pub fn begin_slot(&mut self, slot: u64, declared: &mut f64) -> u64 {
        let mut n = 0;
        for entry in &mut self.entries {
            let decl = entry.driver.begin_slot(slot);
            entry.count = decl.count;
            n += decl.count;
            *declared += decl.declared;
        }
        n
    }

    /// A class holds the slot's only transmission: it names the member
    /// and payload that go on the channel, making the slot's `src`
    /// concrete.
    pub fn materialize(&mut self, slot: u64) -> (JobId, Payload) {
        self.entries
            .iter_mut()
            .find(|e| e.count == 1)
            .expect("a lone class transmission implies a class with count 1")
            .driver
            .materialize(slot)
    }

    /// Close `slot`: each driver observes the public feedback — exactly
    /// what a listening member sees — updates its shared state, and pushes
    /// state changes that materialize members (elected leaders leaving the
    /// aggregate as exact-path jobs) into `out`. A delivered member was
    /// already credited by the engine (it was the slot's `src`); its
    /// driver merely drops it from the live set.
    pub fn settle(&mut self, slot: u64, fb: &Feedback, out: &mut Vec<ClassEvent>) {
        for entry in &mut self.entries {
            entry.driver.end_slot(slot, fb, out);
            entry.count = 0;
            let live = entry.driver.live();
            self.total -= entry.live - live;
            entry.live = live;
        }
    }

    /// Move the drivers' buffered probe events into `out`, in insertion
    /// order (activation order — deterministic for an instance and seed).
    pub fn drain_events(&mut self, out: &mut Vec<ProbeEvent>) {
        for entry in &mut self.entries {
            entry.driver.drain_events(out);
        }
    }

    /// Classes dissolve after `slot` at their shared deadline or once every
    /// member delivered / ejected / gave up. Members still aggregated at
    /// the deadline settle to Missed in the engine's end-of-run sweep.
    pub fn dissolve(&mut self, slot: u64) {
        let mut c = 0;
        while c < self.entries.len() {
            let entry = &self.entries[c];
            if slot + 1 >= entry.deadline || entry.live == 0 {
                self.total -= entry.live;
                self.entries.swap_remove(c);
                continue;
            }
            c += 1;
        }
    }

    /// Capture every class for a checkpoint; fails when a driver has no
    /// state capture.
    pub fn save(&self) -> Result<Vec<ClassSnap>, CheckpointError> {
        self.entries
            .iter()
            .map(|e| {
                let state = e.driver.save_state().ok_or_else(|| {
                    CheckpointError::Unsupported(format!(
                        "class driver (tag {}) does not implement save_state",
                        e.tag
                    ))
                })?;
                Ok(ClassSnap {
                    tag: e.tag,
                    release: e.release,
                    deadline: e.deadline,
                    live: e.live as u64,
                    opener: e.opener,
                    state,
                })
            })
            .collect()
    }

    /// Rebuild saved classes: each driver is reopened through its opening
    /// job's protocol — exactly how the original run obtained it — and the
    /// captured dynamic state is replayed over it. `specs` and
    /// `protocols` are the run's job table columns; `aligned` is its
    /// aligned-clock setting.
    pub fn load(
        &mut self,
        snaps: &[ClassSnap],
        specs: &[JobSpec],
        protocols: &[Box<dyn Protocol>],
        seeds: &SeedSeq,
        aligned: bool,
    ) -> Result<(), CheckpointError> {
        let mismatch = |what: &str| Err(CheckpointError::Mismatch(what.into()));
        for c in snaps {
            let opener = c.opener as usize;
            let Some(spec) = specs.get(opener) else {
                return mismatch("class opener out of range");
            };
            if spec.release != c.release || spec.deadline != c.deadline {
                return mismatch("class opener window differs from the checkpoint");
            }
            let ctx = JobCtx::at(spec, spec.release, aligned, false);
            let opened = Self::open(
                protocols[opener].as_ref(),
                &ctx,
                seeds,
                c.tag,
                c.release,
                c.deadline,
            );
            let Some(mut driver) = opened else {
                return Err(CheckpointError::Unsupported(format!(
                    "job {opener} does not open a class driver for tag {}",
                    c.tag
                )));
            };
            if !driver.restore_state(&c.state) {
                return Err(CheckpointError::Unsupported(format!(
                    "class driver (tag {}) rejected its state blob",
                    c.tag
                )));
            }
            if driver.live() as u64 != c.live {
                return mismatch("restored class live count differs from the checkpoint");
            }
            self.total += c.live as usize;
            self.entries.push(ClassEntry {
                tag: c.tag,
                release: c.release,
                deadline: c.deadline,
                live: c.live as usize,
                count: 0,
                opener: c.opener,
                driver,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_index_separates_classes() {
        let mut seen = std::collections::HashSet::new();
        for tag in [1u64, 2, 0xdead_beef] {
            for release in [0u64, 64, 4096] {
                for deadline in [128u64, 8192, 1 << 20] {
                    assert!(seen.insert(class_stream_index(tag, release, deadline)));
                }
            }
        }
    }
}
