//! The slot-synchronized simulation engine.
//!
//! The engine owns a set of jobs, each driven by a [`Protocol`]
//! implementation, and advances the channel slot by slot: live jobs act,
//! the channel resolves silence / success / noise (the
//! [`crate::jamming::Jammer`] may add noise), and every listener hears the
//! slot's [`Feedback`]. The engine is the *only* component with a global
//! view; protocols are handed a [`JobCtx`] that deliberately omits the
//! global slot index unless [`EngineConfig::expose_aligned_clock`] is set
//! (valid only for the power-of-2-aligned special case of Section 3, where
//! window alignment makes a shared clock implicitly available).
//!
//! ## Owners and stages
//!
//! Each live job belongs to exactly one **owner**, chosen once, when it
//! activates: the exact per-job path (the active set and wake queue), a
//! `DutySet` group (periodic schedules, event-driven only), a
//! `CohortSet` cohort or a `ClassSet` class (under
//! [`Fidelity::Cohort`]), or the `SlotKernel` (under
//! [`Fidelity::Vectorized`]). An owner with no members contributes
//! nothing, so the slot loop is one fixed sequence of stages with no
//! fidelity switch:
//!
//! | stage | owner | reads | writes |
//! |---|---|---|---|
//! | expire | kernel | deadlines | kernel liveness |
//! | gap skip | all (liveness, next event) | releases, wake slots, duty pattern | slot cursor, silent counts, adversary |
//! | wake | wake queue, duty groups | due entries | active set; backstopped members leave their group |
//! | activate | cohorts, classes, kernel, active set | `cohort_tx`, `class_driver` | the job's owner |
//! | collect actions | active set, duty groups | `act`, `tx_probability` | transmitters, codes, standing and listen groups |
//! | aggregate draws | cohorts, classes, kernel | cohort stream, class and job counters | transmitter counts, kernel transmitters |
//! | resolve + account | cohorts, classes, jammer | all transmitters | lone winner, collision charges, slot counts, trace |
//! | deliver | kernel, cohorts | delivered data | outcomes, kernel lanes, cohort winner |
//! | feedback: active | active set, wake queue | feedback, `duty_cycle`, `next_wake` | protocol state; retire, park, or join a group |
//! | feedback: duty members | duty groups | feedback, `duty_cycle` | protocol state; regroup or retire |
//! | feedback: listen fan-out | duty groups | `duty_listen` of one representative | per-member feedback when not group-invariant |
//! | class settle | classes | feedback | class state; ejected members join the active set |
//! | probe drain | probe bus | protocol and driver events | bus |
//! | dissolve | cohorts, classes | deadlines | drops finished aggregates |
//!
//! ## Hot-path layout
//!
//! Job state is a struct-of-arrays job table: specs, protocol objects,
//! counter-RNG keys, outcomes, and access counters live in parallel
//! vectors indexed by job id. The per-slot loop walks an **active set** of
//! indices and retires or parks jobs by `swap_remove`, so retired and
//! not-yet-released jobs cost nothing per slot. The visiting *order* of the
//! active set is therefore arbitrary — which is sound because every
//! observable outcome depends only on per-job private RNG streams and the
//! slot's aggregate transmission count, never on the order jobs were polled
//! in.
//!
//! ## Trial arena
//!
//! Engines are reusable: [`Engine::reset`] returns a used engine to its
//! just-constructed state while keeping every internal allocation (job
//! table, wake queue, scratch buffers), and a dropped engine donates those
//! allocations to a thread-local pool that the next [`Engine::new`] on the
//! same thread drains. Monte-Carlo workers therefore allocate their
//! simulation state once per thread, not once per trial, with bit-identical
//! results (the reset contract is exactly "everything derived from the seed
//! and the jobs is cleared").

use crate::checkpoint::{Checkpoint, CheckpointError, Digest, CHECKPOINT_VERSION};
use crate::classes::{ClassCtx, ClassDriver, ClassEvent, ClassSet};
use crate::cohort::CohortSet;
use crate::crng::{CounterRng, Phase};
use crate::duty::DutySet;
use crate::jamming::{Adversary, Jammer, SlotView};
use crate::job::{JobId, JobSpec};
use crate::kernel::SlotKernel;
use crate::message::Payload;
use crate::metrics::{
    AccessCounts, ContentionStats, JamStats, JobOutcome, SchedStats, SimReport, SlotCounts,
};
use crate::probe::{ProbeBus, ProbeEvent, ProbeRecord, ProbeReport, ProbeSpec, VecSink};
use crate::rng::{SeedSeq, StreamLabel};
use crate::sched::WakeQueue;
use crate::slot::Feedback;
use crate::trace::{SlotOutcome, SlotRecord};
use rand::RngCore;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A job's decision for one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Broadcast `Payload` in this slot.
    Transmit(Payload),
    /// Stay quiet but observe the slot's feedback.
    Listen,
    /// Neither transmit nor observe (no feedback is delivered).
    Sleep,
}

/// The local context a protocol sees each slot.
///
/// Contains nothing a real station could not know: its own id (used only to
/// tag its data message), its window size, how many slots have elapsed since
/// its own activation, and — in the aligned special case only — the shared
/// clock.
#[derive(Debug, Clone, Copy)]
pub struct JobCtx {
    /// This job's id (for tagging its data payload).
    pub id: JobId,
    /// Window size `w` in slots.
    pub window: u64,
    /// Slots since activation: `0` in the release slot, `w - 1` in the last
    /// slot of the window.
    pub local_time: u64,
    /// The shared global clock, present only when the engine is configured
    /// for the power-of-2-aligned special case.
    pub aligned_time: Option<u64>,
    /// True when some probe sink consumes protocol events: the protocol
    /// should arm its [`crate::probe::EventBuf`] at activation. Purely an
    /// observability flag — it must never influence protocol decisions.
    pub probed: bool,
}

impl JobCtx {
    /// The context of job `spec` in global slot `slot` (at or after its
    /// release).
    pub(crate) fn at(spec: &JobSpec, slot: u64, aligned: bool, probed: bool) -> Self {
        Self {
            id: spec.id,
            window: spec.window(),
            local_time: slot - spec.release,
            aligned_time: aligned.then_some(slot),
            probed,
        }
    }

    /// Slots remaining in the window *including* the current slot.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.window - self.local_time
    }

    /// The aligned global clock; panics if the engine did not expose one.
    #[inline]
    pub fn aligned_now(&self) -> u64 {
        self.aligned_time
            .expect("protocol requires EngineConfig::expose_aligned_clock")
    }
}

/// A transmission profile a protocol can expose so the engine may simulate
/// the job in aggregate under [`Fidelity::Cohort`] or via the vectorized
/// kernel under [`Fidelity::Vectorized`].
///
/// The common contract: from activation until delivery or deadline the job
/// never listens, never finishes early ([`Protocol::is_done`] stays false
/// until delivery), and its transmissions follow the declared model
/// exactly (in distribution). Jobs with the same profile and deadline form
/// one cohort whose per-slot transmitter *count* is a single binomial draw
/// instead of one Bernoulli draw per job — so both models below are exact,
/// not approximations.
///
/// [`Fidelity::Vectorized`] additionally relies on a *bit-level draw
/// schedule*, because the kernel reproduces the exact path's draws
/// verbatim rather than resampling in aggregate:
///
/// - [`CohortTx::Constant`]: `act` consumes **exactly one** `gen_bool(p)`
///   per call and transmits iff it lands; `on_activate` and `on_feedback`
///   consume no randomness and have no observable effect.
/// - [`CohortTx::OneShot`]: `on_activate` consumes **exactly one**
///   `gen_range(0..window)` naming the local transmission slot; `act`
///   consumes nothing (transmit at the chosen slot, sleep otherwise);
///   `on_feedback` consumes no randomness and has no observable effect.
///
/// Under the counter-based RNG each of those draws is the *first word* of
/// a known `(job_key, slot, phase)` position, which is what lets the
/// kernel batch them (and anyone replay them — see
/// [`crate::crng::replay_bernoulli`] / [`crate::crng::replay_oneshot`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CohortTx {
    /// "Transmit the data message with probability `p` in every slot,
    /// independently" — the memoryless model (slotted ALOHA).
    Constant {
        /// Per-slot transmission probability, constant for the lifetime.
        p: f64,
    },
    /// "Transmit exactly once, in a slot chosen uniformly over the
    /// window" — UNIFORM `k = 1`'s one-shot draw. Simulated exactly via
    /// its sequential decomposition: a member that has not yet attempted
    /// transmits at slot `t` with hazard `1/(deadline − t)`, so the count
    /// is `Binomial(not-yet-attempted, 1/(deadline − t))` per slot.
    OneShot,
    /// A phase-synchronized aggregate class (ALIGNED, PUNCTUAL): jobs with
    /// the same `tag`, release, and deadline share one protocol state and
    /// advance as a [`crate::classes::ClassDriver`] supplied via
    /// [`Protocol::class_driver`]. `tag` must commit to the protocol kind
    /// and its parameters, so differently-configured populations never
    /// share a class. Cohort fidelity only; under [`Fidelity::Vectorized`]
    /// these jobs take the exact per-job path (the kernel's bit-identity
    /// contract does not cover class aggregates).
    Class {
        /// Protocol-chosen discriminant committing to kind + parameters.
        tag: u64,
    },
}

/// A periodic duty schedule (see [`Protocol::duty_cycle`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DutyCycle {
    /// Pattern length in slots (`0 < period ≤ 64`).
    pub period: u8,
    /// Positions (bit `i` = position `i`) needing a real `act()` call.
    pub wake_mask: u64,
    /// Positions with an unconditional, state-free transmission of
    /// `tx_payload`. Must be disjoint from `wake_mask`.
    pub tx_mask: u64,
    /// The payload broadcast at `tx_mask` positions. Never a data message.
    pub tx_payload: Payload,
    /// Positions where the job always listens, consumes no randomness, and
    /// — for the overwhelmingly common feedback — changes no state. Must be
    /// disjoint from both other masks. The engine resolves these positions
    /// per *group*: one representative member is asked, via
    /// [`Protocol::duty_listen`], whether the slot's feedback is
    /// group-invariant; only when it is not does every member get an
    /// individual `on_feedback` call. Per-member listen counters are
    /// settled lazily in closed form, like standing transmissions.
    pub listen_mask: u64,
    /// The *local* slot that is position 0 of the pattern.
    pub anchor_local: u64,
}

/// A contention-resolution protocol driving a single job.
///
/// One value of this trait is instantiated per job; all coordination happens
/// through the channel.
pub trait Protocol {
    /// Called once, in the job's release slot, before the first `act`.
    fn on_activate(&mut self, _ctx: &JobCtx, _rng: &mut dyn RngCore) {}

    /// Decide this slot's action.
    fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action;

    /// Observe the feedback for the slot just completed. Not called if the
    /// job slept or has been retired.
    fn on_feedback(&mut self, _ctx: &JobCtx, _fb: &Feedback, _rng: &mut dyn RngCore) {}

    /// True once the job will take no further useful action; the engine
    /// retires it early. (Delivery of the job's data message retires it
    /// automatically regardless.)
    fn is_done(&self) -> bool {
        false
    }

    /// The probability with which this protocol intended to transmit in the
    /// current slot, if it can report one. Used for measuring the paper's
    /// contention `C(t) = Σ_j p_j(t)`; purely diagnostic.
    fn tx_probability(&self, _ctx: &JobCtx) -> Option<f64> {
        None
    }

    /// Scheduling hint: the next *local* slot at which this job needs an
    /// `act()` call, given that the slot described by `ctx` just completed.
    ///
    /// Returning `Some(w)` with `w > ctx.local_time + 1` promises that for
    /// every local slot in `(ctx.local_time, w)` the protocol would have
    /// returned [`Action::Sleep`] *without drawing randomness or changing
    /// state*. Under [`Scheduling::EventDriven`] the engine then parks the
    /// job and skips those `act()` calls entirely — no ctx construction, no
    /// virtual dispatch — waking it at local slot `w` (possibly earlier,
    /// never later; hints past the window are clamped to its last slot, and
    /// `u64::MAX` means "never again"). Because the skipped calls are
    /// exactly the ones with no observable effect, results are bit-identical
    /// to dense polling.
    ///
    /// The default (`None`) opts out: the job is polled every slot, which is
    /// always correct (legacy behavior).
    fn next_wake(&self, _ctx: &JobCtx) -> Option<u64> {
        None
    }

    /// Stronger scheduling hint for protocols whose wake pattern is
    /// *periodic*: a duty cycle declares, relative to a protocol-chosen
    /// anchor, a repeating pattern of **wake positions** (slots needing a
    /// real `act()` call) and **standing-transmission positions** (slots
    /// where the protocol would deterministically transmit `tx_payload`
    /// with probability 1, drawing no randomness and changing no state, and
    /// where the slot's feedback would change no state either). Every other
    /// position promises [`Action::Sleep`] exactly as under
    /// [`Protocol::next_wake`].
    ///
    /// Under [`Scheduling::EventDriven`] the engine keeps such jobs in
    /// per-schedule **duty groups**: wake positions are visited by group
    /// membership with no wake-queue traffic, and standing positions are
    /// resolved in aggregate — the transmissions still occupy the channel
    /// (colliding, getting jammed, and being heard by listeners exactly as
    /// if `act` had run) while per-member transmission counters are settled
    /// lazily in closed form. Results stay bit-identical to dense polling.
    ///
    /// Contract: `0 < period ≤ 64`; the masks index positions
    /// `(local_time - anchor_local) % period` and must be disjoint;
    /// `tx_payload` must not be a data message; and a protocol that returns
    /// `Some` must keep returning `Some` until it is done (the schedule
    /// itself may change between calls) — for a registered job, returning
    /// `None` *is* the completion signal: the engine retires the job
    /// exactly as it would on [`Protocol::is_done`], which is not polled
    /// separately on this path. Takes precedence over `next_wake`; the
    /// default (`None`) opts out.
    fn duty_cycle(&self, _ctx: &JobCtx) -> Option<DutyCycle> {
        None
    }

    /// Group-invariance check for [`DutyCycle::listen_mask`] positions.
    ///
    /// Called on **one representative member** of a duty group whose
    /// pattern has a listen bit at the current position, after the slot
    /// resolved. Returning `true` asserts that *every* job registered under
    /// this member's duty schedule would, on observing `fb` at this
    /// position, neither change state nor emit probe events — so the engine
    /// skips the per-member `on_feedback` fan-out entirely (listen counters
    /// are settled lazily). Returning `false` (the default) makes the
    /// engine deliver `fb` to every member individually, which is always
    /// correct.
    ///
    /// The answer must be derivable from group-uniform information: the
    /// feedback itself plus state that the schedule key forces all members
    /// to share. A protocol whose members can disagree on the answer must
    /// not declare listen positions. The engine additionally forces the
    /// fan-out whenever `fb` delivers a member's own data message, so
    /// implementations need not handle that case.
    fn duty_listen(&self, _ctx: &JobCtx, _fb: &Feedback) -> bool {
        false
    }

    /// Aggregate-simulation hint: a constant per-slot transmission profile
    /// for this job, if its whole lifetime is statistically equivalent to
    /// one (see [`CohortTx`]). Consulted once, at the job's release slot,
    /// and only under [`Fidelity::Cohort`]; a cohort-managed job receives
    /// **no** protocol callbacks at all — the engine samples its behavior in
    /// aggregate. Protocols whose behavior depends on feedback, phase, or
    /// any evolving state must return `None` (the default), which keeps the
    /// job on the exact per-job path even in cohort mode.
    fn cohort_tx(&self, _ctx: &JobCtx) -> Option<CohortTx> {
        None
    }

    /// Open a phase-synchronized aggregate class (see
    /// [`CohortTx::Class`]). Called once per distinct `(tag, release,
    /// deadline)` class, at the first member's release slot, with that
    /// member's [`JobCtx`] and the class-level [`ClassCtx`] (global window
    /// bounds plus the class's counter-RNG seed). Subsequent members are
    /// [`ClassDriver::admit`]ted to the returned driver without further
    /// protocol callbacks. Returning `None` (the default) keeps the job on
    /// the exact per-job path.
    fn class_driver(&self, _ctx: &JobCtx, _cctx: &ClassCtx) -> Option<Box<dyn ClassDriver>> {
        None
    }

    /// Move any buffered [`ProbeEvent`]s into `out`. Called once per slot
    /// (after feedback delivery) for every polled job while a sink wants
    /// events; the engine stamps each event with the slot and job id.
    ///
    /// Protocols may emit only from slots they attend (`act`/`on_feedback`),
    /// so per-job event streams are identical across scheduling modes (see
    /// [`crate::probe`] for the full contract). The default is a no-op for
    /// protocols with nothing to report.
    fn drain_events(&mut self, _out: &mut Vec<ProbeEvent>) {}

    /// Serialize this protocol's *dynamic* state as a flat word blob for
    /// [`Engine::snapshot`]. Configuration fixed at construction (window
    /// sizes, probabilities, schedules) must not be included — a restore
    /// rebuilds the protocol through the same factory and then replays the
    /// blob over it. Returning `None` (the default) declares the protocol
    /// non-checkpointable: a snapshot taken while such a job is live on the
    /// exact path fails. See [`crate::checkpoint`] for the word-packing
    /// helpers ([`crate::checkpoint::StatePack`]).
    fn save_state(&self) -> Option<Vec<u64>> {
        None
    }

    /// Restore the dynamic state captured by [`Protocol::save_state`] onto a
    /// freshly constructed instance. Returns `false` (the default) when the
    /// protocol cannot restore — [`Engine::restore`] then fails.
    fn restore_state(&mut self, _state: &[u64]) -> bool {
        false
    }
}

/// How the engine visits live jobs each slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Scheduling {
    /// Park jobs whose protocol reports a [`Protocol::next_wake`] hint and
    /// skip their `act()` calls until the wake slot; stretches where *every*
    /// live job is parked are fast-forwarded in O(1). Protocols without
    /// hints are still polled densely, so this is safe for any mix.
    #[default]
    EventDriven,
    /// Poll every live job every slot (legacy behavior). Wake hints are
    /// never consulted; useful as the reference in equivalence tests.
    Dense,
}

/// How faithfully individual jobs are simulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Fidelity {
    /// Every job is simulated individually. Bit-exact and the default.
    #[default]
    Exact,
    /// Jobs whose protocol reports a [`Protocol::cohort_tx`] profile are
    /// grouped by `(probability, deadline)` and the *number* of transmitters
    /// each cohort contributes per slot is drawn from a binomial; an
    /// individual member is materialized only when it is the slot's sole
    /// transmitter. O(cohorts) per slot instead of O(jobs), which unlocks
    /// populations of 10⁵ and beyond. Results are statistically equivalent
    /// to [`Fidelity::Exact`] (same distributions), not bit-identical; jobs
    /// whose protocol returns `None` still take the exact path.
    Cohort,
    /// Jobs whose protocol reports a [`Protocol::cohort_tx`] profile are
    /// managed by the vectorized slot kernel: constant-probability jobs
    /// are probability-bucketed and drawn as wide batched Bernoulli
    /// passes over a liveness bitmask (64 lanes per word); one-shot jobs
    /// have their single transmission slot precomputed into a calendar.
    /// Because every draw is counter-based (`crate::crng`), the kernel
    /// is **bit-identical** to [`Fidelity::Exact`] — same outcomes, same
    /// counters, same trace tallies — while skipping per-job dispatch.
    /// Jobs whose protocol returns `None` still take the exact path.
    Vectorized,
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Hard cap on simulated slots (safety net against livelock). When
    /// `None`, the engine runs until the last deadline.
    pub max_slots: Option<u64>,
    /// Record a full [`SlotRecord`] trace (off for large Monte-Carlo runs).
    pub record_trace: bool,
    /// Expose the global slot index to protocols via
    /// [`JobCtx::aligned_time`]. Only legitimate for the aligned special
    /// case (Section 3); PUNCTUAL must run with this off.
    pub expose_aligned_clock: bool,
    /// How live jobs are visited each slot (see [`Scheduling`]).
    pub scheduling: Scheduling,
    /// How faithfully jobs are simulated (see [`Fidelity`]).
    pub fidelity: Fidelity,
    /// Probe sinks to attach (see [`crate::probe`]). `None` disables the
    /// probe layer entirely; with `record_trace` also off, the slot loop
    /// does no observability work beyond two branch checks.
    pub probe: Option<ProbeSpec>,
}

impl EngineConfig {
    /// Config for the aligned special case (shared clock exposed).
    pub fn aligned() -> Self {
        Self {
            expose_aligned_clock: true,
            ..Self::default()
        }
    }

    /// Enable trace recording.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Force dense polling (ignore wake hints).
    pub fn dense(mut self) -> Self {
        self.scheduling = Scheduling::Dense;
        self
    }

    /// Enable the cohort binomial fast path (see [`Fidelity::Cohort`]).
    pub fn cohort(mut self) -> Self {
        self.fidelity = Fidelity::Cohort;
        self
    }

    /// Attach probe sinks (see [`crate::probe`]).
    pub fn with_probe(mut self, spec: ProbeSpec) -> Self {
        self.probe = Some(spec);
        self
    }

    /// Enable the vectorized slot kernel (see [`Fidelity::Vectorized`]).
    pub fn vectorized(mut self) -> Self {
        self.fidelity = Fidelity::Vectorized;
        self
    }
}

/// Struct-of-arrays job storage, indexed by job id.
///
/// Splitting the old per-job struct into parallel vectors keeps the data
/// the per-slot loop actually touches (specs, outcomes) densely packed, and
/// lets the borrow checker hand out disjoint mutable borrows of a job's
/// protocol and RNG without runtime cost.
///
/// Since PR 6 jobs carry no RNG *stream* at all — only a 64-bit counter
/// key. Every protocol-visible draw comes from a stack-built
/// [`CounterRng`] positioned at `(key, slot, phase)`, so a draw is a pure
/// function of its position (see `crate::crng` and DESIGN.md §3f).
#[derive(Default)]
struct JobTable {
    specs: Vec<JobSpec>,
    protocols: Vec<Box<dyn Protocol>>,
    /// Per-job counter-RNG keys ([`SeedSeq::job_key`]).
    keys: Vec<u64>,
    outcomes: Vec<Option<JobOutcome>>,
    accesses: Vec<AccessCounts>,
}

impl JobTable {
    fn len(&self) -> usize {
        self.specs.len()
    }

    fn push(&mut self, spec: JobSpec, protocol: Box<dyn Protocol>, key: u64) {
        self.specs.push(spec);
        self.protocols.push(protocol);
        self.keys.push(key);
        self.outcomes.push(None);
        self.accesses.push(AccessCounts::default());
    }

    fn clear(&mut self) {
        self.specs.clear();
        self.protocols.clear();
        self.keys.clear();
        self.outcomes.clear();
        self.accesses.clear();
    }

    /// Settle job `idx` as missed unless it already has an outcome.
    fn retire(&mut self, idx: usize) {
        self.outcomes[idx].get_or_insert(JobOutcome::Missed);
    }
}

/// Per-slot working state, handed from stage to stage; the buffers are
/// reused across slots so the hot loop stays allocation-free.
#[derive(Default)]
struct SlotScratch {
    /// Indices (into the job table) of jobs that transmitted, with payloads.
    transmitters: Vec<(u32, Payload)>,
    /// Every job given an `act()` call this slot: the active set first
    /// (mirroring its order), then due duty-group members.
    polled: Vec<u32>,
    /// The action each polled job took (`CODE_*`), parallel to `polled`.
    codes: Vec<u8>,
    /// The ctx each polled job acted under, parallel to `polled`, so the
    /// fused feedback pass reuses it instead of rebuilding.
    ctxs: Vec<JobCtx>,
    /// Where duty members start in `polled` (the active set's length when
    /// actions were collected).
    duty_from: usize,
    /// Indices (into `DutySet::groups`) of groups with a listen bit at the
    /// current position, resolved per group after the slot's feedback.
    listen_groups: Vec<u32>,
    /// Standing duty transmissions this slot, and the lone one's
    /// `(job, payload)` when there is exactly one.
    standing: u64,
    standing_single: Option<(u32, Payload)>,
    /// Transmitter counts the cohorts and classes drew this slot.
    cohort_tx: u64,
    class_tx: u64,
    /// The slot's declared contention `C(t)` (diagnostic; meaningful only
    /// while some sink records slot traces).
    declared: f64,
    /// Polled indices in job-id order, for deterministic probe drains.
    probe_order: Vec<u32>,
    /// Job indices the vectorized kernel says transmit this slot.
    kernel_tx: Vec<u32>,
    /// Outbox for aggregate-class state changes settled after feedback.
    class_outbox: Vec<ClassEvent>,
}

impl SlotScratch {
    fn clear(&mut self) {
        self.transmitters.clear();
        self.polled.clear();
        self.codes.clear();
        self.ctxs.clear();
        self.listen_groups.clear();
        self.probe_order.clear();
        self.kernel_tx.clear();
        self.class_outbox.clear();
    }
}

/// Compact [`Action`] tags recorded during the act pass so the fused
/// feedback/retire/reschedule pass needs no second dispatch.
const CODE_SLEEP: u8 = 0;
const CODE_LISTEN: u8 = 1;
const CODE_TX: u8 = 2;

/// Thread-local pool of cleared engine internals, so Monte-Carlo workers
/// that build one engine per trial still reuse one set of allocations per
/// thread. Donation happens in [`Engine::drop`]; [`Engine::new`] drains it.
mod arena {
    use super::{JobTable, SlotScratch, WakeQueue};
    use crate::classes::ClassSet;
    use crate::cohort::CohortSet;
    use crate::duty::DutySet;
    use crate::kernel::SlotKernel;
    use crate::probe::ProbeEvent;
    use std::cell::{Cell, RefCell};

    /// The reusable allocations of a dead engine, already cleared.
    #[derive(Default)]
    pub(super) struct Carcass {
        pub jobs: JobTable,
        pub active: Vec<u32>,
        pub by_release: Vec<u32>,
        pub parked: WakeQueue,
        pub scratch: SlotScratch,
        pub event_scratch: Vec<ProbeEvent>,
        pub cohorts: CohortSet,
        pub classes: ClassSet,
        pub duty: DutySet,
        pub kernel: SlotKernel,
    }

    impl Carcass {
        pub fn clear(&mut self) {
            self.jobs.clear();
            self.active.clear();
            self.by_release.clear();
            self.parked.clear();
            self.scratch.clear();
            self.event_scratch.clear();
            self.cohorts.clear();
            self.classes.clear();
            self.duty.clear();
            self.kernel.clear();
        }
    }

    thread_local! {
        static POOL: RefCell<Option<Carcass>> = const { RefCell::new(None) };
        static REUSES: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn take() -> Option<Carcass> {
        let c = POOL.with(|p| p.borrow_mut().take());
        if c.is_some() {
            REUSES.with(|r| r.set(r.get() + 1));
        }
        c
    }

    pub(super) fn stash(c: Carcass) {
        POOL.with(|p| {
            let mut slot = p.borrow_mut();
            if slot.is_none() {
                *slot = Some(c);
            }
        });
    }

    pub(super) fn reuses() -> u64 {
        REUSES.with(|r| r.get())
    }
}

/// Process-lifetime total of channel slots executed by every engine run
/// (all threads, all trials). See [`slots_executed_total`].
static SLOTS_EXECUTED_TOTAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Total channel slots executed by all [`Engine::run`] calls in this
/// process so far — the process-wide view of the per-report
/// [`SimReport::slots_run`] counter. Monotone; never reset. This is how
/// an outside observer (e.g. the experiment server's cache tests) proves
/// that serving a result "from cache" really executed zero new slots.
pub fn slots_executed_total() -> u64 {
    SLOTS_EXECUTED_TOTAL.load(std::sync::atomic::Ordering::Relaxed)
}

/// Everything a run carries between slots, parked on the engine while it
/// is paused at a slot boundary (see [`Engine::run_to`]). `None` outside a
/// run; `Some` from `Engine::begin` until [`Engine::finish`] consumes it.
struct RunState {
    /// The run's slot cap (configured limit capped by the last deadline).
    max_slots: u64,
    /// Cursor into `by_release`: jobs before it have already activated.
    next_pending: usize,
    counts: SlotCounts,
    bus: ProbeBus,
    sched_stats: SchedStats,
    /// Running total of per-slot declared contention (diagnostic; only
    /// accumulated while some sink records slot traces).
    contention_sum: f64,
    jam_rng: ChaCha8Rng,
    /// The next slot boundary to execute.
    slot: u64,
    /// The slot this engine started executing at — 0 unless the run was
    /// [`Engine::restore`]d from a checkpoint. Exactly `slot - base_slot`
    /// slots were executed by *this* engine.
    base_slot: u64,
    /// Wall nanoseconds accumulated across `step_until` calls.
    engine_nanos: u64,
    /// The loop hit a terminal condition (horizon, cap, or all jobs dead);
    /// only the [`Engine::finish`] epilogue remains.
    done: bool,
    /// Job contexts carry the global clock
    /// ([`EngineConfig::expose_aligned_clock`]).
    aligned: bool,
    /// Some sink records slot traces: slots are recorded and declared
    /// contention is tallied.
    wants_slots: bool,
    /// Some sink consumes protocol events.
    probed: bool,
    /// The adversary can strike silent slots, so it draws randomness every
    /// slot and all-parked stretches cannot be skipped without
    /// desynchronizing (and silencing) it. Keyed off the `Adversary`
    /// trait's declaration, not any concrete policy; refreshed on every
    /// resume because a branched replay may swap the adversary at the
    /// pause boundary.
    strikes_idle: bool,
}

impl RunState {
    /// The context job `spec` acts under in the current slot.
    fn ctx(&self, spec: &JobSpec) -> JobCtx {
        JobCtx::at(spec, self.slot, self.aligned, self.probed)
    }
}

/// The simulation engine. See the [module docs](self) for the slot loop.
pub struct Engine {
    config: EngineConfig,
    seeds: SeedSeq,
    jammer: Jammer,
    jobs: JobTable,
    /// Job indices visited every slot; jobs leave by retirement or parking
    /// (`swap_remove`, so order is arbitrary — see the module docs).
    active: Vec<u32>,
    parked: WakeQueue,
    /// Job indices sorted by `(release, id)`; a cursor into this drives
    /// activation.
    by_release: Vec<u32>,
    scratch: SlotScratch,
    event_scratch: Vec<ProbeEvent>,
    /// Memoryless aggregates (see [`Fidelity::Cohort`]).
    cohorts: CohortSet,
    /// Phase-synchronized aggregate classes (see [`CohortTx::Class`]).
    classes: ClassSet,
    /// Duty groups (periodic-schedule jobs; see [`Protocol::duty_cycle`]).
    duty: DutySet,
    /// The vectorized slot kernel (empty unless fidelity is
    /// [`Fidelity::Vectorized`]; see [`crate::kernel`]).
    kernel: SlotKernel,
    /// Guards against a second `run` without a `reset` in between.
    ran: bool,
    /// The paused-run state (see [`RunState`]); `Some` while a run is in
    /// flight between `begin` and [`Engine::finish`].
    run_state: Option<RunState>,
}

impl Engine {
    /// Create an engine with the given configuration and master seed,
    /// reusing the current thread's pooled allocations if any (see the
    /// [module docs](self) on the trial arena; behavior is identical either
    /// way).
    pub fn new(config: EngineConfig, seed: u64) -> Self {
        Self::with_parts(config, seed, arena::take().unwrap_or_default())
    }

    /// Create an engine with freshly allocated internals, bypassing the
    /// thread-local pool. Behavior is identical to [`Engine::new`]; this
    /// exists so benchmarks and tests can measure or pin down the
    /// no-reuse path explicitly.
    pub fn fresh(config: EngineConfig, seed: u64) -> Self {
        Self::with_parts(config, seed, arena::Carcass::default())
    }

    fn with_parts(config: EngineConfig, seed: u64, parts: arena::Carcass) -> Self {
        Self {
            config,
            seeds: SeedSeq::new(seed),
            jammer: Jammer::none(),
            jobs: parts.jobs,
            active: parts.active,
            by_release: parts.by_release,
            parked: parts.parked,
            scratch: parts.scratch,
            event_scratch: parts.event_scratch,
            cohorts: parts.cohorts,
            classes: parts.classes,
            duty: parts.duty,
            kernel: parts.kernel,
            ran: false,
            run_state: None,
        }
    }

    /// Number of times `Engine::new` on this thread reused pooled
    /// allocations instead of allocating fresh ones (diagnostic).
    pub fn arena_reuses() -> u64 {
        arena::reuses()
    }

    /// Return the engine to its just-constructed state under a new master
    /// seed, keeping the configuration and every internal allocation.
    ///
    /// The reset contract (what bit-identity across reuse requires): all
    /// job state, the active set, the wake queue including its lifetime
    /// counters, all per-slot scratch, the aggregate owners, the jammer
    /// (back to [`Jammer::none`]; install the trial's adversary after the
    /// reset), and the seed sequence. Nothing else in the engine carries
    /// state between runs.
    pub fn reset(&mut self, seed: u64) {
        self.seeds = SeedSeq::new(seed);
        self.jammer = Jammer::none();
        self.jobs.clear();
        self.active.clear();
        self.by_release.clear();
        self.parked.clear();
        self.scratch.clear();
        self.event_scratch.clear();
        self.cohorts.clear();
        self.classes.clear();
        self.duty.clear();
        self.kernel.clear();
        self.ran = false;
        self.run_state = None;
    }

    /// Install a jamming adversary (default: none).
    pub fn set_jammer(&mut self, jammer: Jammer) {
        self.jammer = jammer;
    }

    /// Add a job. Jobs must be added with ids `0, 1, 2, …` in order; this
    /// keeps outcome lookup an index and catches instance-construction bugs.
    pub fn add_job(&mut self, spec: JobSpec, protocol: Box<dyn Protocol>) {
        assert_eq!(
            spec.id as usize,
            self.jobs.len(),
            "jobs must be added in id order"
        );
        let key = self.seeds.job_key(u64::from(spec.id));
        self.jobs.push(spec, protocol, key);
    }

    /// Add every job in `specs`, building each protocol with `factory`.
    pub fn add_jobs<F>(&mut self, specs: &[JobSpec], mut factory: F)
    where
        F: FnMut(&JobSpec) -> Box<dyn Protocol>,
    {
        for spec in specs {
            let protocol = factory(spec);
            self.add_job(*spec, protocol);
        }
    }

    /// Number of jobs registered.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Run the simulation to completion and return the report.
    ///
    /// Runs once per [`Engine::reset`] (or construction): the jobs are
    /// consumed by the run, so a second call without a reset panics.
    pub fn run(&mut self) -> SimReport {
        if self.run_state.is_none() {
            self.begin();
        }
        self.finish()
    }

    /// Advance the run to the first slot boundary at or after `pause_at`
    /// (beginning the run on first call) and return the slot paused at.
    ///
    /// The target is *soft*: an O(1) gap skip may overshoot it, and the
    /// boundary check happens only between slots, so the landing slot
    /// executes in full — both exactly as an uninterrupted run would.
    /// A paused engine is what [`Engine::snapshot`] captures; resume with
    /// another `run_to` or [`Engine::finish`]. When the run's natural end
    /// (horizon, cap, or all jobs dead) arrives first, the returned slot
    /// is that end and only the [`Engine::finish`] epilogue remains.
    pub fn run_to(&mut self, pause_at: u64) -> u64 {
        if self.run_state.is_none() {
            self.begin();
        }
        self.step_until(pause_at);
        self.run_state
            .as_ref()
            .expect("step_until preserves run state")
            .slot
    }

    /// Prologue of a run: consume the job set, prepare the owners, and
    /// build the slot loop's carried state, paused before slot 0.
    fn begin(&mut self) {
        assert!(
            !self.ran,
            "Engine::run called twice; call Engine::reset between runs"
        );
        self.ran = true;
        let horizon = self
            .jobs
            .specs
            .iter()
            .map(|s| s.deadline)
            .max()
            .unwrap_or(0);
        // Running past the last deadline is pointless (all jobs retired), so
        // the horizon caps the configured limit rather than the reverse.
        let max_slots = match self.config.max_slots {
            Some(cap) => cap.min(horizon),
            None => horizon,
        };

        // Activation order: job indices sorted by release slot (id breaks
        // ties, and ids equal indices, so the unstable sort is total).
        self.by_release.clear();
        self.by_release.extend(0..self.jobs.len() as u32);
        let specs = &self.jobs.specs;
        self.by_release
            .sort_unstable_by_key(|&i| (specs[i as usize].release, i));

        self.active.clear();
        self.scratch.clear();
        self.kernel.prepare(self.jobs.len());
        // Cohort draws come from their own stream so the exact path's
        // per-job streams stay untouched by the fidelity.
        self.cohorts.prepare(
            (self.config.fidelity == Fidelity::Cohort)
                .then(|| self.seeds.rng(StreamLabel::Cohort, 0)),
        );
        self.duty.prepare(self.jobs.len());
        // All observability flows through the probe bus. The legacy
        // `record_trace` flag is a `VecSink` attached first, so its output
        // is bit-identical to the old unconditional trace Vec.
        let mut bus = ProbeBus::new();
        if self.config.record_trace {
            bus.push(Box::new(VecSink::new()));
        }
        if let Some(spec) = &self.config.probe {
            for sink in &spec.sinks {
                bus.push(sink.build());
            }
        }

        self.run_state = Some(RunState {
            max_slots,
            next_pending: 0,
            counts: SlotCounts::default(),
            wants_slots: bus.wants_slots(),
            probed: bus.wants_events(),
            bus,
            sched_stats: SchedStats::default(),
            contention_sum: 0.0,
            jam_rng: self.seeds.rng(StreamLabel::Jammer, 0),
            slot: 0,
            base_slot: 0,
            engine_nanos: 0,
            done: false,
            aligned: self.config.expose_aligned_clock,
            strikes_idle: false,
        });
    }

    /// Execute slots until the first boundary at or after `pause_at`, or
    /// the run's natural end, whichever comes first. Each slot is the
    /// fixed sequence of stages in the [module docs](self).
    fn step_until(&mut self, pause_at: u64) {
        let mut st = self.run_state.take().expect("step_until requires begin");
        if st.done {
            self.run_state = Some(st);
            return;
        }
        let started = std::time::Instant::now();
        st.strikes_idle = self.jammer.strikes_idle();
        let mut paused = false;
        while st.slot < st.max_slots {
            if st.slot >= pause_at {
                paused = true;
                break;
            }
            // Retire kernel state whose deadline arrived (outcomes settle
            // to Missed in the end-of-run sweep, as on the exact path).
            self.kernel.expire(st.slot);
            if self.all_dead(&st) || !self.skip_gap(&mut st) {
                break;
            }
            self.wake(st.slot);
            self.activate(&mut st);
            self.collect_actions(&st);
            self.draw_aggregates(&st);
            let (feedback, delivered) = self.resolve(&mut st);
            self.deliver(st.slot, delivered);
            self.feedback_active(&st, &feedback);
            self.feedback_duty(&st, &feedback);
            self.fan_out_listens(&st, &feedback);
            self.settle_classes(st.slot, &feedback);
            if st.probed {
                self.drain_probes(&mut st);
            }
            self.cohorts.dissolve(st.slot);
            self.classes.dissolve(st.slot);
            st.slot += 1;
        }
        st.engine_nanos += started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        // A natural exit (horizon, cap, or the all-dead break) means only
        // the epilogue remains; a pause leaves the loop resumable.
        st.done = !paused;
        self.run_state = Some(st);
    }

    /// Parked entries that stand for live jobs: stale duty backstops
    /// (their job already retired) don't count.
    fn parked_live(&self) -> u64 {
        self.parked.len() as u64 - self.duty.dead_backstops
    }

    /// Nothing live and nothing pending: the channel is idle forever.
    fn all_dead(&self, st: &RunState) -> bool {
        self.active.is_empty()
            && self.parked_live() == 0
            && self.cohorts.live() == 0
            && self.classes.live() == 0
            && self.kernel.pending() == 0
            && st.next_pending == self.by_release.len()
    }

    /// Fast-forward through stretches where no job needs polling: idle
    /// gaps between arrival bursts, and stretches where every live job is
    /// parked. The skipped slots really are silent, so they stay accounted
    /// (and traced, when tracing, as a single run-length record):
    /// `counts.total()` always equals the number of slots the run covered.
    /// Live cohorts, classes, and Bernoulli lanes block the skip — they
    /// draw randomness (and can transmit) every slot. Returns `false` when
    /// the skip lands on the run's cap.
    fn skip_gap(&mut self, st: &mut RunState) -> bool {
        if !self.active.is_empty()
            || self.cohorts.live() > 0
            || self.classes.live() > 0
            || self.kernel.bern_live() > 0
            || (st.strikes_idle && (self.parked_live() > 0 || self.kernel.pending() > 0))
        {
            return true;
        }
        let mut next_event = u64::MAX;
        if let Some(&idx) = self.by_release.get(st.next_pending) {
            next_event = self.jobs.specs[idx as usize].release;
        }
        // A pending (fired-but-undelivered) one-shot holds the run open to
        // its deadline, exactly as the exact path's parked job does; the
        // skip must land there, not at the horizon.
        for wake in [
            self.parked.next_wake(),
            self.kernel.next_tx(),
            self.kernel.next_expiry(),
        ]
        .into_iter()
        .flatten()
        {
            next_event = next_event.min(wake);
        }
        if self.duty.total > 0 {
            // Duty groups break the gap at their next wake, standing
            // transmission, or listen slot (which may be this one,
            // suppressing the skip).
            next_event = next_event.min(self.duty.next_event(st.slot));
        }
        if next_event <= st.slot {
            return true;
        }
        let until = next_event.min(st.max_slots);
        let gap = until - st.slot;
        st.counts.silent += gap;
        st.sched_stats.gap_skips += 1;
        st.sched_stats.gap_slots += gap;
        // Stateful adversaries observe the skipped silence in bulk
        // (contract: identical to per-slot rejections).
        self.jammer.on_silent_gap(gap);
        if st.wants_slots {
            st.bus.on_slot(&SlotRecord {
                slot: st.slot,
                outcome: if gap == 1 {
                    SlotOutcome::Silent
                } else {
                    SlotOutcome::SilentGap { len: gap }
                },
                live_jobs: (self.parked_live() + self.kernel.pending() as u64) as u32,
                declared_contention: 0.0,
                payload: None,
            });
        }
        if st.probed {
            for event in [
                ProbeEvent::GapSkip { len: gap },
                ProbeEvent::WakeQueueStats {
                    parked: self.parked.len() as u32,
                },
            ] {
                st.bus.on_event(&ProbeRecord {
                    slot: st.slot,
                    job: None,
                    event,
                });
            }
        }
        st.slot = until;
        until < st.max_slots
    }

    /// Wake parked jobs whose slot arrived. Entries for jobs in the duty
    /// layer are deadline backstops: a live member leaves the layer here
    /// (settling its standing-transmission count) and runs its final
    /// stretch as a plain active job; a member that retired early left a
    /// stale entry, discarded on arrival.
    fn wake(&mut self, slot: u64) {
        let mut i = self.active.len();
        self.parked.pop_due(slot, &mut self.active);
        if self.duty.total == 0 && self.duty.dead_backstops == 0 {
            return;
        }
        while i < self.active.len() {
            let idx = self.active[i] as usize;
            if self.jobs.outcomes[idx].is_some() {
                self.duty.dead_backstops -= 1;
                self.active.swap_remove(i);
                continue;
            }
            self.duty.leave(idx, slot, &mut self.jobs.accesses[idx], 0);
            i += 1;
        }
    }

    /// Activate arrivals. Fidelity is matched here, once per job: an
    /// aggregate-eligible profile ([`Protocol::cohort_tx`]) hands the job
    /// to the owner that simulates it from now on — a cohort or class
    /// under [`Fidelity::Cohort`], the kernel under
    /// [`Fidelity::Vectorized`] — and such a job is never polled or called
    /// back again. Everything else activates on the exact per-job path.
    fn activate(&mut self, st: &mut RunState) {
        let fidelity = self.config.fidelity;
        while let Some(&idx) = self.by_release.get(st.next_pending) {
            let idx = idx as usize;
            let spec = self.jobs.specs[idx];
            if spec.release != st.slot {
                break;
            }
            st.next_pending += 1;
            let ctx = st.ctx(&spec);
            let protocol = &self.jobs.protocols[idx];
            let key = self.jobs.keys[idx];
            let profile = match fidelity {
                Fidelity::Exact => None,
                _ => protocol.cohort_tx(&ctx),
            };
            let routed = match (fidelity, profile) {
                // A protocol that declines to supply a class driver falls
                // through to the exact path.
                (Fidelity::Cohort, Some(CohortTx::Class { tag })) => {
                    self.classes
                        .admit(tag, &spec, &ctx, protocol.as_ref(), &self.seeds)
                }
                (Fidelity::Cohort, Some(profile)) => {
                    self.cohorts.insert(profile, spec.deadline, idx as u32);
                    true
                }
                // The profile's bit-level draw schedule (see [`CohortTx`])
                // lets the kernel make the job's draws itself —
                // unobservably, since such protocols have no observable
                // callback effects.
                (Fidelity::Vectorized, Some(CohortTx::Constant { p })) => {
                    self.kernel.insert_bern(idx as u32, key, p, spec.deadline);
                    true
                }
                (Fidelity::Vectorized, Some(CohortTx::OneShot)) => {
                    let (release, window) = (spec.release, spec.window());
                    self.kernel
                        .insert_shot(idx as u32, key, release, window, spec.deadline);
                    true
                }
                // Class aggregates are a cohort-fidelity construct: the
                // kernel's bit-identity contract does not cover them.
                _ => false,
            };
            if !routed {
                let mut rng = CounterRng::new(key, st.slot, Phase::Activate);
                self.jobs.protocols[idx].on_activate(&ctx, &mut rng);
                self.active.push(idx as u32);
            }
        }
    }

    /// Collect actions. The polled set is the active set (in order) plus
    /// the members of every duty group with a wake bit at this slot's
    /// position; duty groups with a *tx* bit here contribute standing
    /// transmissions in aggregate instead, and groups with a listen bit
    /// are noted for [`Engine::fan_out_listens`]. `tx_probability` is
    /// purely diagnostic, so its virtual call is skipped when no trace
    /// records it.
    fn collect_actions(&mut self, st: &RunState) {
        let (slot, recording) = (st.slot, st.wants_slots);
        let sc = &mut self.scratch;
        sc.clear();
        sc.polled.extend_from_slice(&self.active);
        sc.duty_from = self.active.len();
        sc.declared = 0.0;
        sc.standing = 0;
        sc.standing_single = None;
        let mut memo = (0, 0);
        for (gi, g) in self.duty.groups.iter().enumerate() {
            if g.members.is_empty() {
                continue;
            }
            let pos = g.position(slot, &mut memo);
            if g.wake_mask >> pos & 1 != 0 {
                sc.polled.extend_from_slice(&g.members);
            }
            if g.listen_mask >> pos & 1 != 0 {
                sc.listen_groups.push(gi as u32);
            }
            if g.tx_mask >> pos & 1 != 0 {
                sc.standing += g.members.len() as u64;
                sc.standing_single = (sc.standing == 1).then(|| (g.members[0], g.payload));
                // Standing slots transmit with probability 1.
                sc.declared += g.members.len() as f64;
            }
        }
        for k in 0..sc.polled.len() {
            let idx = sc.polled[k] as usize;
            let ctx = st.ctx(&self.jobs.specs[idx]);
            sc.ctxs.push(ctx);
            let mut rng = CounterRng::new(self.jobs.keys[idx], slot, Phase::Act);
            let protocol = &mut self.jobs.protocols[idx];
            let action = protocol.act(&ctx, &mut rng);
            let declared = if recording {
                protocol.tx_probability(&ctx)
            } else {
                None
            };
            let (code, default_p) = match action {
                Action::Transmit(payload) => {
                    self.jobs.accesses[idx].transmissions += 1;
                    sc.transmitters.push((idx as u32, payload));
                    // Transmitters also observe the slot (they learn
                    // whether their own broadcast succeeded).
                    (CODE_TX, 1.0)
                }
                Action::Listen => {
                    self.jobs.accesses[idx].listens += 1;
                    (CODE_LISTEN, 0.0)
                }
                Action::Sleep => (CODE_SLEEP, 0.0),
            };
            sc.codes.push(code);
            if recording {
                sc.declared += declared.unwrap_or(default_p);
            }
        }
    }

    /// Aggregate draws: each owner's transmitter count for this slot.
    /// Cohort and class members stay anonymous unless the slot resolves to
    /// a single transmission; kernel transmitters join the slot exactly as
    /// an exact-path [`Action::Transmit`] would (the draws are
    /// bit-identical; see [`crate::kernel`]), but are never polled, so
    /// they take no feedback and appear in no `codes`.
    fn draw_aggregates(&mut self, st: &RunState) {
        let sc = &mut self.scratch;
        sc.cohort_tx = self.cohorts.draw(st.slot, &mut sc.declared);
        sc.class_tx = self.classes.begin_slot(st.slot, &mut sc.declared);
        self.kernel.collect(st.slot, &mut sc.kernel_tx);
        for &idx in &sc.kernel_tx {
            self.jobs.accesses[idx as usize].transmissions += 1;
            let id = self.jobs.specs[idx as usize].id;
            sc.transmitters.push((idx, Payload::Data(id)));
        }
        if st.wants_slots {
            // Bucketed jobs declare `p` whether they transmit or sleep;
            // one-shots declare nothing while pending (the exact path's
            // parked jobs are not polled either).
            sc.declared += self.kernel.declared();
        }
    }

    /// Resolve the channel, give the adversary its shot, and account the
    /// slot. A lone aggregate transmission first materializes its member
    /// (so the slot's `src` is concrete); a collision charges the cohorts'
    /// counts to distinct members. Returns the slot's feedback and the job
    /// whose data message it delivered, if any.
    fn resolve(&mut self, st: &mut RunState) -> (Feedback, Option<JobId>) {
        let sc = &self.scratch;
        let n_tx = sc.transmitters.len() + (sc.standing + sc.cohort_tx + sc.class_tx) as usize;
        let view = match n_tx {
            0 => SlotView::Silent,
            1 => {
                // A lone standing duty broadcast is covered by its member's
                // lazy accounting; a lone aggregate member is charged here.
                let (idx, payload) = match (sc.transmitters.first(), sc.standing_single) {
                    (Some(&tx), _) => tx,
                    (None, Some(standing)) => standing,
                    (None, None) => {
                        let (member, payload) = if sc.class_tx == 1 {
                            self.classes.materialize(st.slot)
                        } else {
                            let member = self.cohorts.materialize();
                            (member, Payload::Data(self.jobs.specs[member as usize].id))
                        };
                        self.jobs.accesses[member as usize].transmissions += 1;
                        (member, payload)
                    }
                };
                SlotView::Single {
                    src: self.jobs.specs[idx as usize].id,
                    payload,
                }
            }
            _ => {
                self.cohorts.charge(&mut self.jobs.accesses);
                SlotView::Collision { n_tx }
            }
        };
        let jammed = self.jammer.jams(view, &mut st.jam_rng);
        let feedback = match view {
            _ if jammed => Feedback::Noise,
            SlotView::Silent => Feedback::Silent,
            SlotView::Single { src, payload } => Feedback::Success { src, payload },
            SlotView::Collision { .. } => Feedback::Noise,
        };
        let delivered = match feedback {
            Feedback::Success { payload, .. } => payload.data_owner(),
            _ => None,
        };
        match feedback {
            _ if jammed => st.counts.jammed += 1,
            Feedback::Silent => st.counts.silent += 1,
            Feedback::Success { .. } => st.counts.success += 1,
            Feedback::Noise => st.counts.collision += 1,
        }
        st.counts.data_success += u64::from(delivered.is_some());

        if st.wants_slots {
            let outcome = match view {
                _ if jammed => SlotOutcome::Jammed { n_tx: n_tx as u32 },
                SlotView::Silent => SlotOutcome::Silent,
                SlotView::Single { src, payload } => SlotOutcome::Success {
                    src,
                    was_data: payload.is_data(),
                },
                SlotView::Collision { n_tx } => SlotOutcome::Collision { n_tx: n_tx as u32 },
            };
            st.bus.on_slot(&SlotRecord {
                slot: st.slot,
                outcome,
                // Duty members are counted through their deadline
                // backstops in the wake queue (exactly one per member);
                // stale backstops of retired members are discounted.
                live_jobs: (self.active.len() as u64
                    + self.parked_live()
                    + (self.cohorts.live() + self.classes.live() + self.kernel.pending()) as u64)
                    as u32,
                declared_contention: self.scratch.declared,
                payload: feedback.payload().copied(),
            });
            st.contention_sum += self.scratch.declared;
        }
        (feedback, delivered)
    }

    /// Record a delivery: the first one inside the window wins (protocols
    /// never transmit data outside their window — the engine retires them
    /// at the deadline — so `slot` is necessarily inside it). A delivered
    /// kernel job leaves the kernel, and a materialized cohort winner
    /// leaves its cohort when delivered or spends its attempt when jammed.
    fn deliver(&mut self, slot: u64, delivered: Option<JobId>) {
        if let Some(owner) = delivered {
            let owner = owner as usize;
            self.jobs.outcomes[owner].get_or_insert(JobOutcome::Success { slot });
            self.kernel
                .on_delivery(owner, self.jobs.specs[owner].deadline);
        }
        self.cohorts.settle(delivered.is_some());
    }

    /// Feedback for the active part of the polled set, fused with
    /// retirement and rescheduling: the job hears the slot (unless it
    /// slept), retires when delivered, done, or out of window, and
    /// otherwise may leave for a duty group or park until its wake hint.
    /// `polled[..duty_from]` mirrors `active`, and removals keep `codes`
    /// and `ctxs` aligned by mirroring the swap.
    fn feedback_active(&mut self, st: &RunState, fb: &Feedback) {
        let slot = st.slot;
        let event_driven = self.config.scheduling == Scheduling::EventDriven;
        let mut k = 0;
        while k < self.active.len() {
            let idx = self.active[k] as usize;
            let spec = self.jobs.specs[idx];
            let ctx = self.scratch.ctxs[k];
            if self.scratch.codes[k] != CODE_SLEEP {
                let mut rng = CounterRng::new(self.jobs.keys[idx], slot, Phase::Feedback);
                self.jobs.protocols[idx].on_feedback(&ctx, fb, &mut rng);
            }
            let protocol = &self.jobs.protocols[idx];
            let leaves = if self.jobs.outcomes[idx].is_some()
                || protocol.is_done()
                || slot + 1 >= spec.deadline
            {
                self.jobs.retire(idx);
                true
            } else if !event_driven {
                false
            } else if let Some(dc) = protocol.duty_cycle(&ctx) {
                self.duty.register(idx, &dc, spec.release, slot);
                if !self.duty.backstopped[idx] {
                    self.duty.backstopped[idx] = true;
                    // One wake-queue entry per job for its whole duty-layer
                    // life: a deadline backstop that both retires it on time
                    // and keeps it in live-job accounting.
                    self.parked.push(spec.deadline - 1, idx as u32);
                }
                true
            } else {
                // Clamp into the window so the job is awake for its last
                // slot and retires through the normal deadline check,
                // exactly as under dense polling.
                let wake = protocol
                    .next_wake(&ctx)
                    .map(|w| spec.release.saturating_add(w).min(spec.deadline - 1));
                match wake {
                    Some(wake) if wake > slot + 1 => {
                        self.parked.push(wake, idx as u32);
                        true
                    }
                    _ => false,
                }
            };
            if leaves {
                let last = self.active.len() - 1;
                self.active.swap_remove(k);
                self.scratch.codes.swap(k, last);
                self.scratch.ctxs.swap(k, last);
            } else {
                k += 1;
            }
        }
    }

    /// Feedback for the duty members polled this slot, then retirement or
    /// a schedule re-query (see [`Engine::requery`]). A retired member's
    /// backstop stays behind in the wake queue.
    fn feedback_duty(&mut self, st: &RunState, fb: &Feedback) {
        for v in self.scratch.duty_from..self.scratch.polled.len() {
            let idx = self.scratch.polled[v] as usize;
            let ctx = self.scratch.ctxs[v];
            if self.scratch.codes[v] != CODE_SLEEP {
                let mut rng = CounterRng::new(self.jobs.keys[idx], st.slot, Phase::Feedback);
                self.jobs.protocols[idx].on_feedback(&ctx, fb, &mut rng);
            }
            self.requery(idx, &ctx, st.slot, 0);
        }
    }

    /// Listen groups: one representative decides whether this slot's
    /// feedback is group-invariant. If it is, nothing happens per member
    /// (listen counters are settled lazily when members leave); if not,
    /// every member observes the feedback individually — the
    /// always-correct fallback. A slot that delivered a member's own data
    /// forces the fallback so `duty_listen` implementations never reason
    /// about delivery. Members registered during this slot's feedback
    /// passes (`reg_slot == slot + 1`) already observed the slot on the
    /// path that brought them here: they are skipped and cannot represent
    /// the group.
    fn fan_out_listens(&mut self, st: &RunState, fb: &Feedback) {
        let slot = st.slot;
        for li in 0..self.scratch.listen_groups.len() {
            let gi = self.scratch.listen_groups[li] as usize;
            let members = &self.duty.groups[gi].members;
            let forced = match fb {
                Feedback::Success { src, payload } if payload.is_data() => {
                    let owner = payload.data_owner().unwrap_or(*src);
                    self.duty
                        .where_of
                        .get(owner as usize)
                        .is_some_and(|&(g1, p)| {
                            g1 as usize == gi + 1 && members.get(p as usize) == Some(&owner)
                        })
                }
                _ => false,
            };
            if !forced {
                let reg_slot = &self.duty.reg_slot;
                let Some(&rep) = members.iter().find(|&&m| reg_slot[m as usize] <= slot) else {
                    continue;
                };
                let ctx = st.ctx(&self.jobs.specs[rep as usize]);
                if self.jobs.protocols[rep as usize].duty_listen(&ctx, fb) {
                    continue;
                }
            }
            let mut m = 0;
            while let Some(&idx) = self.duty.groups[gi].members.get(m) {
                let idx = idx as usize;
                if self.duty.reg_slot[idx] > slot {
                    m += 1;
                    continue;
                }
                let ctx = st.ctx(&self.jobs.specs[idx]);
                let mut rng = CounterRng::new(self.jobs.keys[idx], slot, Phase::Feedback);
                self.jobs.protocols[idx].on_feedback(&ctx, fb, &mut rng);
                if st.probed {
                    // The drain pass walks the polled snapshot; fanned-out
                    // listeners may have emitted events too.
                    self.scratch.polled.push(idx as u32);
                }
                // A member that left its group was replaced at `m` by
                // `swap_remove`: revisit the same index.
                if self.requery(idx, &ctx, slot, 1) {
                    m += 1;
                }
            }
        }
    }

    /// Duty member `idx` observed the slot under `ctx`: retire it on
    /// delivery or at its deadline, else re-query its schedule. An
    /// unchanged schedule keeps its place, a changed one moves it to
    /// another group, and `None` — the completion signal (see
    /// [`Protocol::duty_cycle`]) — retires it. `attended` counts a fan-out
    /// listen the lazy settle does not cover. Returns `true` when the
    /// member kept its place in its group.
    fn requery(&mut self, idx: usize, ctx: &JobCtx, slot: u64, attended: u64) -> bool {
        let spec = self.jobs.specs[idx];
        let dc = if self.jobs.outcomes[idx].is_some() || slot + 1 >= spec.deadline {
            None
        } else {
            self.jobs.protocols[idx].duty_cycle(ctx)
        };
        match dc {
            // Unchanged schedule (the overwhelmingly common case): one
            // struct compare, no division.
            Some(dc) if self.duty.reg_dc[idx] == Some(dc) => true,
            Some(dc) if self.duty.key_matches(idx, &dc, spec.release) => {
                self.duty.reg_dc[idx] = Some(dc);
                true
            }
            Some(dc) => {
                self.duty
                    .leave(idx, slot, &mut self.jobs.accesses[idx], attended);
                self.duty.register(idx, &dc, spec.release, slot);
                false
            }
            None => {
                self.duty
                    .leave(idx, slot, &mut self.jobs.accesses[idx], attended);
                self.duty.dead_backstops += 1;
                self.jobs.retire(idx);
                false
            }
        }
    }

    /// Aggregate classes settle the slot (see [`ClassSet::settle`]).
    /// An ejected member's replacement protocol arrives pre-synchronized:
    /// no `on_activate`, polling starts next slot under the member's
    /// normal local clock.
    fn settle_classes(&mut self, slot: u64, fb: &Feedback) {
        self.classes
            .settle(slot, fb, &mut self.scratch.class_outbox);
        for event in self.scratch.class_outbox.drain(..) {
            let ClassEvent::Eject { member, protocol } = event;
            self.jobs.protocols[member as usize] = protocol;
            self.active.push(member);
        }
    }

    /// Drain protocol-emitted probe events, stamping slot/job and
    /// enriching `SizeEstimate` with ground truth (the engine is the only
    /// component entitled to a global view). Drained in job-id order so
    /// the bus stream is independent of active-set order (parked jobs
    /// never hold pending events — they emit only from slots they attend;
    /// the polled snapshot still includes jobs that just retired or
    /// parked, whose final events must flush). Class drivers emit on
    /// behalf of the whole aggregate, so their records carry no job id.
    fn drain_probes(&mut self, st: &mut RunState) {
        let order = &mut self.scratch.probe_order;
        order.clear();
        order.extend_from_slice(&self.scratch.polled);
        order.sort_unstable();
        for k in 0..self.scratch.probe_order.len() {
            let idx = self.scratch.probe_order[k] as usize;
            self.jobs.protocols[idx].drain_events(&mut self.event_scratch);
            self.emit_events(st, Some(self.jobs.specs[idx].id));
        }
        self.classes.drain_events(&mut self.event_scratch);
        self.emit_events(st, None);
    }

    /// Put the drained events on the bus, stamped with the slot and `job`.
    fn emit_events(&mut self, st: &mut RunState, job: Option<JobId>) {
        for mut event in self.event_scratch.drain(..) {
            if let ProbeEvent::SizeEstimate { class, n_true, .. } = &mut event {
                *n_true = Self::live_class_size(&self.jobs.specs, *class, st.slot);
            }
            st.bus.on_event(&ProbeRecord {
                slot: st.slot,
                job,
                event,
            });
        }
    }

    /// Run any remaining slots and assemble the [`SimReport`]. Consumes
    /// the run state; the engine needs an [`Engine::reset`] before another
    /// run.
    pub fn finish(&mut self) -> SimReport {
        if self.run_state.is_none() {
            self.begin();
        }
        self.step_until(u64::MAX);
        let st = self
            .run_state
            .take()
            .expect("step_until preserves run state");
        let started = std::time::Instant::now();
        let RunState {
            counts,
            mut bus,
            mut sched_stats,
            contention_sum,
            slot,
            base_slot,
            engine_nanos,
            wants_slots,
            probed,
            ..
        } = st;

        // Jobs still in the duty layer when the loop ended (the slot cap
        // arrived before their deadline backstop fired): settle the standing
        // transmissions and aggregate listens they made before the cap,
        // exactly as dense polling would have counted them.
        if self.duty.total > 0 {
            for idx in 0..self.jobs.len() {
                self.duty.leave(idx, slot, &mut self.jobs.accesses[idx], 0);
            }
        }

        // Anything still pending or live when the horizon hit missed.
        for idx in 0..self.jobs.len() {
            self.jobs.retire(idx);
        }

        // Retirement events, in job-id order. Outcomes and access counters
        // are pure functions of the instance and seed (the equivalence
        // suite's invariant), so this stream is identical across scheduling
        // modes despite being assembled after the loop.
        if probed {
            for idx in 0..self.jobs.len() {
                let spec = self.jobs.specs[idx];
                let outcome = self.jobs.outcomes[idx].expect("outcome just defaulted");
                let end = match outcome {
                    JobOutcome::Success { slot } => slot,
                    JobOutcome::Missed => spec.deadline.min(slot).max(spec.release),
                };
                bus.on_event(&ProbeRecord {
                    slot: end,
                    job: Some(spec.id),
                    event: ProbeEvent::JobRetired {
                        success: outcome.is_success(),
                        latency: end - spec.release,
                        window: spec.window(),
                        transmissions: self.jobs.accesses[idx].transmissions,
                        listens: self.jobs.accesses[idx].listens,
                    },
                });
            }
        }

        sched_stats.parks = self.parked.pushes();
        sched_stats.peak_parked = self.parked.peak() as u64;

        let mut outputs = bus.finish();
        let trace = if self.config.record_trace {
            match outputs.remove(0) {
                crate::probe::ProbeOutput::Trace(t) => Some(t),
                other => unreachable!("VecSink is attached first, got {other:?}"),
            }
        } else {
            None
        };
        let probes = if self.config.probe.is_some() {
            Some(ProbeReport { outputs })
        } else {
            None
        };

        let specs: Vec<JobSpec> = self.jobs.specs.clone();
        let outcomes: Vec<JobOutcome> = self.jobs.outcomes.iter().map(|o| o.unwrap()).collect();
        let accesses: Vec<AccessCounts> = self.jobs.accesses.clone();
        // Process-wide counters account slots *this engine executed*: a
        // checkpoint-restored run contributes only its suffix, so prefix
        // slots are never double-counted across branches.
        let executed = slot - base_slot;
        SLOTS_EXECUTED_TOTAL.fetch_add(executed, std::sync::atomic::Ordering::Relaxed);
        crate::telemetry::SLOTS_SIMULATED.add(executed);
        SimReport::new(
            specs,
            outcomes,
            counts,
            accesses,
            slot,
            JamStats {
                attempted: self.jammer.attempted(),
                succeeded: self.jammer.succeeded(),
            },
            self.seeds.master(),
            engine_nanos + started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            sched_stats,
            ContentionStats {
                declared_sum: contention_sum,
                measured_slots: if wants_slots { slot } else { 0 },
            },
            trace,
            probes,
        )
    }

    /// FNV-1a digest of the run's static inputs: master seed, the
    /// behavior-relevant config fields, the jammer's `p_jam`, and the job
    /// specs. Two engines with equal fingerprints and equal construction
    /// (same protocol factory, same adversary spec) execute identically,
    /// which is what makes a [`Checkpoint`] transplantable between them.
    fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        d.word(self.seeds.master());
        match self.config.max_slots {
            Some(cap) => {
                d.word(1);
                d.word(cap);
            }
            None => d.word(0),
        }
        d.word(u64::from(self.config.expose_aligned_clock));
        d.word(self.config.scheduling as u64);
        d.word(self.config.fidelity as u64);
        d.word(self.jammer.p_jam().to_bits());
        d.word(self.jobs.len() as u64);
        for s in &self.jobs.specs {
            d.word(u64::from(s.id));
            d.word(s.release);
            d.word(s.deadline);
        }
        d.finish()
    }

    /// Capture the paused run as a serializable [`Checkpoint`].
    ///
    /// The engine must be paused at a slot boundary by [`Engine::run_to`]
    /// with slots still ahead of it, and the run must be unobserved (no
    /// trace, no probe sinks). Every live job's protocol, every live class
    /// driver, and the adversary must support state capture; see the
    /// [`crate::checkpoint`] module docs for what that means and for the
    /// known-unsupported cases (e.g. eject-materialized takeover
    /// protocols, which are live jobs whose state a factory cannot
    /// rebuild unless their protocol implements
    /// [`Protocol::save_state`]).
    ///
    /// The snapshot does not disturb the run: the same engine can keep
    /// executing afterwards, and a fresh engine restored from the snapshot
    /// will finish bit-identically to this one.
    pub fn snapshot(&self) -> Result<Checkpoint, CheckpointError> {
        let st = self.run_state.as_ref().ok_or(CheckpointError::NotPaused)?;
        if st.done {
            return Err(CheckpointError::Finished);
        }
        if self.config.record_trace || self.config.probe.is_some() {
            return Err(CheckpointError::Unsupported(
                "trace or probe recording is active; snapshots cover unobserved runs only".into(),
            ));
        }

        // Jobs whose protocol state must travel: the active set, parked
        // jobs still awaiting an outcome (wake hints and duty backstops),
        // and duty-registered jobs. Aggregate-managed jobs (cohort, class,
        // kernel) get no protocol callbacks after admission, so the
        // factory-built protocol in the restore target is already exact;
        // pending and retired jobs likewise travel as `None`.
        let n = self.jobs.len();
        let mut needs = vec![false; n];
        for &j in &self.active {
            needs[j as usize] = true;
        }
        let parked = self.parked.save();
        for &(_, j) in &parked.entries {
            if self.jobs.outcomes[j as usize].is_none() {
                needs[j as usize] = true;
            }
        }
        for (j, &(g1, _)) in self.duty.where_of.iter().enumerate() {
            if g1 != 0 {
                needs[j] = true;
            }
        }
        let mut protocol_state = Vec::with_capacity(n);
        for (j, need) in needs.iter().enumerate() {
            if !need {
                protocol_state.push(None);
                continue;
            }
            match self.jobs.protocols[j].save_state() {
                Some(blob) => protocol_state.push(Some(blob)),
                None => {
                    return Err(CheckpointError::Unsupported(format!(
                        "protocol of live job {j} does not implement save_state"
                    )))
                }
            }
        }
        let classes = self.classes.save()?;
        let Some(adversary) = self.jammer.adversary_state() else {
            return Err(CheckpointError::Unsupported(
                "adversary does not implement save_state".into(),
            ));
        };
        let (cohorts, cohort_word_pos) = self.cohorts.save();

        crate::telemetry::CHECKPOINTS_SAVED.add(1);
        Ok(Checkpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: self.fingerprint(),
            master_seed: self.seeds.master(),
            slot: st.slot,
            next_pending: st.next_pending as u64,
            counts: st.counts,
            gap_skips: st.sched_stats.gap_skips,
            gap_slots: st.sched_stats.gap_slots,
            contention_sum_bits: st.contention_sum.to_bits(),
            jam_word_pos: st.jam_rng.get_word_pos(),
            cohort_word_pos,
            outcomes: self.jobs.outcomes.clone(),
            accesses: self.jobs.accesses.clone(),
            active: self.active.clone(),
            parked,
            protocol_state,
            duty: self.duty.clone(),
            cohorts,
            classes,
            kernel: self.kernel.save(),
            jams_attempted: self.jammer.attempted(),
            jams_succeeded: self.jammer.succeeded(),
            adversary,
        })
    }

    /// Rebuild the paused run captured by `ck` onto this engine.
    ///
    /// The engine must be a *fresh* restore target constructed from the
    /// same static inputs as the snapshotted run: same config, same seed,
    /// same jobs (added through the same factory), same jammer spec —
    /// [`Checkpoint::fingerprint`] guards the seed/config/job part of that
    /// contract. On success the engine behaves exactly as if it had
    /// executed slots `0..ck.slot` itself: resume with [`Engine::run_to`]
    /// or [`Engine::finish`], or perturb the future first with
    /// [`Engine::swap_adversary`]. Each owner validates its own part of
    /// the image, so an inconsistent checkpoint is a typed
    /// [`CheckpointError::Mismatch`], never a later panic.
    ///
    /// On error the engine is left half-restored and unusable; discard it.
    /// (`ran` is already set, so accidental reuse panics rather than
    /// producing garbage.)
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        let mismatch = |what: &str| Err(CheckpointError::Mismatch(what.into()));
        if ck.version != CHECKPOINT_VERSION {
            return mismatch(&format!(
                "checkpoint version {} (this build reads {CHECKPOINT_VERSION})",
                ck.version
            ));
        }
        if self.ran || self.run_state.is_some() {
            return Err(CheckpointError::Unsupported(
                "restore target must be a fresh engine (jobs added, never run)".into(),
            ));
        }
        if self.config.record_trace || self.config.probe.is_some() {
            return Err(CheckpointError::Unsupported(
                "trace or probe recording is active; checkpoints cover unobserved runs only".into(),
            ));
        }
        let fp = self.fingerprint();
        if fp != ck.fingerprint {
            return mismatch(&format!(
                "engine fingerprint {fp:#018x} != checkpoint {:#018x} \
                 (seed, config, p_jam, or job set differs)",
                ck.fingerprint
            ));
        }
        let n = self.jobs.len();
        if ck.outcomes.len() != n
            || ck.accesses.len() != n
            || ck.protocol_state.len() != n
            || ck.next_pending as usize > n
        {
            return mismatch("per-job vector lengths do not match the job count");
        }
        if ck.active.iter().any(|&j| j as usize >= n) {
            return mismatch("job index out of range");
        }
        if !ck.duty.is_consistent(n) {
            return mismatch("duty groups are inconsistent");
        }

        self.begin();

        // Run-state scalars and the jammer stream. (Everything else draws
        // from counter-based streams keyed on `(key, slot, phase)`, which
        // need no repositioning, or from the cohort stream its owner
        // restores.)
        let st = self.run_state.as_mut().expect("begin installs run state");
        st.slot = ck.slot;
        st.base_slot = ck.slot;
        st.next_pending = ck.next_pending as usize;
        st.counts = ck.counts;
        st.sched_stats.gap_skips = ck.gap_skips;
        st.sched_stats.gap_slots = ck.gap_slots;
        st.contention_sum = f64::from_bits(ck.contention_sum_bits);
        st.jam_rng.set_word_pos(ck.jam_word_pos);

        self.jobs.outcomes.copy_from_slice(&ck.outcomes);
        self.jobs.accesses.copy_from_slice(&ck.accesses);
        self.active.clear();
        self.active.extend_from_slice(&ck.active);
        self.parked.load(&ck.parked, ck.slot, n)?;
        self.duty.clone_from(&ck.duty);
        self.cohorts
            .load(&ck.cohorts, ck.cohort_word_pos, ck.slot, n)?;
        self.classes.load(
            &ck.classes,
            &self.jobs.specs,
            &self.jobs.protocols,
            &self.seeds,
            self.config.expose_aligned_clock,
        )?;
        if !self.kernel.load(&ck.kernel, &self.jobs.keys, ck.slot) {
            return mismatch("kernel blob is malformed");
        }

        // Live protocols: replay each captured blob over the factory-built
        // instance.
        for (j, blob) in ck.protocol_state.iter().enumerate() {
            let Some(blob) = blob else { continue };
            if !self.jobs.protocols[j].restore_state(blob) {
                return Err(CheckpointError::Unsupported(format!(
                    "protocol of job {j} rejected its state blob"
                )));
            }
        }

        if !self
            .jammer
            .restore(ck.jams_attempted, ck.jams_succeeded, &ck.adversary)
        {
            return Err(CheckpointError::Unsupported(
                "adversary rejected its state blob".into(),
            ));
        }

        crate::telemetry::CHECKPOINTS_RESTORED.add(1);
        Ok(())
    }

    /// Replace the jamming adversary mid-run, keeping the jam counters
    /// (see [`Jammer::swap_adversary`]). This is the branch point of a
    /// checkpointed sweep: restore a shared prefix, swap in a perturbed
    /// adversary, and resume — the suffix diverges while the prefix's
    /// accounting carries over.
    pub fn swap_adversary(&mut self, adversary: Box<dyn Adversary>, p_jam: f64) {
        self.jammer.swap_adversary(adversary, p_jam);
    }

    /// Ground truth for [`ProbeEvent::SizeEstimate`]: the number of class-ℓ
    /// jobs (window exactly `2^class`) whose window contains `slot`.
    fn live_class_size(specs: &[JobSpec], class: u32, slot: u64) -> u64 {
        let w = 1u64 << class;
        specs
            .iter()
            .filter(|s| s.window() == w && s.release <= slot && slot < s.deadline)
            .count() as u64
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Donate the allocations to this thread's pool (cleared first, so a
        // pooled carcass is indistinguishable from a fresh one).
        let mut carcass = arena::Carcass {
            jobs: std::mem::take(&mut self.jobs),
            active: std::mem::take(&mut self.active),
            by_release: std::mem::take(&mut self.by_release),
            parked: std::mem::take(&mut self.parked),
            scratch: std::mem::take(&mut self.scratch),
            event_scratch: std::mem::take(&mut self.event_scratch),
            cohorts: std::mem::take(&mut self.cohorts),
            classes: std::mem::take(&mut self.classes),
            duty: std::mem::take(&mut self.duty),
            kernel: std::mem::take(&mut self.kernel),
        };
        carcass.clear();
        arena::stash(carcass);
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::jamming::JamPolicy;
    use crate::rng::sample_binomial;

    /// Transmit the data message in a fixed local slot.
    struct AtLocal(u64);
    impl Protocol for AtLocal {
        fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
            if ctx.local_time == self.0 {
                Action::Transmit(Payload::Data(ctx.id))
            } else {
                Action::Listen
            }
        }
    }

    /// Record every feedback observed.
    struct Recorder {
        seen: Vec<Feedback>,
        when: u64,
    }
    impl Protocol for Recorder {
        fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
            if ctx.local_time == self.when {
                Action::Transmit(Payload::Data(ctx.id))
            } else {
                Action::Listen
            }
        }
        fn on_feedback(&mut self, _ctx: &JobCtx, fb: &Feedback, _rng: &mut dyn RngCore) {
            self.seen.push(*fb);
        }
    }

    #[test]
    fn lone_transmitter_succeeds() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(2)));
        let r = e.run();
        assert_eq!(r.outcome(0), JobOutcome::Success { slot: 2 });
        assert_eq!(r.counts.success, 1);
        assert_eq!(r.counts.data_success, 1);
    }

    #[test]
    fn two_transmitters_collide() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(1)));
        e.add_job(JobSpec::new(1, 0, 4), Box::new(AtLocal(1)));
        let r = e.run();
        assert!(!r.outcome(0).is_success());
        assert!(!r.outcome(1).is_success());
        assert_eq!(r.counts.collision, 1);
    }

    #[test]
    fn staggered_transmitters_both_succeed() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(1)));
        e.add_job(JobSpec::new(1, 0, 4), Box::new(AtLocal(3)));
        let r = e.run();
        assert_eq!(r.outcome(0), JobOutcome::Success { slot: 1 });
        assert_eq!(r.outcome(1), JobOutcome::Success { slot: 3 });
    }

    #[test]
    fn listener_observes_success_and_noise() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        // Jobs 0 and 1 collide at slot 1; job 2 transmits alone at slot 2.
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(1)));
        e.add_job(JobSpec::new(1, 0, 4), Box::new(AtLocal(1)));
        e.add_job(
            JobSpec::new(2, 0, 4),
            Box::new(Recorder {
                seen: vec![],
                when: 2,
            }),
        );
        let r = e.run();
        assert!(r.outcome(2).is_success());
        // Recorder saw: silent(0), noise(1), own success(2); retired after 2.
        // We can't reach the recorder anymore, but the trace confirms.
        assert_eq!(r.counts.collision, 1);
        assert_eq!(r.counts.success, 1);
    }

    #[test]
    fn deadline_miss_is_recorded() {
        struct Mute;
        impl Protocol for Mute {
            fn act(&mut self, _ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
                Action::Listen
            }
        }
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 3), Box::new(Mute));
        let r = e.run();
        assert_eq!(r.outcome(0), JobOutcome::Missed);
        assert_eq!(r.slots_run, 3);
    }

    #[test]
    fn job_cannot_act_after_window() {
        // A protocol that would transmit at local_time 5, but window is 3.
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 3), Box::new(AtLocal(5)));
        let r = e.run();
        assert_eq!(r.outcome(0), JobOutcome::Missed);
        assert_eq!(r.counts.success, 0);
    }

    #[test]
    fn jammer_turns_success_into_noise() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.set_jammer(Jammer::new(JamPolicy::AllSuccesses, 1.0));
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(1)));
        let r = e.run();
        assert_eq!(r.outcome(0), JobOutcome::Missed);
        assert_eq!(r.counts.jammed, 1);
        assert_eq!(r.counts.success, 0);
    }

    #[test]
    fn jam_attempts_surface_in_report() {
        // p_jam = 0 means every attempt fails: counts.jammed stays 0, yet
        // the attempt is still visible in jam_stats (the whole point of
        // surfacing adversary counters).
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.set_jammer(Jammer::new(JamPolicy::AllSuccesses, 0.0));
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(1)));
        let r = e.run();
        assert!(r.outcome(0).is_success());
        assert_eq!(r.counts.jammed, 0);
        assert_eq!(r.jam_stats.attempted, 1);
        assert_eq!(r.jam_stats.succeeded, 0);
    }

    #[test]
    fn jam_stats_agree_with_slot_counts() {
        let mut e = Engine::new(EngineConfig::default(), 7);
        e.set_jammer(Jammer::new(JamPolicy::AllSuccesses, 1.0));
        for id in 0..4 {
            e.add_job(
                JobSpec::new(id, u64::from(id) * 8, u64::from(id) * 8 + 8),
                Box::new(AtLocal(2)),
            );
        }
        let r = e.run();
        assert_eq!(r.jam_stats.succeeded, r.counts.jammed);
        assert_eq!(r.jam_stats.attempted, 4);
    }

    #[test]
    fn budgeted_adversary_respects_budget() {
        use crate::jamming::BudgetedJammer;
        // Four lone transmitters, budget 2, p_jam 1: exactly the first two
        // successes are destroyed, then the ammunition is gone.
        let mut e = Engine::new(EngineConfig::default(), 3);
        e.set_jammer(Jammer::adaptive(
            Box::new(BudgetedJammer::new(2, false)),
            1.0,
        ));
        for id in 0..4 {
            e.add_job(
                JobSpec::new(id, u64::from(id) * 8, u64::from(id) * 8 + 8),
                Box::new(AtLocal(1)),
            );
        }
        let r = e.run();
        assert_eq!(r.counts.jammed, 2);
        assert_eq!(r.jam_stats.attempted, 2);
        assert!(!r.outcome(0).is_success());
        assert!(!r.outcome(1).is_success());
        assert!(r.outcome(2).is_success());
        assert!(r.outcome(3).is_success());
    }

    #[test]
    fn trace_matches_counts() {
        let mut e = Engine::new(EngineConfig::default().with_trace(), 1);
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(1)));
        e.add_job(JobSpec::new(1, 0, 4), Box::new(AtLocal(1)));
        e.add_job(JobSpec::new(2, 0, 6), Box::new(AtLocal(4)));
        let r = e.run();
        let t = crate::trace::tally(r.trace.as_ref().unwrap());
        assert_eq!(t.success, r.counts.success);
        assert_eq!(t.collision, r.counts.collision);
        assert_eq!(t.silent, r.counts.silent);
        assert_eq!(t.jammed, r.counts.jammed);
        assert_eq!(t.data_success, r.counts.data_success);
        assert!(t.data_success > 0, "the lone slot-4 transmitter delivers");
    }

    #[test]
    fn idle_gap_fast_forward() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 2), Box::new(AtLocal(0)));
        e.add_job(JobSpec::new(1, 1_000_000, 1_000_002), Box::new(AtLocal(0)));
        let r = e.run();
        assert!(r.outcome(0).is_success());
        assert!(r.outcome(1).is_success());
        // The gap is skipped in O(1), but stays accounted as silence:
        // the books always balance. (That this test completes instantly
        // is itself the evidence the loop did not walk a million slots.)
        assert_eq!(r.counts.total(), r.slots_run);
        assert!(r.counts.silent >= 999_000);
    }

    #[test]
    fn aligned_clock_exposure() {
        struct NeedsClock;
        impl Protocol for NeedsClock {
            fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
                // With alignment, global time is release + local_time.
                assert_eq!(ctx.aligned_now(), 8 + ctx.local_time);
                Action::Listen
            }
        }
        let mut e = Engine::new(EngineConfig::aligned(), 1);
        e.add_job(JobSpec::new(0, 8, 16), Box::new(NeedsClock));
        let _ = e.run();
    }

    #[test]
    fn unaligned_ctx_hides_global_clock() {
        struct AssertHidden;
        impl Protocol for AssertHidden {
            fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
                assert!(ctx.aligned_time.is_none());
                Action::Listen
            }
        }
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 3, 7), Box::new(AssertHidden));
        let _ = e.run();
    }

    #[test]
    fn probe_report_present_only_when_configured() {
        use crate::probe::{ProbeSpec, SinkSpec};
        let run = |probe: Option<ProbeSpec>| {
            let config = EngineConfig {
                probe,
                ..EngineConfig::default()
            };
            let mut e = Engine::new(config, 5);
            e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(1)));
            e.run()
        };
        assert!(run(None).probes.is_none());
        let r = run(Some(ProbeSpec::new().with(SinkSpec::Events)));
        let probes = r.probes.expect("probe spec configured");
        let events = probes.events().expect("events sink configured");
        // No protocol emissions from AtLocal, but the engine retires the job.
        assert!(events
            .iter()
            .any(|rec| matches!(rec.event, ProbeEvent::JobRetired { success: true, .. })));
    }

    #[test]
    fn gap_skip_events_reach_sinks_and_sched_stats() {
        use crate::probe::{ProbeSpec, SinkSpec};
        let mut e = Engine::new(
            EngineConfig::default().with_probe(ProbeSpec::new().with(SinkSpec::Events)),
            1,
        );
        e.add_job(JobSpec::new(0, 0, 2), Box::new(AtLocal(0)));
        e.add_job(JobSpec::new(1, 10_000, 10_002), Box::new(AtLocal(0)));
        let r = e.run();
        assert!(r.sched_stats.gap_skips >= 1);
        assert!(r.sched_stats.gap_slots >= 9_000);
        let probes = r.probes.unwrap();
        let events = probes.events().unwrap();
        assert!(events
            .iter()
            .any(|rec| matches!(rec.event, ProbeEvent::GapSkip { len } if len >= 9_000)));
    }

    #[test]
    fn legacy_trace_identical_with_extra_sinks_attached() {
        // The record_trace path must be bit-identical whether or not other
        // probe sinks ride along on the bus.
        use crate::probe::{ProbeSpec, SinkSpec};
        let run = |probe: Option<ProbeSpec>| {
            let config = EngineConfig {
                probe,
                ..EngineConfig::default().with_trace()
            };
            let mut e = Engine::new(config, 77);
            e.add_job(JobSpec::new(0, 0, 8), Box::new(AtLocal(1)));
            e.add_job(JobSpec::new(1, 0, 8), Box::new(AtLocal(1)));
            e.add_job(JobSpec::new(2, 4, 12), Box::new(AtLocal(3)));
            e.run()
        };
        let plain = run(None);
        let probed = run(Some(
            ProbeSpec::new()
                .with(SinkSpec::Ring { capacity: 2 })
                .with(SinkSpec::Events),
        ));
        assert_eq!(plain.trace, probed.trace);
        assert_eq!(plain.counts, probed.counts);
        // And the ring holds the trace's tail.
        let (ring, _) = probed.probes.as_ref().unwrap().ring().unwrap();
        let trace = plain.trace.as_ref().unwrap();
        assert_eq!(ring, &trace[trace.len() - 2..]);
    }

    #[test]
    fn declared_contention_in_trace() {
        struct HalfProb;
        impl Protocol for HalfProb {
            fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
                Action::Transmit(Payload::Data(ctx.id))
            }
            fn tx_probability(&self, _ctx: &JobCtx) -> Option<f64> {
                Some(0.5)
            }
        }
        let mut e = Engine::new(EngineConfig::default().with_trace(), 1);
        e.add_job(JobSpec::new(0, 0, 2), Box::new(HalfProb));
        e.add_job(JobSpec::new(1, 0, 2), Box::new(HalfProb));
        let r = e.run();
        let trace = r.trace.as_ref().unwrap();
        assert!((trace[0].declared_contention - 1.0).abs() < 1e-12);
    }

    /// A small contended population exercising collisions and retirement,
    /// used by the reuse tests below.
    fn contended_setup(e: &mut Engine) {
        e.add_job(JobSpec::new(0, 0, 8), Box::new(AtLocal(2)));
        e.add_job(JobSpec::new(1, 1, 9), Box::new(AtLocal(1)));
        e.add_job(
            JobSpec::new(2, 0, 64),
            Box::new(Recorder {
                seen: Vec::new(),
                when: 5,
            }),
        );
    }

    #[test]
    fn reset_then_rerun_is_bit_identical() {
        let run_fresh = |seed: u64| {
            let mut e = Engine::fresh(EngineConfig::default().with_trace(), seed);
            contended_setup(&mut e);
            e.run()
        };
        let mut reused = Engine::fresh(EngineConfig::default().with_trace(), 7);
        contended_setup(&mut reused);
        let first = reused.run();
        for seed in [7u64, 99, 7] {
            reused.reset(seed);
            contended_setup(&mut reused);
            let again = reused.run();
            let fresh = run_fresh(seed);
            assert_eq!(again.outcomes(), fresh.outcomes(), "seed {seed}");
            assert_eq!(again.counts, fresh.counts, "seed {seed}");
            assert_eq!(again.accesses, fresh.accesses, "seed {seed}");
            assert_eq!(again.trace, fresh.trace, "seed {seed}");
        }
        // Same seed after unrelated runs in between: still identical.
        assert_eq!(first.outcomes(), run_fresh(7).outcomes());
    }

    #[test]
    #[should_panic(expected = "call Engine::reset between runs")]
    fn second_run_without_reset_panics() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(2)));
        let _ = e.run();
        let _ = e.run();
    }

    #[test]
    fn arena_reuse_counter_climbs() {
        // Drop-then-new on one thread must hit the thread-local pool. The
        // counter is thread-local, so other tests can't interfere.
        let before = Engine::arena_reuses();
        for seed in 0..3 {
            let mut e = Engine::new(EngineConfig::default(), seed);
            e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(2)));
            let _ = e.run();
        }
        // The first construction may or may not find a carcass (other
        // tests on this thread); the second and third must.
        assert!(Engine::arena_reuses() >= before + 2);
    }

    #[test]
    fn cohort_mode_smoke() {
        /// Pure cohort-model protocol: Bernoulli(p) transmitter.
        struct Bern(f64);
        impl Protocol for Bern {
            fn act(&mut self, _ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
                if rand::Rng::gen_bool(rng, self.0) {
                    Action::Transmit(Payload::Data(0))
                } else {
                    Action::Sleep
                }
            }
            fn cohort_tx(&self, _ctx: &JobCtx) -> Option<CohortTx> {
                Some(CohortTx::Constant { p: self.0 })
            }
        }
        let n = 500u32;
        let mut e = Engine::new(EngineConfig::default().cohort(), 42);
        for i in 0..n {
            e.add_job(
                JobSpec::new(i, 0, 4_000),
                Box::new(Bern(1.0 / f64::from(n))),
            );
        }
        let r = e.run();
        // Contention 1 ⇒ per-slot success ≈ 1/e; over 4000 slots most of
        // the 500 jobs deliver. The exact count is seed-dependent — the
        // point here is that the aggregate path runs, delivers plenty,
        // and attributes each success to a real member.
        assert!(r.successes() > 350, "successes={}", r.successes());
        assert_eq!(r.counts.data_success, r.successes() as u64);
        for (id, o) in r.outcomes().iter().enumerate() {
            if let JobOutcome::Success { slot } = o {
                assert!(*slot < 4_000, "job {id} success out of window");
            }
        }
    }

    #[test]
    fn vectorized_mode_is_bit_identical_to_exact_smoke() {
        // Full grid coverage (protocols × adversaries × scheduling) lives
        // in tests/kernel_differential.rs; this pins the basic contract
        // close to the engine: same outcomes, counts, accesses, and
        // slots_run for a Bernoulli population, per seed.
        struct Bern(f64);
        impl Protocol for Bern {
            fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
                if rand::Rng::gen_bool(rng, self.0) {
                    Action::Transmit(Payload::Data(ctx.id))
                } else {
                    Action::Sleep
                }
            }
            fn cohort_tx(&self, _ctx: &JobCtx) -> Option<CohortTx> {
                Some(CohortTx::Constant { p: self.0 })
            }
        }
        for seed in 0..5u64 {
            let run = |config: EngineConfig| {
                let mut e = Engine::new(config, seed);
                for i in 0..60u32 {
                    e.add_job(JobSpec::new(i, u64::from(i) % 7, 600), Box::new(Bern(0.02)));
                }
                e.run()
            };
            let exact = run(EngineConfig::default());
            let vector = run(EngineConfig::default().vectorized());
            assert_eq!(exact.outcomes(), vector.outcomes(), "seed {seed}");
            assert_eq!(exact.counts, vector.counts, "seed {seed}");
            assert_eq!(exact.accesses, vector.accesses, "seed {seed}");
            assert_eq!(exact.slots_run, vector.slots_run, "seed {seed}");
        }
    }

    #[test]
    fn cohort_mode_respects_exact_optouts() {
        // A protocol returning None from cohort_tx stays on the exact
        // path even under Fidelity::Cohort.
        let mut e = Engine::new(EngineConfig::default().cohort(), 3);
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(2)));
        let r = e.run();
        assert_eq!(r.outcome(0), JobOutcome::Success { slot: 2 });
    }

    /// A minimal aggregate-class protocol/driver pair: memoryless ALOHA run
    /// through the [`ClassDriver`] machinery instead of [`CohortTx::Constant`],
    /// with every protocol callback panicking — proving class-managed jobs
    /// get no per-job dispatch at all.
    struct MustAggregate(f64);
    impl Protocol for MustAggregate {
        fn on_activate(&mut self, _ctx: &JobCtx, _rng: &mut dyn RngCore) {
            panic!("class-managed job was activated on the exact path");
        }
        fn act(&mut self, _ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
            panic!("class-managed job was polled");
        }
        fn cohort_tx(&self, _ctx: &JobCtx) -> Option<CohortTx> {
            Some(CohortTx::Class { tag: 0xA10A })
        }
        fn class_driver(&self, _ctx: &JobCtx, cctx: &ClassCtx) -> Option<Box<dyn ClassDriver>> {
            Some(Box::new(AlohaClass {
                members: Vec::new(),
                p: self.0,
                seed: cctx.class_seed,
                nominated: None,
            }))
        }
    }
    struct AlohaClass {
        members: Vec<JobId>,
        p: f64,
        seed: u64,
        nominated: Option<usize>,
    }
    impl ClassDriver for AlohaClass {
        fn admit(&mut self, member: JobId) {
            self.members.push(member);
        }
        fn live(&self) -> usize {
            self.members.len()
        }
        fn begin_slot(&mut self, slot: u64) -> crate::classes::ClassSlot {
            let mut rng = CounterRng::new(self.seed, slot, Phase::Act);
            let m = self.members.len() as u64;
            crate::classes::ClassSlot {
                count: sample_binomial(m, self.p, &mut rng),
                declared: m as f64 * self.p,
            }
        }
        fn materialize(&mut self, slot: u64) -> (JobId, Payload) {
            let mut rng = CounterRng::new(self.seed, slot, Phase::Activate);
            let pos = rand::Rng::gen_range(&mut rng, 0..self.members.len());
            self.nominated = Some(pos);
            (self.members[pos], Payload::Data(self.members[pos]))
        }
        fn end_slot(&mut self, _slot: u64, fb: &Feedback, _out: &mut Vec<ClassEvent>) {
            if let (Some(pos), Feedback::Success { src, payload }) = (self.nominated, fb) {
                if payload.data_owner() == Some(*src) && self.members[pos] == *src {
                    self.members.swap_remove(pos);
                }
            }
            self.nominated = None;
        }
    }

    #[test]
    fn class_driver_aggregate_delivers_and_accounts() {
        let n = 400u32;
        let deadline = 4_000u64;
        let mut e = Engine::new(EngineConfig::default().cohort().with_trace(), 77);
        for i in 0..n {
            e.add_job(
                JobSpec::new(i, 0, deadline),
                Box::new(MustAggregate(1.0 / f64::from(n))),
            );
        }
        let r = e.run();
        // Contention ≈ 1 ⇒ per-slot success ≈ 1/e; most members deliver
        // well before the horizon. The engagement proof is implicit: every
        // MustAggregate callback panics.
        assert!(r.successes() > 250, "successes={}", r.successes());
        assert_eq!(r.counts.data_success, r.successes() as u64);
        // Lone class wins are credited to a real member inside the window,
        // and the materialized member's transmission is counted.
        for (id, o) in r.outcomes().iter().enumerate() {
            if let JobOutcome::Success { slot } = o {
                assert!(*slot < deadline, "job {id} success out of window");
                assert!(r.accesses_of(id as u32).transmissions >= 1);
            }
        }
        // The aggregate class contributes its m·p to declared contention:
        // near slot 0 all n members are live, so the first slot declares 1.
        let trace = r.trace.as_ref().expect("trace recorded");
        assert!((trace[0].declared_contention - 1.0).abs() < 1e-9);
        assert!(r.contention_stats.measured_slots == r.slots_run);
        let mean = r.contention_stats.mean().expect("measured");
        assert!(mean > 0.0 && mean <= 1.0, "mean declared {mean}");
    }

    #[test]
    fn class_profile_takes_exact_path_under_vectorized() {
        // Under Fidelity::Vectorized a Class-profile job must fall back to
        // exact per-job dispatch (the kernel's bit-identity contract does
        // not cover aggregates) — so a protocol whose callbacks panic
        // must panic, and a live one must behave exactly.
        struct ExactAloha(f64);
        impl Protocol for ExactAloha {
            fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
                if rand::Rng::gen_bool(rng, self.0) {
                    Action::Transmit(Payload::Data(ctx.id))
                } else {
                    Action::Sleep
                }
            }
            fn cohort_tx(&self, _ctx: &JobCtx) -> Option<CohortTx> {
                Some(CohortTx::Class { tag: 7 })
            }
            // No class_driver: even cohort mode would fall back. The point
            // here is vectorized mode never even asks.
        }
        let run = |config: EngineConfig, seed: u64| {
            let mut e = Engine::new(config, seed);
            for i in 0..30u32 {
                e.add_job(JobSpec::new(i, 0, 800), Box::new(ExactAloha(0.03)));
            }
            e.run()
        };
        for seed in 0..3u64 {
            let exact = run(EngineConfig::default(), seed);
            let vector = run(EngineConfig::default().vectorized(), seed);
            assert_eq!(exact.outcomes(), vector.outcomes(), "seed {seed}");
            assert_eq!(exact.counts, vector.counts, "seed {seed}");
            assert_eq!(exact.accesses, vector.accesses, "seed {seed}");
        }
    }
}
