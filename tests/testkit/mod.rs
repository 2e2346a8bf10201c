//! The conformance matrix: one case generator, one run driver and one
//! comparator for the contract that every fast path of the engine
//! reproduces the slotted channel model exactly.
//!
//! A [`Case`] is a named [`Pop`]ulation (config, jobs, protocol factory) ×
//! an adversary × a seed, plus a pause slot and the adversary a branch
//! swaps in there. A *transform* changes how a case runs but not what it
//! computes; the serialized report, with `engine_nanos` zeroed, must not
//! move outside that transform's fixed mask:
//!
//! | transform    | runs the case                                        | masked |
//! |--------------|------------------------------------------------------|--------|
//! | [`DENSE`]    | polling every job every slot (no parking, no gap skip) | `sched_stats`, the records of `Ring` outputs (their tally is compared) |
//! | [`VECTORIZED`] | with the slot kernel owning eligible jobs          | as `DENSE` |
//! | [`OBSERVED`] | traced, with event, Chrome and aggregate probe sinks | `probes` |
//! | [`RESTORE`]  | paused, snapshotted, JSON round-tripped and restored into a fresh engine; the paused engine finishes too | nothing |
//! | [`BRANCH`]   | through `run_branched`, against an inline adversary swap at the pause | nothing |
//! | [`REUSE`]    | on a pooled engine `reset` after two other trials, against `Engine::fresh` | nothing |
//!
//! [`check`] compares a *variant* (a set of transforms) with the variant
//! minus each of its transforms, under that transform's mask, so a pair
//! `A | B` is checked against `A` and against `B`; [`check_case`] notes
//! the two compositions that widen a mask. A snapshot the engine must refuse
//! (observed runs, live protocols without state capture) is asserted to be
//! a typed [`CheckpointError::Unsupported`], never skipped. Every observed
//! run's trace must tally to its `counts` and cover its `slots_run`. Each
//! cell (one variant over one `check` call's cases) shows the witness its
//! transforms need (`witnessed`), so no cell passes vacuously.
//!
//! Cohort fidelity is statistical, so cohort-versus-exact stays a
//! law-level column ([`assert_success_law_match`], [`assert_wilson_overlap`]);
//! within cohort fidelity every transform above is still bit-exact.
//!
//! Beside the matrix, the listen audit ([`idle_listens`]) counts the
//! listens whose feedback leaves a protocol's state as it was: radio-on
//! time a job could have slept through.
//!
//! Each `tests/*.rs` consumer declares `mod testkit;`, so pieces one
//! consumer does not use are expected dead code.
#![allow(dead_code)]

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use contention_deadlines::baselines::scheduled::scheduled_protocols;
use contention_deadlines::baselines::windowed::{Schedule, WindowedBackoff};
use contention_deadlines::baselines::{BinaryExponentialBackoff, FixedProbability, Sawtooth};
use contention_deadlines::protocols::{
    AlignedParams, AlignedProtocol, ClockedParams, ClockedProtocol, PunctualParams,
    PunctualProtocol, Uniform,
};
use contention_deadlines::sim::checkpoint::{Checkpoint, CheckpointError};
use contention_deadlines::sim::classes::{ClassCtx, ClassDriver, ClassEvent, ClassSlot};
use contention_deadlines::sim::crng::{CounterRng, Phase};
use contention_deadlines::sim::engine::{
    Action, CohortTx, DutyCycle, Engine, EngineConfig, Fidelity, Heard, JobCtx, Protocol, Wake,
};
use contention_deadlines::sim::jamming::{AdversarySpec, JamPolicy, Jammer};
use contention_deadlines::sim::job::{JobId, JobSpec};
use contention_deadlines::sim::message::{ControlMsg, Payload};
use contention_deadlines::sim::metrics::{SchedStats, SimReport};
use contention_deadlines::sim::probe::{ProbeEvent, ProbeOutput, ProbeSpec, SinkSpec};
use contention_deadlines::sim::rng::sample_binomial;
use contention_deadlines::sim::runner::{run_branched, run_trials, BranchSpec};
use contention_deadlines::sim::slot::Feedback;
use contention_deadlines::sim::trace::{tally, SlotRecord};
use contention_deadlines::stats::Proportion;
use contention_deadlines::workloads::generators::{batch, poisson};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{DeError, Deserialize, Serialize, Value};

/// An adversary: its spec and jam success probability.
#[derive(Debug, Clone)]
pub struct Adv {
    pub name: &'static str,
    pub spec: AdversarySpec,
    pub p_jam: f64,
}

impl Adv {
    pub fn jammer(&self) -> Jammer {
        self.spec.jammer(self.p_jam)
    }
}

/// The adversary grid, by name: every stateless policy plus the stateful
/// adversaries, including both idle-striking ones (`random`, `bursty`)
/// that disable all-parked fast-forwarding and the stateful reactive
/// jammer that relies on the `on_silent_gap` replay contract. `clean`
/// is exactly `Jammer::none()`.
pub const ALL: &str = "clean all ctrl data random budget budget-data reactive bursty";

pub fn jammer(name: &'static str) -> Adv {
    use AdversarySpec::*;
    let budgeted = |budget, data_only| Budgeted { budget, data_only };
    let (k, reset_gap, p_enter, p_exit) = (2, 16, 0.05, 0.2);
    let (spec, p_jam) = match name {
        "clean" => (Policy(JamPolicy::Never), 0.0),
        "all" => (Policy(JamPolicy::AllSuccesses), 0.4),
        "ctrl" => (Policy(JamPolicy::ControlOnly), 0.6),
        "data" => (Policy(JamPolicy::DataOnly), 0.5),
        "random" => (Policy(JamPolicy::Random { attempt: 0.1 }), 0.5),
        "budget" => (budgeted(5, false), 0.7),
        "budget-data" => (budgeted(3, true), 1.0),
        "reactive" => (Reactive { k, reset_gap }, 0.8),
        "bursty" => (Bursty { p_enter, p_exit }, 0.6),
        other => panic!("no adversary named {other}"),
    };
    Adv { name, spec, p_jam }
}

/// A deterministic pick from the 6-way mix of checkpointable workspace
/// protocols the random populations draw from.
pub fn protocol_pick(pick: usize) -> Box<dyn Protocol> {
    match pick % 6 {
        0 => Box::new(Uniform::new(1)),
        1 => Box::new(Uniform::new(2)),
        2 => Box::new(Sawtooth::new()),
        3 => Box::new(BinaryExponentialBackoff::new()),
        4 => Box::new(WindowedBackoff::new(Schedule::Geometric {
            base: 2,
            first: 1,
        })),
        _ => Box::new(FixedProbability::new(0.03)),
    }
}

/// Pattern length of [`Metronome`]'s duty cycle.
const PERIOD: u64 = 8;

/// A synthetic duty-cycled protocol that reaches the duty-layer paths
/// PUNCTUAL rarely does in a short run: schedule changes between groups,
/// equivalent-but-unequal schedules (a shifted anchor), listen positions
/// whose feedback fans out to every member, the `None` completion signal,
/// and deadline backstops of members still in the layer. Unlike PUNCTUAL
/// it captures its state, so duty groups can be checkpointed.
///
/// Positions (mod [`PERIOD`]): 0 is a standing control broadcast in mode
/// 0, 2 (and 6 in mode 1) wake for a real `act`, 5 listens. Only a
/// delivered data message changes state at a listen position, which is
/// exactly when `duty_listen` declines.
#[derive(Default, Serialize, Deserialize)]
pub struct Metronome {
    mode: u8,
    shift: u64,
    heard: u32,
}

impl Metronome {
    const BEAT: Payload = Payload::Control(ControlMsg::of_kind(7));

    /// `(wake, tx, listen)` masks of the current mode.
    fn masks(&self) -> (u64, u64, u64) {
        match self.mode {
            0 => (1 << 2, 1 << 0, 1 << 5),
            _ => (1 << 2 | 1 << 6, 0, 1 << 5),
        }
    }
}

impl Protocol for Metronome {
    fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
        let (wake, tx, listen) = self.masks();
        let bit = 1u64 << (ctx.local_time % PERIOD);
        if tx & bit != 0 {
            return Action::Transmit(Self::BEAT);
        }
        if listen & bit != 0 {
            return Action::Listen;
        }
        if wake & bit == 0 {
            return Action::Sleep;
        }
        let x = rng.next_u64();
        if x.is_multiple_of(4) {
            self.mode ^= 1;
        }
        if x.is_multiple_of(7) {
            self.shift += 1;
        }
        if x.is_multiple_of(5) {
            Action::Transmit(Payload::Data(ctx.id))
        } else {
            Action::Listen
        }
    }

    fn on_feedback(&mut self, _ctx: &JobCtx, fb: &Feedback, _rng: &mut dyn RngCore) {
        if let Some(Payload::Data(_)) = fb.payload() {
            self.heard += 1;
            if self.heard % 2 == 1 {
                self.mode ^= 1;
            } else {
                self.shift += 1;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.heard >= 4
    }

    fn duty_cycle(&self, _ctx: &JobCtx) -> Option<DutyCycle> {
        if self.is_done() {
            return None;
        }
        let (wake_mask, tx_mask, listen_mask) = self.masks();
        Some(DutyCycle {
            period: PERIOD as u8,
            wake_mask,
            tx_mask,
            tx_payload: Self::BEAT,
            listen_mask,
            anchor_local: self.shift * PERIOD,
        })
    }

    fn duty_listen(&self, _ctx: &JobCtx, fb: &Feedback) -> bool {
        !matches!(fb.payload(), Some(Payload::Data(_)))
    }

    fn save_state(&self) -> Option<Value> {
        Some(self.to_value())
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let saved = Self::from_value(state)?;
        if saved.mode > 1 || saved.heard > 4 {
            return Err(DeError::msg("metronome mode or heard count out of range"));
        }
        *self = saved;
        Ok(())
    }
}

/// A memoryless-ALOHA aggregate class with full state capture: the class
/// members are the only dynamic state (`p` and the class seed are
/// construction parameters the engine re-supplies on restore). The
/// per-job protocol has no state at all.
struct ClassAloha(f64);

impl Protocol for ClassAloha {
    fn act(&mut self, _ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
        panic!("class-managed job was polled on the exact path");
    }
    fn cohort_tx(&self, _ctx: &JobCtx) -> Option<CohortTx> {
        Some(CohortTx::Class { tag: 0xC4E })
    }
    fn save_state(&self) -> Option<Value> {
        Some(Value::Null)
    }
    fn class_driver(&self, _ctx: &JobCtx, cctx: &ClassCtx) -> Option<Box<dyn ClassDriver>> {
        Some(Box::new(AlohaClassDriver {
            members: Vec::new(),
            p: self.0,
            seed: cctx.class_seed,
            nominated: None,
        }))
    }
}

struct AlohaClassDriver {
    members: Vec<JobId>,
    p: f64,
    seed: u64,
    /// Within-slot scratch; always `None` at a slot boundary, so it does
    /// not travel in the saved state.
    nominated: Option<usize>,
}

impl ClassDriver for AlohaClassDriver {
    fn admit(&mut self, member: JobId) {
        self.members.push(member);
    }
    fn live(&self) -> usize {
        self.members.len()
    }
    fn begin_slot(&mut self, slot: u64) -> ClassSlot {
        let mut rng = CounterRng::new(self.seed, slot, Phase::Act);
        let m = self.members.len() as u64;
        ClassSlot {
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
    fn save_state(&self) -> Option<Value> {
        Some(self.members.to_value())
    }
    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        self.members = Deserialize::from_value(state)?;
        Ok(())
    }
}

thread_local! {
    /// `on_activate` calls and `(job, global slot)` transmissions made by
    /// [`Watched`] protocols on this thread since the last [`take_watch`].
    static WATCH: RefCell<(u64, Vec<(u32, u64)>)> = RefCell::default();
    /// Wakes of [`Watched`] protocols parked through slots they hear, and
    /// the listens those wakes credited, since the last [`take_heard`].
    static HEARD: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Wrap `inner` (the protocol of `spec`) so its activations and
/// transmissions are recorded. Every other call is forwarded unchanged,
/// so a watched run is the run itself.
pub fn watched(spec: &JobSpec, inner: Box<dyn Protocol>) -> Box<dyn Protocol> {
    Box::new(Watched {
        inner,
        release: spec.release,
    })
}

/// This thread's watch record since the last call: `(activations,
/// transmissions)`. Jobs an aggregate owns are never activated.
pub fn take_watch() -> (u64, Vec<(u32, u64)>) {
    WATCH.with(|w| std::mem::take(&mut *w.borrow_mut()))
}

/// This thread's `(wakes, listens)` of parks through heard slots since
/// the last call: how often a [`Watched`] job caught up on feedback it
/// missed, and how many listens that credited.
pub fn take_heard() -> (u64, u64) {
    HEARD.with(|h| h.replace((0, 0)))
}

struct Watched {
    inner: Box<dyn Protocol>,
    release: u64,
}

impl Protocol for Watched {
    fn on_activate(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) {
        WATCH.with(|w| w.borrow_mut().0 += 1);
        self.inner.on_activate(ctx, rng);
    }
    fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
        let action = self.inner.act(ctx, rng);
        if matches!(action, Action::Transmit(_)) {
            let tx = (ctx.id, self.release + ctx.local_time);
            WATCH.with(|w| w.borrow_mut().1.push(tx));
        }
        action
    }
    fn on_feedback(&mut self, ctx: &JobCtx, fb: &Feedback, rng: &mut dyn RngCore) {
        self.inner.on_feedback(ctx, fb, rng);
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn tx_probability(&self, ctx: &JobCtx) -> Option<f64> {
        self.inner.tx_probability(ctx)
    }
    fn next_wake(&self, ctx: &JobCtx) -> Option<Wake> {
        self.inner.next_wake(ctx)
    }
    fn on_heard(&mut self, ctx: &JobCtx, heard: Heard<'_>) -> u64 {
        let listens = self.inner.on_heard(ctx, heard);
        HEARD.with(|h| {
            let (wakes, total) = h.get();
            h.set((wakes + 1, total + listens));
        });
        listens
    }
    fn duty_cycle(&self, ctx: &JobCtx) -> Option<DutyCycle> {
        self.inner.duty_cycle(ctx)
    }
    fn duty_listen(&self, ctx: &JobCtx, fb: &Feedback) -> bool {
        self.inner.duty_listen(ctx, fb)
    }
    fn cohort_tx(&self, ctx: &JobCtx) -> Option<CohortTx> {
        self.inner.cohort_tx(ctx)
    }
    fn class_driver(&self, ctx: &JobCtx, cctx: &ClassCtx) -> Option<Box<dyn ClassDriver>> {
        self.inner.class_driver(ctx, cctx)
    }
    fn drain_events(&mut self, out: &mut Vec<ProbeEvent>) {
        self.inner.drain_events(out);
    }
    fn save_state(&self) -> Option<Value> {
        self.inner.save_state()
    }
    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        self.inner.restore_state(state)
    }
}

thread_local! {
    /// Per protocol state: the listens of [`Audited`] protocols on this
    /// thread whose feedback left the state's `Debug` form unchanged, and
    /// all their listens, since the last [`take_idle_listens`].
    static IDLE: RefCell<BTreeMap<String, (u64, u64)>> = RefCell::default();
}

/// Wrap `inner` for the listen audit: after each slot it listened in, its
/// `Debug` form before and after `on_feedback` is compared. Every call is
/// forwarded unchanged, so an audited run is the run itself.
fn audited<P: Protocol + fmt::Debug + 'static>(inner: P) -> Box<dyn Protocol> {
    Box::new(Audited {
        inner,
        listened: false,
    })
}

/// This thread's audit since the last call: per state (the variant of the
/// first field named `state` or `phase` in the protocol's `Debug` form,
/// else its type), `(listens that changed nothing, listens)`.
fn take_idle_listens() -> BTreeMap<String, (u64, u64)> {
    IDLE.with(|m| std::mem::take(&mut *m.borrow_mut()))
}

/// The state label of a protocol's `Debug` form (see [`take_idle_listens`]).
fn state_label(debug: &str) -> String {
    let name = |s: &str| -> String {
        s.chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect()
    };
    [" state: ", " phase: "]
        .iter()
        .find_map(|key| debug.find(key).map(|at| name(&debug[at + key.len()..])))
        .unwrap_or_else(|| name(debug))
}

struct Audited<P> {
    inner: P,
    listened: bool,
}

impl<P: Protocol + fmt::Debug> Protocol for Audited<P> {
    fn on_activate(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) {
        self.inner.on_activate(ctx, rng);
    }
    fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
        let action = self.inner.act(ctx, rng);
        self.listened = action == Action::Listen;
        action
    }
    fn on_feedback(&mut self, ctx: &JobCtx, fb: &Feedback, rng: &mut dyn RngCore) {
        if !std::mem::take(&mut self.listened) {
            return self.inner.on_feedback(ctx, fb, rng);
        }
        let before = format!("{:?}", self.inner);
        self.inner.on_feedback(ctx, fb, rng);
        let idle = u64::from(format!("{:?}", self.inner) == before);
        IDLE.with(|m| {
            let mut m = m.borrow_mut();
            let count = m.entry(state_label(&before)).or_default();
            *count = (count.0 + idle, count.1 + 1);
        });
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn tx_probability(&self, ctx: &JobCtx) -> Option<f64> {
        self.inner.tx_probability(ctx)
    }
    fn next_wake(&self, ctx: &JobCtx) -> Option<Wake> {
        self.inner.next_wake(ctx)
    }
    fn on_heard(&mut self, ctx: &JobCtx, heard: Heard<'_>) -> u64 {
        self.inner.on_heard(ctx, heard)
    }
    fn duty_cycle(&self, ctx: &JobCtx) -> Option<DutyCycle> {
        self.inner.duty_cycle(ctx)
    }
    fn duty_listen(&self, ctx: &JobCtx, fb: &Feedback) -> bool {
        self.inner.duty_listen(ctx, fb)
    }
    fn cohort_tx(&self, ctx: &JobCtx) -> Option<CohortTx> {
        self.inner.cohort_tx(ctx)
    }
    fn class_driver(&self, ctx: &JobCtx, cctx: &ClassCtx) -> Option<Box<dyn ClassDriver>> {
        self.inner.class_driver(ctx, cctx)
    }
    fn drain_events(&mut self, out: &mut Vec<ProbeEvent>) {
        self.inner.drain_events(out);
    }
    fn save_state(&self) -> Option<Value> {
        self.inner.save_state()
    }
    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        self.inner.restore_state(state)
    }
}

/// The listen audit of `pop`, whose jobs must all run one protocol the
/// audit can wrap (see [`Pop::audited`]): every job polled every slot,
/// under every adversary of [`ALL`] at each of `seeds`. Dense polling
/// hands every listen to `on_feedback`, where the audit sees it. Returns
/// [`take_idle_listens`]'s counts.
pub fn idle_listens(pop: &Pop, seeds: Range<u64>) -> BTreeMap<String, (u64, u64)> {
    let audited = pop.audited.as_ref().expect("the population can be audited");
    take_idle_listens();
    for adv in ALL.split(' ') {
        for seed in seeds.clone() {
            let mut e = Engine::new(pop.config.clone().dense(), seed);
            e.set_jammer(jammer(adv).jammer());
            e.add_jobs(&pop.jobs, |s| audited(s));
            e.run();
        }
    }
    take_idle_listens()
}

/// Jobs with releases staggered around the first half-window.
pub fn staggered(n: u32, spread: u64, w: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let r = u64::from(i) * spread % (w / 2);
            JobSpec::new(i, r, r + w)
        })
        .collect()
}

/// ALIGNED jobs in two classes over `[0, 2^11)` for
/// `AlignedParams::new(1, 2, 8)`: three in every class-8 window and four
/// in every class-10 window. Each class-10 job tracks classes 8, 9 and
/// 10, and class 8 preempts it at each of its window boundaries.
pub fn aligned_two_classes() -> Vec<JobSpec> {
    (0..32u32)
        .map(|i| {
            let (class, window) = if i < 24 {
                (8, i / 3)
            } else {
                (10, (i - 24) / 4)
            };
            let r = u64::from(window) << class;
            JobSpec::new(i, r, r + (1 << class))
        })
        .collect()
}

type Factory = Arc<dyn Fn(&JobSpec) -> Box<dyn Protocol> + Send + Sync>;
type Ctor = fn() -> Box<dyn Protocol>;

/// A population: base config (fidelity, aligned clock), jobs, and the
/// protocol each job runs.
#[derive(Clone)]
pub struct Pop {
    pub name: String,
    pub config: EngineConfig,
    pub jobs: Vec<JobSpec>,
    pub factory: Factory,
    /// Pause slots for [`RESTORE`] and [`BRANCH`]; a case picks one by seed
    /// and adversary.
    pub pauses: Vec<u64>,
    /// Every protocol captures its state (or, like a class member, needs
    /// none), so a snapshot is never refused. Otherwise a refusal must be
    /// a typed `Unsupported`.
    pub restorable: bool,
    /// Probing keeps every job on its path. Cohort ALOHA and UNIFORM fall
    /// back to the exact path when probed, so their runs change.
    pub observable: bool,
    /// The factory again, each protocol wrapped by [`audited`], where
    /// every job runs one protocol with a `Debug` form.
    pub audited: Option<Factory>,
}

impl Pop {
    pub fn new(
        name: &str,
        config: EngineConfig,
        jobs: Vec<JobSpec>,
        factory: impl Fn(&JobSpec) -> Box<dyn Protocol> + Send + Sync + 'static,
    ) -> Self {
        // Just after the middle job's release, and just after the last
        // release: some job is live at both.
        let mut releases: Vec<u64> = jobs.iter().map(|j| j.release).collect();
        releases.sort_unstable();
        let w = jobs.iter().map(JobSpec::window).min().expect("jobs");
        let pauses = vec![
            releases[releases.len() / 2] + 1,
            releases[releases.len() - 1] + 1 + w / 8,
        ];
        Self {
            name: name.into(),
            config,
            restorable: jobs.iter().all(|s| factory(s).save_state().is_some()),
            jobs,
            factory: Arc::new(factory),
            pauses,
            observable: true,
            audited: None,
        }
    }

    fn paused_at(mut self, pauses: &[u64]) -> Self {
        self.pauses = pauses.to_vec();
        self
    }

    pub fn unobservable(mut self) -> Self {
        self.observable = false;
        self
    }

    /// Every job runs `ctor()`; the listen audit can wrap it.
    fn of<P: Protocol + fmt::Debug + 'static>(
        name: &str,
        config: EngineConfig,
        jobs: Vec<JobSpec>,
        ctor: fn() -> P,
    ) -> Self {
        let mut pop = Pop::new(name, config, jobs, move |_| Box::new(ctor()));
        pop.audited = Some(Arc::new(move |_| audited(ctor())));
        pop
    }
}

/// Exact-fidelity jobs with window `w` at the given releases, job `i`
/// running `jobs[i].1`.
fn mix(name: &str, w: u64, jobs: &[(u64, Ctor)]) -> Pop {
    let specs = (0..)
        .zip(jobs)
        .map(|(i, &(r, _))| JobSpec::new(i, r, r + w));
    let protocols: Vec<_> = jobs.iter().map(|j| j.1).collect();
    Pop::new(name, EngineConfig::default(), specs.collect(), move |s| {
        protocols[s.id as usize]()
    })
}

/// Every named population, for the full matrix.
pub const POPULATIONS: &str = "uniform1 uniform3 scheduled windowed-geometric windowed-linear \
    windowed-quadratic windowed-fixed sawtooth beb aloha aligned punctual mixed poisson-punctual \
    aloha-bucket aloha-buckets uniform-oneshot kernel-mixed aligned-fallback punctual-fallback \
    pick0 pick1 pick2 pick3 pick4 pick5 fidelity-mixed cohort-mixed class-aloha metronome \
    cohort-aligned cohort-punctual cohort-aloha aligned-stress clocked";

/// The population called `name` (one of [`POPULATIONS`]).
pub fn population(name: &str) -> Pop {
    let exact = EngineConfig::default;
    let batch_of = |n: u32, w: u64| (0..n).map(|i| JobSpec::new(i, 0, w)).collect();
    // Every job running one protocol.
    let all = |config, jobs, protocol: Ctor| Pop::new(name, config, jobs, move |_| protocol());
    let punctual =
        || -> Box<dyn Protocol> { Box::new(PunctualProtocol::new(PunctualParams::laptop())) };
    let aligned9 =
        || -> Box<dyn Protocol> { Box::new(AlignedProtocol::new(AlignedParams::new(1, 2, 9))) };
    match name {
        "uniform1" => all(exact(), staggered(12, 37, 1 << 10), || {
            Box::new(Uniform::new(1))
        }),
        "uniform3" => all(exact(), staggered(12, 37, 1 << 10), || {
            Box::new(Uniform::new(3))
        }),
        "scheduled" => {
            let jobs = batch(16, 64).jobs;
            let slots = scheduled_protocols(&jobs).expect("batch instance is EDF-feasible");
            Pop::new(name, exact(), jobs, move |s| Box::new(slots[s.id as usize]))
                .paused_at(&[5, 11])
        }
        "windowed-geometric" | "windowed-linear" | "windowed-quadratic" | "windowed-fixed" => {
            let schedule = match name {
                "windowed-geometric" => Schedule::Geometric { base: 2, first: 2 },
                "windowed-linear" => Schedule::Linear { first: 4, step: 4 },
                "windowed-quadratic" => Schedule::Quadratic { first: 2 },
                _ => Schedule::Fixed { size: 16 },
            };
            Pop::new(name, exact(), staggered(10, 53, 2048), move |_| {
                Box::new(WindowedBackoff::new(schedule))
            })
        }
        "sawtooth" => all(
            exact(),
            staggered(8, 29, 4096),
            || Box::new(Sawtooth::new()),
        ),
        "beb" => all(exact(), staggered(10, 41, 2048), || {
            Box::new(BinaryExponentialBackoff::new())
        }),
        // No wake hints, so event-driven mode polls every live job; the
        // spread releases leave idle stretches between them to skip.
        "aloha" => {
            let jobs =
                (0..6).map(|i| JobSpec::new(i, 300 * u64::from(i), 300 * u64::from(i) + 512));
            all(exact(), jobs.collect(), || {
                Box::new(FixedProbability::new(0.05))
            })
        }
        "aligned" => Pop::of(name, EngineConfig::aligned(), aligned_two_classes(), || {
            AlignedProtocol::new(AlignedParams::new(1, 2, 8))
        }),
        "punctual" => Pop::of(name, exact(), staggered(8, 113, 1 << 13), || {
            PunctualProtocol::new(PunctualParams::laptop())
        }),
        // E7's stress shape: 64 jobs share one class-10 window, so most of
        // each job's slots are estimation steps it only listens to.
        "aligned-stress" => Pop::of(name, EngineConfig::aligned(), batch_of(64, 1 << 10), || {
            AlignedProtocol::new(AlignedParams::new(1, 2, 10))
        }),
        // CLOCKED on unaligned windows: one job trims to a class-11
        // window, eleven sleep until the class-10 window [1024, 2048) and
        // park through its estimation steps, the truncated fall back to
        // per-slot coins, and the last two windows hold no class-8 window,
        // so those jobs fall back from the start.
        "clocked" => {
            let late = [(12, 600, 900), (13, 650, 950)].map(|(i, r, d)| JobSpec::new(i, r, d));
            let jobs = staggered(12, 37, 1 << 11).into_iter().chain(late);
            Pop::of(name, EngineConfig::aligned(), jobs.collect(), || {
                ClockedProtocol::new(ClockedParams::laptop())
            })
        }
        // Hinting and hintless protocols sharing one channel: parked jobs
        // must keep hearing nothing while polled neighbours transact.
        "mixed" => mix(
            name,
            1 << 11,
            &[
                (0, || Box::new(Uniform::new(1))),
                (13, || Box::new(Sawtooth::new())),
                (13, || Box::new(BinaryExponentialBackoff::new())),
                (64, || Box::new(FixedProbability::new(0.02))),
                (77, || protocol_pick(4)),
                (150, || Box::new(Uniform::new(3))),
                (200, || Box::new(Sawtooth::new())),
            ],
        ),
        // Arrivals with idle gaps between bursts: idle fast-forward meets
        // parked wake slots.
        "poisson-punctual" => {
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            let jobs = poisson(0.005, 1 << 13, &[1 << 12, 1 << 13], &mut rng).jobs;
            assert!(jobs.len() > 1, "the poisson instance must have jobs");
            all(exact(), jobs, punctual)
        }
        "aloha-bucket" => all(exact(), staggered(24, 37, 1 << 10), || {
            Box::new(FixedProbability::new(0.04))
        }),
        // Three probabilities and two deadline classes: six kernel buckets,
        // with per-bucket expiry and dense/sparse words as lanes die off.
        // A third of the jobs arrive after an idle stretch.
        "aloha-buckets" => {
            let jobs = (0..30u32).map(|i| {
                let r = u64::from(i % 5) * 11 + if i < 20 { 0 } else { 1_500 };
                JobSpec::new(i, r, r + if i % 2 == 0 { 600 } else { 900 })
            });
            Pop::new(name, exact(), jobs.collect(), |s| {
                Box::new(FixedProbability::new([0.01, 0.05, 0.12][s.id as usize % 3]))
            })
        }
        "uniform-oneshot" => all(exact(), staggered(16, 53, 1 << 9), || {
            Box::new(Uniform::single())
        }),
        // Kernel lanes beside exact-path protocols (Uniform k=2 is not
        // one-shot): collisions and feedback fan-out see one channel.
        "kernel-mixed" => mix(
            name,
            1 << 10,
            &[
                (0, || Box::new(FixedProbability::new(0.03))),
                (5, || Box::new(Uniform::single())),
                (13, || Box::new(Sawtooth::new())),
                (13, || Box::new(Uniform::new(2))),
                (40, || Box::new(FixedProbability::new(0.08))),
                (64, || Box::new(Uniform::single())),
                (100, || Box::new(FixedProbability::new(0.03))),
            ],
        ),
        // Class profiles are a cohort construct: under the kernel these
        // jobs take the exact path, beside kernel-managed ALOHA lanes.
        "aligned-fallback" => Pop::new(
            name,
            EngineConfig::aligned(),
            batch_of(24, 512),
            move |s| match s.id {
                0..=11 => aligned9(),
                _ => Box::new(FixedProbability::new(0.02)),
            },
        ),
        "punctual-fallback" => all(exact(), batch_of(6, 1 << 12), punctual),
        "pick0" | "pick1" | "pick2" | "pick3" | "pick4" | "pick5" => {
            let pick = usize::from(name.as_bytes()[4] - b'0');
            Pop::new(name, exact(), staggered(24, 5, 240), move |_| {
                protocol_pick(pick)
            })
            .paused_at(&[120])
        }
        // Cohort-, kernel- and exact-path jobs side by side, so a snapshot
        // carries cohort draws, the kernel calendar and per-job state.
        "fidelity-mixed" => Pop::new(name, exact(), staggered(30, 7, 300), |s| {
            protocol_pick([5, 0, 2][s.id as usize % 3])
        })
        .paused_at(&[150]),
        "cohort-mixed" => Pop {
            name: name.into(),
            config: exact().cohort(),
            ..population("fidelity-mixed").unobservable()
        },
        "class-aloha" => {
            let pop = all(exact().cohort(), batch_of(80, 2_000), || {
                Box::new(ClassAloha(1.0 / 80.0))
            });
            pop.paused_at(&[400])
        }
        "metronome" => {
            let jobs = (0..20).map(|i| JobSpec::new(i, 3 * u64::from(i), 384 + 5 * u64::from(i)));
            let pop = all(exact(), jobs.collect(), || Box::new(Metronome::default()));
            pop.paused_at(&[40, 90, 150, 220, 300, 380])
        }
        "cohort-aligned" => all(
            EngineConfig::aligned().cohort(),
            batch_of(24, 512),
            aligned9,
        ),
        "cohort-punctual" => all(exact().cohort(), batch_of(6, 1 << 13), punctual),
        "cohort-aloha" => {
            let pop = all(exact().cohort(), batch_of(40, 300), || {
                Box::new(FixedProbability::new(0.02))
            });
            pop.unobservable()
        }
        other => panic!("no population named {other}"),
    }
}

/// One population under one adversary and seed. [`RESTORE`] and
/// [`BRANCH`] pause at `pause`, where a branch swaps in `swap`.
#[derive(Clone)]
pub struct Case {
    pub pop: Pop,
    pub adv: Adv,
    pub swap: Adv,
    pub seed: u64,
    pub pause: u64,
}

impl Case {
    /// `pop` under `adv` at `seed`; the pause is picked by seed and
    /// adversary, and a branch swaps in the adversary after `adv` in
    /// [`ALL`].
    pub fn new(pop: Pop, adv: Adv, seed: u64) -> Self {
        let at = ALL.split(' ').position(|n| n == adv.name).unwrap_or(0);
        Self {
            pause: pop.pauses[(seed as usize + at) % pop.pauses.len()],
            swap: jammer(ALL.split(' ').nth(at + 1).unwrap_or("clean")),
            pop,
            adv,
            seed,
        }
    }

    /// The same case at cohort fidelity, which probing would change.
    pub fn cohort(&self) -> Self {
        let mut twin = self.clone();
        twin.pop = twin.pop.unobservable();
        twin.pop.config = twin.pop.config.cohort();
        twin
    }

    fn supports(&self, v: u8) -> bool {
        (v & VECTORIZED == 0 || self.pop.config.fidelity == Fidelity::Exact)
            && (v & OBSERVED == 0 || self.pop.observable)
    }
}

impl fmt::Debug for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} jobs) jam={} seed={} pause={}",
            self.pop.name,
            self.pop.jobs.len(),
            self.adv.name,
            self.seed,
            self.pause
        )
    }
}

/// The case generator: every population × every adversary (both lists of
/// space-separated names) × every seed.
pub fn grid(pops: &str, advs: &'static str, seeds: Range<u64>) -> Vec<Case> {
    let mut cases = Vec::new();
    for name in pops.split(' ') {
        let pop = population(name);
        for adv in advs.split(' ') {
            for seed in seeds.clone() {
                cases.push(Case::new(pop.clone(), jammer(adv), seed));
            }
        }
    }
    cases
}

/// The random case generator: up to `max_jobs` jobs of the six
/// checkpointable protocols with releases in `0..releases` and one window
/// drawn from `windows`, at exact fidelity ([`Case::cohort`] is the cohort
/// twin), under a random adversary, seed and pause. The vendored proptest
/// does not shrink, so cases stay small by construction.
pub fn arb_case(
    max_jobs: usize,
    releases: u64,
    windows: impl Strategy<Value = u64>,
) -> impl Strategy<Value = Case> {
    (
        (0u64..1_000_000, 0usize..9, 0.05f64..0.95),
        windows,
        proptest::collection::vec((0usize..6, 0..releases), 1..max_jobs + 1),
    )
        .prop_map(move |((seed, adv, frac), w, jobs)| {
            let specs = (0..)
                .zip(&jobs)
                .map(|(i, &(_, r))| JobSpec::new(i, r, r + w));
            let picks: Vec<usize> = jobs.iter().map(|j| j.0).collect();
            let mut pop = Pop::new(
                "random",
                EngineConfig::default(),
                specs.collect(),
                move |s| protocol_pick(picks[s.id as usize]),
            );
            pop.pauses = vec![((releases + w) as f64 * frac) as u64];
            Case::new(pop, jammer(ALL.split(' ').nth(adv).expect("nine")), seed)
        })
}

/// Power-of-two windows `2^log` for `log` in the range.
pub fn pow2(log: Range<u32>) -> impl Strategy<Value = u64> {
    log.prop_map(|l| 1u64 << l)
}

/// Poll every job every slot.
pub const DENSE: u8 = 1;
/// Let the slot kernel own kernel-eligible jobs.
pub const VECTORIZED: u8 = 1 << 1;
/// Record a trace and attach event, Chrome and aggregate probe sinks.
pub const OBSERVED: u8 = 1 << 2;
/// Pause, snapshot, round-trip the checkpoint and restore.
pub const RESTORE: u8 = 1 << 3;
/// Fork the suffix through `run_branched`.
pub const BRANCH: u8 = 1 << 4;
/// Run on an engine reset after other trials.
pub const REUSE: u8 = 1 << 5;
/// The transforms that may change scheduling counters.
const SCHED: u8 = DENSE | VECTORIZED;

const TRANSFORMS: [u8; 6] = [DENSE, VECTORIZED, OBSERVED, RESTORE, BRANCH, REUSE];

/// Whether a run `got` with transform `t`, beside the run `want` without
/// it, shows that `t` did something (a case of a `cohort` population).
fn witnessed(t: u8, cohort: bool, got: &Seen, want: &Seen) -> bool {
    match t {
        DENSE => want.parked,
        VECTORIZED => got.activations < want.activations,
        OBSERVED if cohort => got.driver_record || got.refused,
        OBSERVED => got.event || got.refused,
        RESTORE | BRANCH => got.forked || got.refused,
        REUSE => got.reused,
        _ => unreachable!("{t} is not a transform"),
    }
}

/// Every transform alone and every pair of them, except `RESTORE |
/// BRANCH` (a branch already restores) and `BRANCH | REUSE` (a branch
/// builds its own engines).
pub fn pairwise() -> Vec<u8> {
    let mut out = TRANSFORMS.to_vec();
    for (i, &a) in TRANSFORMS.iter().enumerate() {
        out.extend(TRANSFORMS[i + 1..].iter().map(|&b| a | b));
    }
    out.retain(|&v| v != RESTORE | BRANCH && v != BRANCH | REUSE);
    out
}

fn label(v: u8) -> String {
    let names = "DENSE VECTORIZED OBSERVED RESTORE BRANCH REUSE".split(' ');
    let on: Vec<_> = names.enumerate().filter(|(i, _)| v >> i & 1 != 0).collect();
    let label = on.iter().map(|(_, n)| *n).collect::<Vec<_>>().join("|");
    if v == 0 {
        "plain".into()
    } else {
        label
    }
}

/// What one run showed, for the vacuity assertions: it `parked` a job
/// (asleep, which `SchedStats` counts, or through slots it hears) or
/// skipped a gap; it made `activations` exact-path `on_activate` calls; a
/// pause found it live and `forked` it, or its snapshot was `refused` as
/// `Unsupported`; a probe saw an `event`, or a job-less class
/// `driver_record`; its engine was `reused` after other trials.
#[derive(Default)]
struct Seen {
    parked: bool,
    activations: u64,
    forked: bool,
    refused: bool,
    event: bool,
    driver_record: bool,
    reused: bool,
}

/// One run of a case: its reports (two when a restore happened — the
/// restored engine's and the paused engine's) or the typed refusal.
struct Run {
    reports: Result<Vec<SimReport>, CheckpointError>,
    seen: Seen,
}

/// Run `case` under variant `v`; with `inline_swap`, swap in the branch
/// adversary at the pause, which is what [`BRANCH`] must reproduce.
fn run(case: &Case, v: u8, inline_swap: bool) -> Run {
    let pop = &case.pop;
    let mut config = pop.config.clone();
    if v & DENSE != 0 {
        config = config.dense();
    }
    if v & VECTORIZED != 0 {
        config = config.vectorized();
    }
    if v & OBSERVED != 0 {
        let sinks = [SinkSpec::Events, SinkSpec::ChromeTrace, SinkSpec::Aggregate];
        config = config
            .with_trace()
            .with_probe(sinks.into_iter().fold(ProbeSpec::new(), ProbeSpec::with));
    }
    let factory = |s: &JobSpec| watched(s, (pop.factory)(s));
    let reused = Cell::new(false);
    let build = || {
        let mut e = if v & REUSE != 0 {
            Engine::new(config.clone(), 0)
        } else {
            Engine::fresh(config.clone(), case.seed)
        };
        if v & REUSE != 0 {
            // An engine from the thread's arena pool, dirtied by two other
            // trials under other adversaries.
            for (adv, seed) in [(&case.swap, case.seed ^ 0x5eed), (&case.adv, !case.seed)] {
                e.reset(seed);
                e.set_jammer(adv.jammer());
                e.add_jobs(&pop.jobs, factory);
                e.run();
            }
            e.reset(case.seed);
            reused.set(true);
        }
        e.set_jammer(case.adv.jammer());
        e.add_jobs(&pop.jobs, factory);
        e
    };
    let finish = |mut e: Engine| {
        if inline_swap {
            e.run_to(case.pause);
            e.swap_adversary(case.swap.spec.adversary(), case.swap.p_jam);
        }
        e.finish()
    };
    take_watch();
    take_heard();
    let reports = if v & BRANCH != 0 {
        let branch = BranchSpec {
            label: case.swap.name.into(),
            adversary: case.swap.spec,
            p_jam: case.swap.p_jam,
        };
        run_branched(
            &config,
            case.seed,
            &pop.jobs,
            factory,
            &case.adv.spec,
            case.adv.p_jam,
            case.pause,
            &[branch],
        )
        .map(|out| out.reports)
    } else if v & RESTORE != 0 {
        let mut paused = build();
        paused.run_to(case.pause);
        match paused.snapshot() {
            Ok(ck) => {
                let json = serde_json::to_string(&ck).expect("serialize checkpoint");
                let back: Checkpoint = serde_json::from_str(&json).expect("checkpoint parses");
                assert_eq!(ck, back, "{case:?}: checkpoint JSON round trip");
                let mut resumed = build();
                let restored = resumed.restore(&back);
                restored.unwrap_or_else(|e| panic!("{case:?}: restore failed: {e}"));
                Ok(vec![finish(resumed), finish(paused)])
            }
            // The run ended before the pause; the split must still agree.
            Err(CheckpointError::Finished) => Ok(vec![finish(paused)]),
            Err(e) => Err(e),
        }
    } else {
        Ok(vec![finish(build())])
    };
    let mut seen = Seen {
        parked: take_heard().0 > 0,
        activations: take_watch().0,
        reused: reused.get(),
        ..Seen::default()
    };
    let refusable = v & (RESTORE | BRANCH) != 0 && (v & OBSERVED != 0 || !pop.restorable);
    match &reports {
        Ok(r) if v & OBSERVED == 0 || v & RESTORE == 0 || r.len() == 1 => {
            seen.forked = v & BRANCH != 0 || r.len() == 2;
        }
        Err(CheckpointError::Unsupported(_)) if refusable => seen.refused = true,
        Err(CheckpointError::Finished) if v & BRANCH != 0 => {}
        Ok(_) => panic!("{case:?} {}: an observed run was checkpointed", label(v)),
        Err(e) => panic!("{case:?} {}: unexpected checkpoint error {e}", label(v)),
    }
    for r in reports.iter().flatten() {
        seen.parked |= r.sched_stats.parks + r.sched_stats.gap_skips > 0;
        for rec in r.probes.iter().flat_map(|p| p.events().unwrap_or_default()) {
            seen.event = true;
            seen.driver_record |= rec.job.is_none();
        }
        if v & OBSERVED != 0 {
            let trace = r.trace().expect("an observed run keeps its trace");
            assert_eq!(tally(trace), r.counts, "{case:?} {}: trace tally", label(v));
            let covered: u64 = trace.iter().map(SlotRecord::covered_slots).sum();
            assert_eq!(
                covered,
                r.slots_run,
                "{case:?} {}: trace coverage",
                label(v)
            );
        }
    }
    Run { reports, seen }
}

/// The comparator: `r` serialized with `engine_nanos` zeroed and the
/// fields transform `t` may change masked (see the module docs).
fn canon(r: &SimReport, t: u8) -> String {
    let mut r = r.clone();
    r.engine_nanos = 0;
    if t & OBSERVED != 0 {
        r.probes = None;
    }
    let mut traced = Vec::new();
    if t & SCHED != 0 {
        r.sched_stats = SchedStats::default();
        // Silent stretches may be recorded as different run-length splits.
        for out in r.probes.iter_mut().flat_map(|p| &mut p.outputs) {
            if let ProbeOutput::Ring { records, .. } = out {
                traced.push(tally(records));
                records.clear();
            }
        }
    }
    let json = serde_json::to_string(&r).expect("report serializes");
    format!("{traced:?} {json}")
}

/// Check one case: compare it under each supported variant with the
/// variant minus each of its transforms. Returns, per variant, the
/// transforms needing a witness and those witnessed, but asserts none (a
/// single random case may legitimately never park or fork).
pub fn check_case(case: &Case, variants: &[u8]) -> Vec<(u8, u8)> {
    let mut memo: HashMap<(u8, bool), Run> = HashMap::new();
    let cohort = case.pop.config.fidelity == Fidelity::Cohort;
    let mut cells = vec![(0, 0); variants.len()];
    for (cell, &v) in cells.iter_mut().zip(variants) {
        if !case.supports(v) {
            continue;
        }
        // A gap skip may overshoot the pause, so where a swap lands depends
        // on scheduling: a branch is only compared with its inline swap.
        let ts = if v & BRANCH == 0 { v } else { v & !SCHED };
        // Probed jobs leave the kernel by design.
        cell.0 = if v & OBSERVED != 0 {
            ts & !VECTORIZED
        } else {
            ts
        };
        for t in TRANSFORMS.into_iter().filter(|&t| ts & t != 0) {
            let base = (v ^ t, t == BRANCH);
            for key in [(v, false), base] {
                memo.entry(key).or_insert_with(|| run(case, key.0, key.1));
            }
            let (got, want) = (&memo[&(v, false)], &memo[&base]);
            if witnessed(t, cohort, &got.seen, &want.seen) {
                cell.1 |= t;
            }
            let (Ok(got), Ok(want)) = (&got.reports, &want.reports) else {
                continue;
            };
            // Probing a vectorized run moves jobs off the kernel, so its
            // scheduling counters move too.
            let mask = t | if t == OBSERVED { v & VECTORIZED } else { 0 };
            let want = canon(&want[0], mask);
            for got in got.iter().map(|r| canon(r, mask)) {
                let pairs = got.bytes().zip(want.bytes());
                let at = pairs.take_while(|(a, b)| a == b).count();
                let near = |s: &str| s[at.saturating_sub(40)..(at + 80).min(s.len())].to_string();
                assert!(
                    got == want,
                    "{case:?}: {} diverges from {}{} (mask {}) at byte {at}:\n  got  …{}\n  want …{}",
                    label(v),
                    label(base.0),
                    if base.1 { " with an inline swap" } else { "" },
                    label(mask),
                    near(&got),
                    near(&want)
                );
            }
        }
    }
    cells
}

/// Check every case under every variant, then assert that each variant's
/// cell ran some case and showed every witness its cases need.
pub fn check(cases: &[Case], variants: &[u8]) {
    let mut cells = vec![(0, 0); variants.len()];
    for case in cases {
        for (cell, (need, seen)) in cells.iter_mut().zip(check_case(case, variants)) {
            *cell = (cell.0 | need, cell.1 | seen);
        }
    }
    for (&v, &(need, seen)) in variants.iter().zip(&cells) {
        assert!(need != 0, "{}: no case supports this cell", label(v));
        assert!(
            need & !seen == 0,
            "{}: vacuous cell, never witnessed {}",
            label(v),
            label(need & !seen)
        );
    }
}

/// The per-trial success fractions of `trials` runs of `pop` at
/// `fidelity` under adversary `adv`.
fn success_fractions(
    pop: &Pop,
    fidelity: Fidelity,
    adv: &'static str,
    trials: u64,
    seed: u64,
) -> Vec<f64> {
    let runs = run_trials(trials, seed, |_, seed| {
        let config = EngineConfig {
            fidelity,
            ..pop.config.clone()
        };
        let mut e = Engine::new(config, seed);
        e.set_jammer(jammer(adv).jammer());
        e.add_jobs(&pop.jobs, |s| (pop.factory)(s));
        e.run().success_fraction()
    });
    runs.into_iter().map(|t| t.value).collect()
}

/// Cluster-robust success-law comparison of cohort population `pop` with
/// the exact path, for protocols whose failures cluster by trial: ALIGNED
/// and PUNCTUAL share one estimate / one leader per class, so a bad draw
/// fails the whole class at once and job-level Wilson intervals are badly
/// miscalibrated (the 1440 "samples" are ~60 clusters). Compare mean
/// per-trial success fractions with trial-level standard errors instead —
/// an honest two-sample z-test on the cluster means.
pub fn assert_success_law_match(pop: &Pop, adv: &'static str, trials: u64, seed: u64) {
    let stat = |fidelity, seed| {
        let v = success_fractions(pop, fidelity, adv, trials, seed);
        let m = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (v.len() as f64 - 1.0);
        (m, (var / v.len() as f64).sqrt())
    };
    let (ma, sa) = stat(Fidelity::Exact, seed);
    let (mb, sb) = stat(pop.config.fidelity, seed + 7919);
    let tol = (5.0 * (sa + sb)).max(0.03);
    assert!(
        (ma - mb).abs() < tol,
        "{} jam={adv}: mean success fraction {ma:.4} vs {mb:.4} (tol {tol:.4})",
        pop.name
    );
}

/// Job-level Wilson comparison for protocols that are exactly the cohort
/// model: the success proportions of `trials` exact and cohort runs of
/// cohort population `pop` (from master seeds `seeds`) on a clean channel
/// must have overlapping Wilson intervals at quantile `z`.
pub fn assert_wilson_overlap(pop: &Pop, trials: u64, seeds: [u64; 2], z: f64) {
    let n = pop.jobs.len() as f64;
    let [(alo, ahi, a), (blo, bhi, b)] =
        [(Fidelity::Exact, seeds[0]), (pop.config.fidelity, seeds[1])].map(|(fidelity, seed)| {
            let hits: f64 = success_fractions(pop, fidelity, "clean", trials, seed)
                .iter()
                .map(|f| f * n)
                .sum();
            let p = Proportion::new(hits.round() as u64, trials * pop.jobs.len() as u64);
            let (lo, hi) = p.wilson(z);
            (lo, hi, p.estimate())
        });
    assert!(
        alo <= bhi && blo <= ahi,
        "{}: exact [{alo:.4}, {ahi:.4}] (p̂={a:.4}) vs cohort [{blo:.4}, {bhi:.4}] \
         (p̂={b:.4}) do not overlap",
        pop.name
    );
}

/// Proptest case count: `default`, overridable upward (or downward) via
/// the `PROPTEST_CASES` environment variable — the CI nightly job raises
/// it for release-mode deep runs of the matrix.
pub fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
