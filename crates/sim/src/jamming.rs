//! Jamming adversaries (Section 3, "Jamming") — stateless and adaptive.
//!
//! The paper's adversary "can look at slots and decide to create noise in
//! that slot, e.g., if a message is broadcast. (Here the adversary can even
//! look at the contents of the message itself.) If the adversary decides to
//! jam, the jamming succeeds with some constant probability `p_jam`."
//!
//! [`Jammer`] implements that interface: each slot, the adversary sees the
//! tentative channel resolution (including message content on a would-be
//! success) and decides whether to *attempt* a jam; an attempt succeeds with
//! probability `p_jam`. A successful jam turns the slot into noise.
//!
//! The *decision* side is open: anything implementing [`Adversary`] can
//! drive a [`Jammer`]. The five original fixed policies live on as the
//! (stateless) [`JamPolicy`] enum, which implements the trait; on top of
//! them this module provides the **stateful** adversaries the robustness
//! literature actually worries about:
//!
//! * [`BudgetedJammer`] — at most `B` jam attempts per run, spent greedily
//!   on every success or held back for data messages only;
//! * [`ReactiveJammer`] — watches the channel's phase structure (busy
//!   stretches separated by silence) and jams the first `k` successes of
//!   each stretch, mimicking the paper's "skew the estimate `n_ℓ` by
//!   jamming only some of the phases during the estimation protocol";
//! * [`GilbertElliott`] — a two-state Markov (good/bad) bursty channel
//!   fault model that strikes *every* slot while bad, idle ones included.
//!
//! ## RNG discipline
//!
//! The adversary layer draws from one counter-based position per slot:
//! the engine hands [`Jammer::jams`] a fresh [`crate::crng::CounterRng`]
//! at `(jam key, slot, Act)`, the jam key being the trial's
//! [`crate::rng::StreamLabel::Jammer`] seed (DESIGN.md §3f).
//! [`Adversary::attempts`] draws from it first, then the [`Jammer`]
//! wrapper draws the `p_jam` success coin. A slot's draws are a pure
//! function of its position, so no slot's randomness depends on which
//! slots ran before it. [`Adversary::attempts`] may draw on a silent slot
//! only when the implementation declares it via
//! [`Adversary::strikes_idle`] — the engine uses that declaration to
//! decide when fast-forwarding over silent stretches is safe, which is
//! what keeps the conformance matrix's `DENSE` column
//! (`tests/scheduling_equivalence.rs`) bit-exact.

use crate::job::JobId;
use crate::message::Payload;
use rand::{Rng, RngCore};
use serde::{DeError, Deserialize, Serialize, Value};

/// What the adversary sees before deciding to jam a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotView {
    /// Nobody is transmitting.
    Silent,
    /// Exactly one transmission; the adversary may read it.
    Single {
        /// Transmitting job.
        src: JobId,
        /// The message being sent.
        payload: Payload,
    },
    /// Already a collision (jamming is redundant but allowed).
    Collision {
        /// Number of simultaneous transmissions.
        n_tx: usize,
    },
}

/// The decision side of a jamming adversary: when to *attempt* a jam.
///
/// Implementations may keep arbitrary state and react to everything they
/// observe through [`attempts`] — the paper's adversary sees the tentative
/// slot resolution, message contents included. The contract with the
/// engine:
///
/// * **RNG discipline.** [`attempts`] may draw from the slot's jammer
///   position freely on slots with a transmission. On a [`SlotView::Silent`]
///   slot it may draw (or attempt) **only if** [`strikes_idle`] returns
///   `true`; declaring `false` while drawing on silence desynchronizes
///   event-driven and dense scheduling.
/// * **Silent-gap replay.** When [`strikes_idle`] is `false` the engine
///   may skip stretches of provably silent slots in O(1) and report them
///   via [`on_silent_gap`]. The implementation must leave itself in
///   exactly the state that `gap` consecutive `attempts(Silent, ..)` calls
///   (all returning `false`) would have produced.
/// * **Idle striking.** When [`strikes_idle`] is `true` the engine runs
///   every slot with live jobs one by one, so the adversary sees each
///   silent slot individually; [`on_silent_gap`] is then only invoked for
///   stretches with *no* live job, which both scheduling modes skip
///   identically.
///
/// [`attempts`]: Adversary::attempts
/// [`strikes_idle`]: Adversary::strikes_idle
/// [`on_silent_gap`]: Adversary::on_silent_gap
pub trait Adversary: std::fmt::Debug + Send + Sync {
    /// Decide whether to attempt a jam in a slot that would resolve as
    /// `view`. Called once per simulated slot (in slot order) with the
    /// adversary's private randomness.
    fn attempts(&mut self, view: SlotView, rng: &mut dyn RngCore) -> bool;

    /// True when this adversary can attempt a jam (and therefore draws
    /// randomness) on a slot with no transmission. Such adversaries make
    /// even silent stretches observable, so the engine must not
    /// fast-forward across them while parked jobs are still live.
    fn strikes_idle(&self) -> bool {
        false
    }

    /// Bulk notification that the engine skipped `gap` consecutive silent
    /// slots (only ever called when [`Adversary::strikes_idle`] permits the
    /// skip, or when no job was live). Must be equivalent to `gap`
    /// rejected `attempts(SlotView::Silent, ..)` calls.
    fn on_silent_gap(&mut self, _gap: u64) {}

    /// Capture the adversary's state for [`crate::checkpoint`], typically
    /// as its derived serde value. A restore rebuilds the adversary from
    /// its [`AdversarySpec`] and decodes the value over it. The default
    /// (`null`) is correct for stateless adversaries like the fixed
    /// [`JamPolicy`] menu; stateful implementations must override both
    /// methods. Returning `None` declares the adversary non-checkpointable.
    fn save_state(&self) -> Option<Value> {
        Some(Value::Null)
    }

    /// Restore the state captured by [`Adversary::save_state`] onto a
    /// freshly constructed instance. The value is outside input: refuse a
    /// malformed one, including one that breaks an invariant the
    /// constructor asserts (a stateless adversary accepts only `null`).
    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        match state {
            Value::Null => Ok(()),
            other => Err(DeError::msg(format!(
                "stateless adversary got {}",
                other.kind()
            ))),
        }
    }

    /// Clone into a boxed trait object (drives `Jammer: Clone`).
    fn clone_box(&self) -> Box<dyn Adversary>;
}

/// The stateless fixed policies (the original adversary menu). Each is a
/// pure function of the current slot view, so they double as the
/// serializable "policy" vocabulary of experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JamPolicy {
    /// Never jam (the clean channel of Sections 2 and 4).
    Never,
    /// Attempt to jam every slot that would otherwise be a success.
    AllSuccesses,
    /// Attempt to jam only successful **control** messages — the paper's
    /// example of an adversary trying to "skew the estimate `n_ℓ` by jamming
    /// only some of the phases during the estimation protocol".
    ControlOnly,
    /// Attempt to jam only successful **data** messages (attacks delivery
    /// directly, leaving coordination intact).
    DataOnly,
    /// Attempt to jam every slot (even silence) with probability `attempt`.
    Random {
        /// Probability of deciding to attempt a jam in a slot.
        attempt: f64,
    },
}

impl Adversary for JamPolicy {
    fn attempts(&mut self, view: SlotView, rng: &mut dyn RngCore) -> bool {
        match (*self, view) {
            (JamPolicy::Never, _) => false,
            (JamPolicy::AllSuccesses, SlotView::Single { .. }) => true,
            (JamPolicy::AllSuccesses, _) => false,
            (JamPolicy::ControlOnly, SlotView::Single { payload, .. }) => !payload.is_data(),
            (JamPolicy::ControlOnly, _) => false,
            (JamPolicy::DataOnly, SlotView::Single { payload, .. }) => payload.is_data(),
            (JamPolicy::DataOnly, _) => false,
            (JamPolicy::Random { attempt }, _) => rng.gen_bool(attempt),
        }
    }

    fn strikes_idle(&self) -> bool {
        matches!(self, JamPolicy::Random { .. })
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(*self)
    }
}

/// A jammer with a finite ammunition budget: at most `budget` jam
/// *attempts* per run (attempts are spent whether or not the `p_jam` coin
/// lands). `data_only` switches from greedy spending (any would-be
/// success) to the adaptive variant that saves every shot for data
/// messages — coordination traffic passes untouched while delivery is
/// attacked with the full budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetedJammer {
    budget: u64,
    spent: u64,
    data_only: bool,
}

impl BudgetedJammer {
    /// An adversary with `budget` jam attempts; greedy when `data_only` is
    /// false, data-targeted when true.
    pub fn new(budget: u64, data_only: bool) -> Self {
        Self {
            budget,
            spent: 0,
            data_only,
        }
    }

    /// Attempts spent so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// The configured attempt budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

impl Adversary for BudgetedJammer {
    fn attempts(&mut self, view: SlotView, _rng: &mut dyn RngCore) -> bool {
        if self.spent >= self.budget {
            return false;
        }
        let target = match view {
            SlotView::Single { payload, .. } => !self.data_only || payload.is_data(),
            _ => false,
        };
        if target {
            self.spent += 1;
        }
        target
    }

    fn save_state(&self) -> Option<Value> {
        Some(self.to_value())
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        *self = Self::from_value(state)?;
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(*self)
    }
}

/// A reactive jammer that targets the phase structure it observes. The
/// channel's activity alternates between busy stretches (estimation
/// windows, broadcast phases) and silence; this adversary treats any run
/// of `reset_gap` consecutive silent slots as a phase boundary and jams
/// the first `k` would-be successes of each new stretch — the paper's
/// "skew the estimate `n_ℓ`" attack, aimed at the early pings that anchor
/// each estimation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReactiveJammer {
    k: u64,
    reset_gap: u64,
    jammed_this_phase: u64,
    silent_run: u64,
}

impl ReactiveJammer {
    /// Jam the first `k` successes of each busy stretch; a run of
    /// `reset_gap` silent slots starts a new stretch. `reset_gap` must be
    /// at least 1 (a zero gap would re-arm every slot).
    pub fn new(k: u64, reset_gap: u64) -> Self {
        assert!(reset_gap >= 1, "reset_gap must be >= 1");
        Self {
            k,
            reset_gap,
            jammed_this_phase: 0,
            silent_run: 0,
        }
    }
}

impl Adversary for ReactiveJammer {
    fn attempts(&mut self, view: SlotView, _rng: &mut dyn RngCore) -> bool {
        match view {
            SlotView::Silent => {
                self.silent_run = self.silent_run.saturating_add(1);
                if self.silent_run >= self.reset_gap {
                    self.jammed_this_phase = 0;
                }
                false
            }
            SlotView::Single { .. } => {
                self.silent_run = 0;
                if self.jammed_this_phase < self.k {
                    self.jammed_this_phase += 1;
                    true
                } else {
                    false
                }
            }
            SlotView::Collision { .. } => {
                self.silent_run = 0;
                false
            }
        }
    }

    fn on_silent_gap(&mut self, gap: u64) {
        // Identical to `gap` rejected Silent attempts: the run grows, and
        // once it crosses the threshold the phase counter re-arms (the
        // reset is idempotent, so crossing it mid-gap changes nothing).
        self.silent_run = self.silent_run.saturating_add(gap);
        if self.silent_run >= self.reset_gap {
            self.jammed_this_phase = 0;
        }
    }

    fn save_state(&self) -> Option<Value> {
        Some(self.to_value())
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let saved = Self::from_value(state)?;
        if saved.reset_gap == 0 {
            return Err(DeError::msg("reactive jammer reset_gap must be >= 1"));
        }
        *self = saved;
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(*self)
    }
}

/// A Gilbert–Elliott bursty-noise channel: a two-state Markov chain
/// (good/bad) advanced once per slot; while in the bad state the channel
/// attempts to strike **every** slot, idle ones included. Mean burst
/// length is `1/p_exit` and the stationary bad-state fraction is
/// `p_enter / (p_enter + p_exit)`.
///
/// Because the state transition draws randomness every slot regardless of
/// traffic, this adversary is idle-striking: the engine must visit every
/// slot with live jobs individually (no silent-gap fast-forward).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GilbertElliott {
    p_enter: f64,
    p_exit: f64,
    bad: bool,
}

impl GilbertElliott {
    /// A channel that enters the bad state with probability `p_enter` per
    /// good slot and leaves it with probability `p_exit` per bad slot;
    /// starts good.
    pub fn new(p_enter: f64, p_exit: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_enter) && (0.0..=1.0).contains(&p_exit),
            "transition probabilities must be in [0,1]"
        );
        Self {
            p_enter,
            p_exit,
            bad: false,
        }
    }

    /// The Gilbert–Elliott parameters hitting a stationary bad-state
    /// fraction `duty` with mean burst length `burst_len` slots.
    pub fn with_duty(duty: f64, burst_len: f64) -> Self {
        assert!((0.0..1.0).contains(&duty), "duty must be in [0,1)");
        assert!(burst_len >= 1.0, "mean burst length must be >= 1");
        let p_exit = 1.0 / burst_len;
        let p_enter = (p_exit * duty / (1.0 - duty)).min(1.0);
        Self::new(p_enter, p_exit)
    }

    /// True while the channel is in its bad (striking) state.
    pub fn is_bad(&self) -> bool {
        self.bad
    }
}

impl Adversary for GilbertElliott {
    fn attempts(&mut self, _view: SlotView, rng: &mut dyn RngCore) -> bool {
        let flip_p = if self.bad { self.p_exit } else { self.p_enter };
        if rng.gen_bool(flip_p) {
            self.bad = !self.bad;
        }
        self.bad
    }

    fn strikes_idle(&self) -> bool {
        true
    }

    fn save_state(&self) -> Option<Value> {
        Some(self.to_value())
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let saved = Self::from_value(state)?;
        if ![saved.p_enter, saved.p_exit]
            .iter()
            .all(|p| (0.0..=1.0).contains(p))
        {
            return Err(DeError::msg("transition probabilities must be in [0,1]"));
        }
        *self = saved;
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(*self)
    }
}

/// A serializable description of an adversary configuration — the form
/// experiment configs and attack-paired workloads archive next to their
/// JSON artifacts. [`AdversarySpec::jammer`] instantiates it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdversarySpec {
    /// One of the stateless fixed policies.
    Policy(JamPolicy),
    /// [`BudgetedJammer`] with the given attempt budget.
    Budgeted {
        /// Maximum jam attempts per run.
        budget: u64,
        /// Save every attempt for data messages.
        data_only: bool,
    },
    /// [`ReactiveJammer`] jamming the first `k` successes per busy stretch.
    Reactive {
        /// Successes jammed per observed phase.
        k: u64,
        /// Silent-run length that marks a phase boundary.
        reset_gap: u64,
    },
    /// [`GilbertElliott`] bursty channel faults.
    Bursty {
        /// Good→bad transition probability per slot.
        p_enter: f64,
        /// Bad→good transition probability per slot.
        p_exit: f64,
    },
}

impl AdversarySpec {
    /// Build the described adversary, bare. Pair with
    /// [`Jammer::swap_adversary`] to perturb a restored run at a
    /// checkpoint branch point.
    pub fn adversary(&self) -> Box<dyn Adversary> {
        match *self {
            AdversarySpec::Policy(policy) => Box::new(policy),
            AdversarySpec::Budgeted { budget, data_only } => {
                Box::new(BudgetedJammer::new(budget, data_only))
            }
            AdversarySpec::Reactive { k, reset_gap } => Box::new(ReactiveJammer::new(k, reset_gap)),
            AdversarySpec::Bursty { p_enter, p_exit } => {
                Box::new(GilbertElliott::new(p_enter, p_exit))
            }
        }
    }

    /// Build the described adversary wrapped in a [`Jammer`] with jam
    /// success probability `p_jam`.
    pub fn jammer(&self, p_jam: f64) -> Jammer {
        Jammer::adaptive(self.adversary(), p_jam)
    }
}

/// A stochastic jamming adversary: an [`Adversary`] deciding *when* to
/// attempt, plus the paper's `p_jam` success coin and attempt/success
/// accounting.
#[derive(Debug)]
pub struct Jammer {
    adversary: Box<dyn Adversary>,
    /// Probability that an attempted jam succeeds (paper's `p_jam`).
    p_jam: f64,
    jams_attempted: u64,
    jams_succeeded: u64,
}

impl Clone for Jammer {
    fn clone(&self) -> Self {
        Self {
            adversary: self.adversary.clone_box(),
            p_jam: self.p_jam,
            jams_attempted: self.jams_attempted,
            jams_succeeded: self.jams_succeeded,
        }
    }
}

impl Jammer {
    /// Build a fixed-policy adversary. `p_jam` must be in `[0, 1]`; the
    /// paper's analysis assumes `p_jam <= 1/2` but the simulator permits
    /// the full range so the breakdown regime can be explored.
    pub fn new(policy: JamPolicy, p_jam: f64) -> Self {
        Self::adaptive(Box::new(policy), p_jam)
    }

    /// Build a jammer around any [`Adversary`] implementation.
    pub fn adaptive(adversary: Box<dyn Adversary>, p_jam: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_jam), "p_jam must be in [0,1]");
        Self {
            adversary,
            p_jam,
            jams_attempted: 0,
            jams_succeeded: 0,
        }
    }

    /// The adversary that never interferes.
    pub fn none() -> Self {
        Self::new(JamPolicy::Never, 0.0)
    }

    /// Decide whether this slot is jammed. Called once per slot by the
    /// engine with the slot's jammer position; the adversary draws first,
    /// then the `p_jam` coin.
    pub fn jams(&mut self, view: SlotView, rng: &mut dyn RngCore) -> bool {
        if !self.adversary.attempts(view, rng) {
            return false;
        }
        self.jams_attempted += 1;
        let success = rng.gen_bool(self.p_jam);
        if success {
            self.jams_succeeded += 1;
        }
        success
    }

    /// Number of jam attempts so far.
    pub fn attempted(&self) -> u64 {
        self.jams_attempted
    }

    /// Number of successful jams so far.
    pub fn succeeded(&self) -> u64 {
        self.jams_succeeded
    }

    /// The configured `p_jam`.
    pub fn p_jam(&self) -> f64 {
        self.p_jam
    }

    /// True when the adversary can attempt a jam (and therefore draws
    /// randomness) on a slot with no transmission. Such adversaries make
    /// even silent stretches observable, so the engine must not
    /// fast-forward across them while parked jobs are still live.
    pub fn strikes_idle(&self) -> bool {
        self.adversary.strikes_idle()
    }

    /// Forward an engine fast-forward over `gap` silent slots to the
    /// adversary (see [`Adversary::on_silent_gap`]).
    pub fn on_silent_gap(&mut self, gap: u64) {
        self.adversary.on_silent_gap(gap);
    }

    /// Capture the adversary's state for a checkpoint (see
    /// [`Adversary::save_state`]). `None` means this jammer cannot be
    /// checkpointed.
    pub fn adversary_state(&self) -> Option<Value> {
        self.adversary.save_state()
    }

    /// Restore the jam counters and adversary state captured by a
    /// checkpoint. The adversary itself must already be built from the
    /// same spec as the one that was snapshotted, with the same `p_jam`.
    /// Fails when the adversary refuses its state.
    pub fn restore(
        &mut self,
        attempted: u64,
        succeeded: u64,
        adversary: &Value,
    ) -> Result<(), DeError> {
        self.adversary.restore_state(adversary)?;
        self.jams_attempted = attempted;
        self.jams_succeeded = succeeded;
        Ok(())
    }

    /// Replace the adversary (and its `p_jam`) mid-run, keeping the jam
    /// counters. This is the branch point of a checkpointed sweep: a
    /// restored engine swaps in a perturbed adversary before resuming, so
    /// the suffix diverges while the shared prefix's accounting carries
    /// over.
    pub fn swap_adversary(&mut self, adversary: Box<dyn Adversary>, p_jam: f64) {
        assert!((0.0..=1.0).contains(&p_jam), "p_jam must be in [0,1]");
        self.adversary = adversary;
        self.p_jam = p_jam;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crng::{CounterRng, Phase};
    use crate::message::ControlMsg;
    use crate::rng::{SeedSeq, StreamLabel};

    /// One long jammer position (2^62 words), read as a stream.
    fn rng() -> CounterRng {
        CounterRng::new(
            SeedSeq::new(123).derive(StreamLabel::Jammer, 0),
            0,
            Phase::Act,
        )
    }

    fn single_data() -> SlotView {
        SlotView::Single {
            src: 0,
            payload: Payload::Data(0),
        }
    }

    fn single_control() -> SlotView {
        SlotView::Single {
            src: 0,
            payload: Payload::Control(ControlMsg::of_kind(1)),
        }
    }

    #[test]
    fn never_policy_never_jams() {
        let mut j = Jammer::none();
        let mut r = rng();
        for _ in 0..100 {
            assert!(!j.jams(single_data(), &mut r));
        }
        assert_eq!(j.attempted(), 0);
    }

    #[test]
    fn p_jam_one_always_succeeds_on_successes() {
        let mut j = Jammer::new(JamPolicy::AllSuccesses, 1.0);
        let mut r = rng();
        for _ in 0..50 {
            assert!(j.jams(single_data(), &mut r));
            assert!(!j.jams(SlotView::Silent, &mut r));
        }
        assert_eq!(j.succeeded(), 50);
    }

    #[test]
    fn control_only_ignores_data() {
        let mut j = Jammer::new(JamPolicy::ControlOnly, 1.0);
        let mut r = rng();
        assert!(!j.jams(single_data(), &mut r));
        assert!(j.jams(single_control(), &mut r));
    }

    #[test]
    fn data_only_ignores_control() {
        let mut j = Jammer::new(JamPolicy::DataOnly, 1.0);
        let mut r = rng();
        assert!(j.jams(single_data(), &mut r));
        assert!(!j.jams(single_control(), &mut r));
    }

    #[test]
    fn jam_success_rate_tracks_p_jam() {
        let mut j = Jammer::new(JamPolicy::AllSuccesses, 0.5);
        let mut r = rng();
        let n: u32 = 20_000;
        let mut wins = 0u32;
        for _ in 0..n {
            if j.jams(single_data(), &mut r) {
                wins += 1;
            }
        }
        let rate = f64::from(wins) / f64::from(n);
        assert!((rate - 0.5).abs() < 0.02, "rate={rate}");
        assert_eq!(j.attempted(), u64::from(n));
    }

    #[test]
    #[should_panic(expected = "p_jam")]
    fn invalid_p_jam_rejected() {
        let _ = Jammer::new(JamPolicy::Never, 1.5);
    }

    #[test]
    fn only_random_policy_strikes_idle() {
        for (policy, idle) in [
            (JamPolicy::Never, false),
            (JamPolicy::AllSuccesses, false),
            (JamPolicy::ControlOnly, false),
            (JamPolicy::DataOnly, false),
            (JamPolicy::Random { attempt: 0.2 }, true),
        ] {
            assert_eq!(Jammer::new(policy, 0.5).strikes_idle(), idle, "{policy:?}");
        }
    }

    #[test]
    fn budgeted_jammer_exhausts_its_budget() {
        let mut j = Jammer::adaptive(Box::new(BudgetedJammer::new(3, false)), 1.0);
        let mut r = rng();
        let mut jams = 0;
        for _ in 0..10 {
            if j.jams(single_data(), &mut r) {
                jams += 1;
            }
        }
        assert_eq!(jams, 3);
        assert_eq!(j.attempted(), 3);
        assert!(!j.strikes_idle());
    }

    #[test]
    fn budgeted_data_only_saves_shots_for_data() {
        let mut j = Jammer::adaptive(Box::new(BudgetedJammer::new(2, true)), 1.0);
        let mut r = rng();
        // Control traffic passes; both shots land on the data messages.
        assert!(!j.jams(single_control(), &mut r));
        assert!(j.jams(single_data(), &mut r));
        assert!(!j.jams(single_control(), &mut r));
        assert!(j.jams(single_data(), &mut r));
        assert!(!j.jams(single_data(), &mut r));
        assert_eq!(j.attempted(), 2);
    }

    #[test]
    fn reactive_jammer_targets_phase_starts() {
        let mut j = Jammer::adaptive(Box::new(ReactiveJammer::new(2, 3)), 1.0);
        let mut r = rng();
        // First phase: the first two successes are jammed, the third passes.
        assert!(j.jams(single_control(), &mut r));
        assert!(j.jams(single_control(), &mut r));
        assert!(!j.jams(single_control(), &mut r));
        // Two silent slots: not yet a phase boundary.
        assert!(!j.jams(SlotView::Silent, &mut r));
        assert!(!j.jams(SlotView::Silent, &mut r));
        assert!(!j.jams(single_control(), &mut r));
        // Three silent slots re-arm the jammer.
        for _ in 0..3 {
            assert!(!j.jams(SlotView::Silent, &mut r));
        }
        assert!(j.jams(single_control(), &mut r));
    }

    #[test]
    fn reactive_gap_replay_matches_slot_by_slot() {
        // Bulk notification must be indistinguishable from dense silence.
        let mut dense = ReactiveJammer::new(1, 5);
        let mut bulk = dense;
        let mut r1 = rng();
        let mut r2 = rng();
        // Spend the phase budget in both.
        assert!(dense.attempts(single_data(), &mut r1));
        assert!(bulk.attempts(single_data(), &mut r2));
        for _ in 0..7 {
            assert!(!dense.attempts(SlotView::Silent, &mut r1));
        }
        bulk.on_silent_gap(7);
        assert_eq!(dense, bulk);
        assert!(dense.attempts(single_data(), &mut r1));
        assert!(bulk.attempts(single_data(), &mut r2));
    }

    #[test]
    fn gilbert_elliott_strikes_idle_and_bursts() {
        let mut j = Jammer::adaptive(Box::new(GilbertElliott::new(0.3, 0.3)), 1.0);
        assert!(j.strikes_idle());
        let mut r = rng();
        let mut jammed_silent = 0u32;
        for _ in 0..2_000 {
            if j.jams(SlotView::Silent, &mut r) {
                jammed_silent += 1;
            }
        }
        // Stationary bad fraction 0.5 with p_jam = 1: about half the
        // silent slots are struck.
        assert!(
            (800..1200).contains(&jammed_silent),
            "jammed {jammed_silent}/2000"
        );
    }

    #[test]
    fn gilbert_elliott_duty_parameterization() {
        let ge = GilbertElliott::with_duty(0.25, 8.0);
        // p_exit = 1/8; p_enter = (1/8)(0.25/0.75) = 1/24; stationary bad
        // fraction p_enter/(p_enter+p_exit) = 0.25.
        assert!((ge.p_exit - 0.125).abs() < 1e-12);
        let duty = ge.p_enter / (ge.p_enter + ge.p_exit);
        assert!((duty - 0.25).abs() < 1e-12, "duty={duty}");
        assert!(!ge.is_bad());
    }

    #[test]
    fn adversary_spec_builds_matching_jammers() {
        let specs = [
            AdversarySpec::Policy(JamPolicy::AllSuccesses),
            AdversarySpec::Budgeted {
                budget: 4,
                data_only: true,
            },
            AdversarySpec::Reactive { k: 2, reset_gap: 8 },
            AdversarySpec::Bursty {
                p_enter: 0.1,
                p_exit: 0.4,
            },
        ];
        for spec in specs {
            let j = spec.jammer(0.5);
            assert!((j.p_jam() - 0.5).abs() < 1e-12);
            // Only the bursty channel draws on idle slots.
            assert_eq!(
                j.strikes_idle(),
                matches!(spec, AdversarySpec::Bursty { .. }),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn cloned_jammer_replays_identically() {
        let mut a = Jammer::adaptive(Box::new(ReactiveJammer::new(2, 4)), 0.7);
        let mut r = rng();
        let _ = a.jams(single_data(), &mut r);
        let mut b = a.clone();
        let mut r1 = rng();
        let mut r2 = r1.clone();
        for _ in 0..50 {
            assert_eq!(
                a.jams(single_data(), &mut r1),
                b.jams(single_data(), &mut r2)
            );
        }
        assert_eq!(a.attempted(), b.attempted());
    }
}
