//! The PUNCTUAL job automaton (Figure 2 of the paper).
//!
//! States: round synchronization (`SyncListen` → `SyncAnnounce`),
//! SLINGSHOT (pullback claims in election slots), FOLLOW-THE-LEADER
//! (embedded [`AlignedJob`] in virtual round time), BECOME-LEADER
//! (timekeeper beacons, deposition, abdication), and the anarchist
//! fallback. See the [module docs](crate::punctual) for the engineering
//! resolutions where the paper under-specifies.

use crate::aligned::protocol::AlignedJob;
use crate::punctual::cohort::{punctual_class_tag, PunctualCohort};
use crate::punctual::messages::PunctualMsg;
use crate::punctual::params::{slot_role, PunctualParams, SlotRole, ROUND_LEN};
use crate::punctual::trim::trim_class;
use dcr_sim::classes::{ClassCtx, ClassDriver};
use dcr_sim::engine::{Action, CohortTx, DutyCycle, JobCtx, Protocol};
use dcr_sim::message::Payload;
use dcr_sim::probe::{EventBuf, ProbeEvent};
use dcr_sim::slot::Feedback;
use rand::{Rng, RngCore};

/// The shared virtual clock learned from (or established by) a leader.
/// `pub(crate)` so the aggregate cohort driver can mirror it and hand it
/// to an ejected leader.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clock {
    /// Alignment-domain identifier.
    pub(crate) epoch: u64,
    /// Round counter value at `base_local`'s round.
    pub(crate) rho_base: u64,
    /// A local slot known to be a round start where `rho_base` held.
    pub(crate) base_local: u64,
}

impl Clock {
    /// The round counter for the round starting at `round_start_local`.
    /// Self-advances between beacons: followers keep counting rounds even
    /// through leaderless stretches (engineering resolution #3).
    pub(crate) fn rho(&self, round_start_local: u64) -> u64 {
        debug_assert!(round_start_local >= self.base_local);
        self.rho_base + (round_start_local - self.base_local) / ROUND_LEN
    }
}

/// Leader sub-phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeaderPhase {
    /// Won the claim; keep one timekeeper slot free for the old leader's
    /// handoff before beaconing.
    Takeover { timekeepers_to_skip: u8 },
    /// Beaconing every timekeeper slot.
    Active,
    /// Deposed: transmit the data handoff in the next timekeeper slot.
    HandingOff,
}

#[derive(Debug)]
enum State {
    /// Listening for a busy run followed by silence (the start pair plus
    /// the guaranteed-silent guard slot behind it). The paper synchronizes
    /// on "two consecutive slots with messages or collisions", but an
    /// anarchist firing in the round's last slot makes (anarchy, start)
    /// busy pairs too; waiting for the trailing silence disambiguates —
    /// busy runs always end at round position 1, so the anchor is the
    /// run's last slot minus 1.
    SyncListen {
        waited: u64,
        prev_busy: bool,
        prev2_busy: bool,
    },
    /// Initiating a round train: transmit two start messages.
    SyncAnnounce { sent: u8 },
    /// SLINGSHOT: pullback claims, watching the timekeeper for leaders.
    Slingshot {
        /// Election slots left in the pullback budget.
        claims_left: u64,
        /// Heard someone else's successful claim with a deadline at least
        /// ours; stop claiming and wait for their beacon.
        waiting_beacon: bool,
        /// Timekeeper slots waited while `waiting_beacon`.
        waiting_rounds: u32,
        /// Set in an election slot when this job transmitted a claim.
        claimed: bool,
    },
    /// FOLLOW-THE-LEADER: run ALIGNED in virtual time. Boxed, so the
    /// follower's state does not size every job's.
    Follow {
        trim_start: u64,
        class: u32,
        job: Option<Box<AlignedJob>>,
    },
    /// BECOME-LEADER.
    Leader { phase: LeaderPhase },
    /// Released the slingshot: transmit data in anarchy slots.
    Anarchist,
    /// Succeeded (or irrecoverably finished).
    Done,
}

/// Fresh SLINGSHOT state with a full pullback budget.
fn slingshot_state(params: &PunctualParams, window: u64) -> State {
    State::Slingshot {
        claims_left: params.pullback_election_slots(window),
        waiting_beacon: false,
        waiting_rounds: 0,
        claimed: false,
    }
}

/// FOLLOW state for a virtual window of `rem_v` rounds starting at the
/// round counter `rho_now`; anarchist fallback when the trimmed class is
/// below the ALIGNED floor.
fn follow_state(params: &PunctualParams, rho_now: u64, rem_v: u64) -> State {
    match trim_class(rho_now, rho_now.saturating_add(rem_v)) {
        Some((trim_start, class)) if class >= params.aligned.min_class => State::Follow {
            trim_start,
            class,
            job: None,
        },
        _ => State::Anarchist,
    }
}

/// Short stable label for a state, used for probe phase spans. One label
/// per top-level state: leader sub-phases and slingshot flags are details
/// a trace reader does not need as separate tracks.
fn state_tag(state: &State) -> &'static str {
    match state {
        State::SyncListen { .. } => "sync-listen",
        State::SyncAnnounce { .. } => "sync-announce",
        State::Slingshot { .. } => "slingshot",
        State::Follow { .. } => "follow",
        State::Leader { .. } => "leader",
        State::Anarchist => "anarchist",
        State::Done => "done",
    }
}

/// The PUNCTUAL protocol for one job. Implements
/// [`dcr_sim::engine::Protocol`]; requires **no** aligned clock from the
/// engine.
#[derive(Debug)]
pub struct PunctualProtocol {
    params: PunctualParams,
    state: State,
    /// A local slot index known to be a round start (once synchronized).
    anchor: Option<u64>,
    clock: Option<Clock>,
    succeeded: bool,
    last_prob: f64,
    /// Window the cached probabilities below were computed for (0 = none).
    /// `claim_probability`/`anarchy_probability` cost a `log2` + `powi`
    /// and depend only on the (per-job constant) window, so the hot
    /// election/anarchy branches read these instead of libm.
    prob_window: u64,
    claim_p: f64,
    anarchy_p: f64,
    /// Probe event buffer; disarmed (and free) unless the engine asks.
    probe: EventBuf,
}

impl PunctualProtocol {
    /// Build the protocol.
    pub fn new(params: PunctualParams) -> Self {
        Self {
            params,
            state: State::SyncListen {
                waited: 0,
                prev_busy: false,
                prev2_busy: false,
            },
            anchor: None,
            clock: None,
            succeeded: false,
            last_prob: 0.0,
            prob_window: 0,
            claim_p: 0.0,
            anarchy_p: 0.0,
            probe: EventBuf::default(),
        }
    }

    /// A job ejected from an aggregate class after winning an election:
    /// it enters exactly the state its exact-path twin would hold after a
    /// successful claim — `Leader(Takeover)` with one timekeeper left for
    /// the (nonexistent, in the from-scratch case) old leader's handoff.
    /// `anchor_local` is the round anchor in the job's local time and
    /// `clock` whatever virtual clock the aggregate had mirrored.
    pub(crate) fn leader_takeover(
        params: PunctualParams,
        anchor_local: u64,
        clock: Option<Clock>,
        probed: bool,
    ) -> Self {
        let mut p = Self::new(params);
        p.state = State::Leader {
            phase: LeaderPhase::Takeover {
                timekeepers_to_skip: 1,
            },
        };
        p.anchor = Some(anchor_local);
        p.clock = clock;
        if probed {
            p.probe.arm();
            p.probe.phase(state_tag(&p.state));
        }
        p
    }

    /// Factory closure for [`dcr_sim::engine::Engine::add_jobs`].
    pub fn factory(
        params: PunctualParams,
    ) -> impl FnMut(&dcr_sim::job::JobSpec) -> Box<dyn Protocol> {
        move |_spec| Box::new(PunctualProtocol::new(params))
    }

    /// True once this job delivered its data message.
    pub fn has_succeeded(&self) -> bool {
        self.succeeded
    }

    /// The (claim, anarchy) transmission probabilities for `window`,
    /// computed once per job instead of once per election/anarchy slot.
    #[inline]
    fn cached_probs(&mut self, window: u64) -> (f64, f64) {
        if self.prob_window != window {
            self.prob_window = window;
            self.claim_p = self.params.claim_probability(window);
            self.anarchy_p = self.params.anarchy_probability(window);
        }
        (self.claim_p, self.anarchy_p)
    }

    /// True while the job is an anarchist (diagnostic for experiments).
    pub fn is_anarchist(&self) -> bool {
        matches!(self.state, State::Anarchist)
    }

    /// True while the job is the (active or taking-over) leader.
    pub fn is_leader(&self) -> bool {
        matches!(self.state, State::Leader { .. })
    }

    /// Position of local slot `l` within its round.
    fn pos(&self, l: u64) -> u64 {
        let anchor = self.anchor.expect("synchronized");
        (l - anchor) % ROUND_LEN
    }

    /// Rounds remaining in this job's window from local slot `l`.
    fn remaining_rounds(&self, ctx: &JobCtx, l: u64) -> u64 {
        (ctx.window - l) / ROUND_LEN
    }

    /// Timekeeper-slot bookkeeping shared by several states.
    fn on_timekeeper(&mut self, ctx: &JobCtx, l: u64, fb: &Feedback, rng: &mut dyn RngCore) {
        let my_rem = self.remaining_rounds(ctx, l);
        let round_start = l - self.pos(l);
        let beacon = fb.payload().and_then(PunctualMsg::decode);
        let old_epoch = self.clock.map(|c| c.epoch);
        if let Some(PunctualMsg::Beacon { epoch, rho, .. }) = beacon {
            self.clock = Some(Clock {
                epoch,
                rho_base: rho,
                base_local: round_start,
            });
        }
        let rho_now = self.clock.map(|c| c.rho(round_start));

        let next: Option<State> = match &mut self.state {
            State::Slingshot {
                claims_left,
                waiting_beacon,
                waiting_rounds,
                ..
            } => match beacon {
                Some(PunctualMsg::Beacon {
                    leader_remaining, ..
                }) => {
                    if leader_remaining >= my_rem {
                        Some(follow_state(&self.params, rho_now.unwrap(), my_rem))
                    } else if *claims_left == 0 && !*waiting_beacon {
                        // Final check (Figure 2): a leader covering at least
                        // half the remaining window is good enough — round
                        // the window down and follow; otherwise release.
                        if leader_remaining >= my_rem / 2 {
                            Some(follow_state(
                                &self.params,
                                rho_now.unwrap(),
                                leader_remaining.min(my_rem),
                            ))
                        } else {
                            Some(State::Anarchist)
                        }
                    } else {
                        None
                    }
                }
                _ => {
                    if *waiting_beacon {
                        // The claimant we deferred to has not beaconed yet.
                        *waiting_rounds += 1;
                        if *waiting_rounds > self.params.beacon_loss_tolerance {
                            *waiting_beacon = false;
                            *waiting_rounds = 0;
                        }
                        None
                    } else if *claims_left == 0 {
                        // Pullback over, no leader in sight: release.
                        Some(State::Anarchist)
                    } else {
                        None
                    }
                }
            },
            State::Follow { .. } => match beacon {
                Some(PunctualMsg::Beacon {
                    epoch,
                    leader_remaining,
                    ..
                }) if old_epoch != Some(epoch) => {
                    // Epoch change: the alignment domain we trimmed against
                    // is gone — re-decide against the new leadership
                    // (engineering resolution #2).
                    if leader_remaining >= my_rem {
                        Some(follow_state(&self.params, rho_now.unwrap(), my_rem))
                    } else {
                        Some(slingshot_state(&self.params, ctx.window))
                    }
                }
                _ => None,
            },
            State::Leader { phase } => {
                if let LeaderPhase::Takeover {
                    timekeepers_to_skip,
                } = phase
                {
                    if *timekeepers_to_skip > 0 {
                        *timekeepers_to_skip -= 1;
                    }
                    if *timekeepers_to_skip == 0 {
                        if self.clock.is_none() {
                            // Never heard a predecessor: fresh epoch.
                            self.clock = Some(Clock {
                                epoch: rng.next_u64(),
                                rho_base: 0,
                                base_local: round_start,
                            });
                        }
                        *phase = LeaderPhase::Active;
                    }
                }
                None
            }
            _ => None,
        };
        if let Some(st) = next {
            self.state = st;
        }
    }

    /// Record a state transition for the probe layer: a phase span per
    /// state, plus the two headline instants E19 cares about. Called after
    /// each acted slot (the only places state can change), so emission
    /// slots are identical across scheduling modes.
    fn note_transition(&mut self, before: &'static str) {
        let now = state_tag(&self.state);
        if now == before {
            return;
        }
        self.probe.phase(now);
        if now == "anarchist" {
            self.probe.push(ProbeEvent::AnarchistConversion {
                from: before.to_string(),
            });
        }
        if before == "slingshot" && now == "leader" {
            self.probe.push(ProbeEvent::LeaderElected);
        }
    }

    fn act_slot(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
        self.last_prob = 0.0;
        let l = ctx.local_time;

        // Pre-synchronization states act without a round anchor.
        match &mut self.state {
            State::SyncListen { .. } => return Action::Listen,
            State::SyncAnnounce { sent } => {
                if *sent == 0 {
                    self.anchor = Some(l);
                }
                *sent += 1;
                let finished = *sent == 2;
                self.last_prob = 1.0;
                if finished {
                    self.state = slingshot_state(&self.params, ctx.window);
                }
                return Action::Transmit(PunctualMsg::Start.encode());
            }
            State::Done => return Action::Listen,
            _ => {}
        }

        let pos = self.pos(l);
        let round_start = l - pos;
        match slot_role(pos) {
            SlotRole::Start => {
                // Every synchronized live job keeps the round train
                // detectable (Figure 2: "from this point on, j always
                // broadcasts start messages in the first two slots").
                self.last_prob = 1.0;
                Action::Transmit(PunctualMsg::Start.encode())
            }
            // Guard slots are guaranteed silent while the train lives and
            // no state reacts to them: radio off.
            SlotRole::Guard => Action::Sleep,
            SlotRole::Timekeeper => {
                let rem = self.remaining_rounds(ctx, l);
                let clock = self.clock;
                match &mut self.state {
                    State::Leader { phase } => match phase {
                        LeaderPhase::Takeover { .. } => Action::Listen,
                        LeaderPhase::Active => {
                            if rem <= 1 {
                                // Last timekeeper slot of the window:
                                // abdicate, broadcasting the data message.
                                self.last_prob = 1.0;
                                Action::Transmit(Payload::Data(ctx.id))
                            } else {
                                let clock = clock.expect("active leader has a clock");
                                self.last_prob = 1.0;
                                Action::Transmit(
                                    PunctualMsg::Beacon {
                                        epoch: clock.epoch,
                                        rho: clock.rho(round_start),
                                        leader_remaining: rem,
                                    }
                                    .encode(),
                                )
                            }
                        }
                        LeaderPhase::HandingOff => {
                            // Deposed: one shot at our data, then step aside.
                            self.last_prob = 1.0;
                            Action::Transmit(Payload::Data(ctx.id))
                        }
                    },
                    // An anarchist never reads the clock again and never
                    // leaves anarchy: beacons are dead to it.
                    State::Anarchist => Action::Sleep,
                    _ => Action::Listen,
                }
            }
            SlotRole::Aligned => {
                let clock = self.clock;
                let params = self.params;
                let probe_on = self.probe.enabled();
                if let State::Follow {
                    trim_start,
                    class,
                    job,
                } = &mut self.state
                {
                    let rho = clock.expect("follower has a clock").rho(round_start);
                    if rho < *trim_start {
                        return Action::Sleep;
                    }
                    let j = job.get_or_insert_with(|| {
                        let mut j = AlignedJob::new(params.aligned, ctx.id, *class, *trim_start);
                        if probe_on {
                            j.arm_probe();
                        }
                        Box::new(j)
                    });
                    let action = j.decide(rho, rng);
                    self.last_prob = j.last_prob();
                    if j.gave_up() {
                        // Truncated, or the schedule ran out in a step it
                        // slept through: release into anarchy rather than
                        // going silent (resolution #5).
                        self.probe.absorb(j.probe_mut());
                        self.state = State::Anarchist;
                    }
                    action
                } else {
                    // Only followers run the embedded ALIGNED instance.
                    Action::Sleep
                }
            }
            SlotRole::Election => {
                let p = self.cached_probs(ctx.window).0;
                match &mut self.state {
                    State::Slingshot {
                        claims_left,
                        waiting_beacon,
                        claimed,
                        ..
                    } => {
                        *claimed = false;
                        if !*waiting_beacon && *claims_left > 0 {
                            *claims_left -= 1;
                            self.last_prob = p;
                            if rng.gen_bool(p) {
                                *claimed = true;
                                let remaining = (ctx.window - l) / ROUND_LEN;
                                return Action::Transmit(PunctualMsg::Claim { remaining }.encode());
                            }
                        }
                        // Claiming or not, a slingshotter watches every
                        // election slot for competing claims.
                        Action::Listen
                    }
                    // The leader listens for claims that depose it.
                    State::Leader { .. } => Action::Listen,
                    // Followers and anarchists neither claim nor react to
                    // whoever wins an election.
                    _ => Action::Sleep,
                }
            }
            SlotRole::Anarchy => {
                if matches!(self.state, State::Anarchist) && !self.succeeded {
                    let p = self.cached_probs(ctx.window).1;
                    self.last_prob = p;
                    if rng.gen_bool(p) {
                        return Action::Transmit(Payload::Data(ctx.id));
                    }
                }
                // Anarchy shots carry data, not protocol state: nobody
                // needs to hear them.
                Action::Sleep
            }
        }
    }

    fn observe_slot(&mut self, ctx: &JobCtx, fb: &Feedback, rng: &mut dyn RngCore) {
        let l = ctx.local_time;

        // Global: my data message got through (leader handoff/abdication,
        // anarchy shot, or aligned broadcast — all routes end here).
        if let Feedback::Success { src, payload } = fb {
            if *src == ctx.id && payload.is_data() {
                self.succeeded = true;
                // The embedded follower's pending events must outlive it.
                if let State::Follow { job: Some(j), .. } = &mut self.state {
                    self.probe.absorb(j.probe_mut());
                }
                self.state = State::Done;
                return;
            }
        }

        match &mut self.state {
            State::SyncListen {
                waited,
                prev_busy,
                prev2_busy,
            } => {
                let busy = fb.is_busy();
                if !busy && *prev_busy && *prev2_busy {
                    // Slots (l-2, l-1) were busy and l is silent: l-1 was
                    // the second start slot, so l-2 starts the round.
                    // (Busy runs can be length 3 when an anarchist fires in
                    // the preceding round's last slot, but they always end
                    // at round position 1, so "last busy − 1" is exact.)
                    self.anchor = Some(l - 2);
                    self.state = slingshot_state(&self.params, ctx.window);
                } else {
                    *prev2_busy = *prev_busy;
                    *prev_busy = busy;
                    // Any activity means a round train (or another
                    // announcer) exists: reset the give-up timer and wait
                    // for the busy-busy-silent pattern instead of blurting
                    // an out-of-phase start pair into it. Only a genuinely
                    // silent stretch triggers SYNCHRONIZE.
                    *waited = if busy { 0 } else { *waited + 1 };
                    if *waited >= self.params.sync_listen_slots {
                        self.state = State::SyncAnnounce { sent: 0 };
                    }
                }
                return;
            }
            State::SyncAnnounce { .. } | State::Done => return,
            _ => {}
        }

        let pos = self.pos(l);
        let round_start = l - pos;
        match slot_role(pos) {
            SlotRole::Timekeeper => {
                self.on_timekeeper(ctx, l, fb, rng);
                // A deposed leader that just used its handoff slot without
                // succeeding (collision/jam) steps aside anyway and waits
                // for the new leader's beacon (resolution #4).
                if matches!(
                    self.state,
                    State::Leader {
                        phase: LeaderPhase::HandingOff
                    }
                ) {
                    self.state = State::Slingshot {
                        claims_left: 0,
                        waiting_beacon: true,
                        waiting_rounds: 0,
                        claimed: false,
                    };
                }
            }
            SlotRole::Election => {
                let my_rem = self.remaining_rounds(ctx, l);
                let msg = fb.payload().and_then(PunctualMsg::decode);
                let next: Option<State> = match (&mut self.state, fb, msg) {
                    // My own claim succeeded: I am the leader.
                    (
                        State::Slingshot { claimed: true, .. },
                        Feedback::Success { src, .. },
                        Some(PunctualMsg::Claim { .. }),
                    ) if *src == ctx.id => Some(State::Leader {
                        phase: LeaderPhase::Takeover {
                            timekeepers_to_skip: 1,
                        },
                    }),
                    // Someone else's claim succeeded while I slingshot.
                    (
                        State::Slingshot {
                            waiting_beacon,
                            waiting_rounds,
                            ..
                        },
                        _,
                        Some(PunctualMsg::Claim { remaining }),
                    ) => {
                        if remaining >= my_rem {
                            *waiting_beacon = true;
                            *waiting_rounds = 0;
                        }
                        // An earlier-deadline claimer is ignored: Figure 2
                        // says we keep running SLINGSHOT.
                        None
                    }
                    // A successful claim reaches the current leader.
                    (State::Leader { phase }, _, Some(PunctualMsg::Claim { remaining })) => {
                        match *phase {
                            // Step aside only for a later deadline; claims
                            // from jobs that missed our beacons can carry
                            // earlier deadlines.
                            LeaderPhase::Active if remaining >= my_rem => {
                                *phase = LeaderPhase::HandingOff;
                                None
                            }
                            // Won the claim but someone later-deadlined won
                            // the next one before we ever beaconed: defer
                            // to them entirely.
                            LeaderPhase::Takeover { .. } if remaining >= my_rem => {
                                Some(State::Slingshot {
                                    claims_left: 0,
                                    waiting_beacon: true,
                                    waiting_rounds: 0,
                                    claimed: false,
                                })
                            }
                            _ => None,
                        }
                    }
                    _ => None,
                };
                if let Some(st) = next {
                    self.state = st;
                }
            }
            SlotRole::Aligned => {
                let clock = self.clock;
                if let State::Follow {
                    trim_start, job, ..
                } = &mut self.state
                {
                    let rho = clock.expect("follower has a clock").rho(round_start);
                    if rho >= *trim_start {
                        if let Some(j) = job.as_mut() {
                            j.observe(rho, fb);
                            if j.succeeded() {
                                self.succeeded = true;
                                self.probe.absorb(j.probe_mut());
                                self.state = State::Done;
                            } else if j.gave_up() {
                                // Truncated: release into anarchy rather
                                // than going silent (resolution #5).
                                self.probe.absorb(j.probe_mut());
                                self.state = State::Anarchist;
                            }
                        }
                    }
                }
            }
            SlotRole::Start | SlotRole::Guard | SlotRole::Anarchy => {}
        }
    }
}

impl Protocol for PunctualProtocol {
    fn on_activate(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) {
        if ctx.probed {
            self.probe.arm();
            self.probe.phase(state_tag(&self.state));
        }
    }

    fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
        let before = if self.probe.enabled() {
            Some(state_tag(&self.state))
        } else {
            None
        };
        let action = self.act_slot(ctx, rng);
        if let Some(before) = before {
            self.note_transition(before);
        }
        action
    }

    fn on_feedback(&mut self, ctx: &JobCtx, fb: &Feedback, rng: &mut dyn RngCore) {
        let before = if self.probe.enabled() {
            Some(state_tag(&self.state))
        } else {
            None
        };
        self.observe_slot(ctx, fb, rng);
        if let Some(before) = before {
            self.note_transition(before);
        }
    }

    fn drain_events(&mut self, out: &mut Vec<ProbeEvent>) {
        self.probe.drain_into(out);
        if let State::Follow { job: Some(j), .. } = &mut self.state {
            j.drain_probe(out);
        }
    }

    fn cohort_tx(&self, _ctx: &JobCtx) -> Option<CohortTx> {
        // PUNCTUAL is phase-synchronized for any `(release, deadline)` pair
        // — no alignment precondition — so every class of identical jobs
        // aggregates under cohort fidelity.
        Some(CohortTx::Class {
            tag: punctual_class_tag(&self.params),
        })
    }

    fn class_driver(&self, ctx: &JobCtx, cctx: &ClassCtx) -> Option<Box<dyn ClassDriver>> {
        let _ = ctx;
        Some(Box::new(PunctualCohort::new(self.params, cctx)))
    }

    fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    fn tx_probability(&self, _ctx: &JobCtx) -> Option<f64> {
        Some(self.last_prob)
    }

    fn duty_cycle(&self, _ctx: &JobCtx) -> Option<DutyCycle> {
        // Once synchronized, a job's schedule is periodic in the round: the
        // start pair (positions 0, 1) is an unconditional `Start` broadcast
        // that no state reacts to — declared as standing transmissions so
        // the engine accounts it in aggregate — and the remaining duty
        // positions (start = 0,1; timekeeper = 3; aligned = 5; election =
        // 7; anarchy = 9, cf. `slot_role`) depend on the state. Every other
        // position is a `Sleep` with no draw or state change. The state
        // (hence the mask) can only change in an acted slot, and every
        // synchronized state declares a cycle until `Done`, so the engine's
        // persistence contract holds. The cycle takes precedence over
        // `next_wake`, which keeps its default: pre-synchronization states
        // are polled every slot.
        let (wake_mask, listen_mask): (u64, u64) = match self.state {
            // Pre-synchronization states poll densely; `Done` is retired by
            // the engine before this is ever consulted.
            State::SyncListen { .. } | State::SyncAnnounce { .. } | State::Done => return None,
            // Timekeeper beacons + election claims (a claimless
            // slingshotter still watches elections). Slingshot reactions to
            // the beacon depend on per-member state (claims left, deadline),
            // so the timekeeper slot stays a full wake for them.
            State::Slingshot { .. } | State::Leader { .. } => (1 << 3 | 1 << 7, 0),
            // Aligned virtual slots need a real act; the timekeeper beacon
            // is a pure listen, group-resolved via `duty_listen` (a stable
            // leader's beacon re-states what every follower's clock already
            // knows).
            State::Follow { .. } => (1 << 5, 1 << 3),
            // Only the anarchy slot.
            State::Anarchist => (1 << 9, 0),
        };
        Some(DutyCycle {
            period: ROUND_LEN as u8,
            wake_mask,
            tx_mask: 1 << 0 | 1 << 1,
            tx_payload: PunctualMsg::Start.encode(),
            listen_mask,
            anchor_local: self.anchor.expect("synchronized states have an anchor"),
        })
    }

    fn duty_listen(&self, ctx: &JobCtx, fb: &Feedback) -> bool {
        // Only `Follow` declares a listen position (the timekeeper slot).
        // Its `on_timekeeper` arm reacts solely to epoch changes, and the
        // clock refresh a beacon performs is semantically idempotent when
        // the epoch matches and the round count agrees with what the clock
        // already predicts (both advance one round per round on the same
        // grid, so agreement now means agreement at every future round
        // start). Every follower in a duty group shares the leader's epoch
        // and round count — they all heard the same beacon history — so one
        // member's answer holds for all. Any non-beacon feedback (silence,
        // noise, a deposed leader's data handoff) leaves a follower's state
        // untouched.
        match fb.payload().and_then(PunctualMsg::decode) {
            Some(PunctualMsg::Beacon { epoch, rho, .. }) => match self.clock {
                Some(c) => {
                    let l = ctx.local_time;
                    let round_start = l - self.pos(l);
                    c.epoch == epoch && c.rho(round_start) == rho
                }
                None => false,
            },
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcr_sim::engine::{Engine, EngineConfig};
    use dcr_sim::job::JobSpec;
    use dcr_sim::runner::{count_trials, run_trials};
    use std::cell::Cell;
    use std::rc::Rc;

    fn test_params() -> PunctualParams {
        PunctualParams::laptop()
    }

    fn run_batch(n: u32, w: u64, seed: u64) -> dcr_sim::metrics::SimReport {
        let mut e = Engine::new(EngineConfig::default(), seed);
        for i in 0..n {
            e.add_job(
                JobSpec::new(i, 0, w),
                Box::new(PunctualProtocol::new(test_params())),
            );
        }
        e.run()
    }

    #[test]
    fn lone_job_elects_itself_and_delivers() {
        // One job, window 2^13 = 8192 slots (819 rounds): it must sync,
        // claim leadership eventually, and deliver via abdication (or go
        // anarchist and deliver there).
        let (hits, total) = count_trials(30, 42, |_, seed| {
            run_batch(1, 1 << 13, seed).outcome(0).is_success()
        });
        assert!(hits >= total - 2, "{hits}/{total}");
    }

    #[test]
    fn small_batch_mostly_succeeds() {
        // 6 jobs sharing a 2^13 window: one becomes leader, the rest follow
        // and run ALIGNED (or anarchist fallback); most should deliver.
        let fractions: Vec<f64> = run_trials(15, 7, |_, seed| {
            run_batch(6, 1 << 13, seed).success_fraction()
        })
        .into_iter()
        .map(|t| t.value)
        .collect();
        let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
        assert!(mean > 0.8, "mean success fraction {mean}");
    }

    #[test]
    fn no_panic_on_tiny_window() {
        // A window too small to even synchronize must fail gracefully.
        let r = run_batch(3, 16, 3);
        assert_eq!(r.outcomes().len(), 3);
    }

    #[test]
    fn staggered_arrivals_adopt_the_round_train() {
        // First job establishes rounds; later arrivals must sync onto the
        // same train and still mostly succeed.
        let (hits, total) = count_trials(15, 77, |_, seed| {
            let mut e = Engine::new(EngineConfig::default(), seed);
            let w = 1u64 << 13;
            for i in 0..4u32 {
                let r = u64::from(i) * 37; // unaligned staggering
                e.add_job(
                    JobSpec::new(i, r, r + w),
                    Box::new(PunctualProtocol::new(test_params())),
                );
            }
            let rep = e.run();
            rep.successes() >= 3
        });
        assert!(hits as f64 / total as f64 > 0.7, "{hits}/{total}");
    }

    /// A follower's state, checked across every aligned-slot listen.
    struct FollowerAudit {
        inner: PunctualProtocol,
        before: Option<String>,
        /// `(aligned-slot listens, those that left the state unchanged)`.
        listens: Rc<Cell<(u64, u64)>>,
    }

    impl Protocol for FollowerAudit {
        fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
            let action = self.inner.act(ctx, rng);
            let aligned = self.inner.anchor.is_some()
                && slot_role(self.inner.pos(ctx.local_time)) == SlotRole::Aligned;
            self.before = match &self.inner.state {
                State::Follow { .. } if aligned && action == Action::Listen => {
                    Some(format!("{:?}", self.inner.state))
                }
                _ => None,
            };
            action
        }

        fn on_feedback(&mut self, ctx: &JobCtx, fb: &Feedback, rng: &mut dyn RngCore) {
            self.inner.on_feedback(ctx, fb, rng);
            if let Some(before) = self.before.take() {
                let (n, idle) = self.listens.get();
                let unchanged = format!("{:?}", self.inner.state) == before;
                self.listens.set((n + 1, idle + u64::from(unchanged)));
            }
        }

        fn is_done(&self) -> bool {
            self.inner.is_done()
        }
    }

    #[test]
    fn follower_listens_only_where_its_aligned_job_hears() {
        // Polled every slot, every listen reaches `on_feedback`. A follower
        // sleeps before its trimmed window and through the slots its
        // embedded ALIGNED job sleeps through, so each aligned-slot listen
        // is an estimation step that moves the job's tracker.
        let listens = Rc::new(Cell::new((0, 0)));
        for seed in 0..4 {
            let mut e = Engine::new(EngineConfig::default().dense(), seed);
            for i in 0..8u32 {
                let r = u64::from(i) * 113;
                e.add_job(
                    JobSpec::new(i, r, r + (1 << 13)),
                    Box::new(FollowerAudit {
                        inner: PunctualProtocol::new(test_params()),
                        before: None,
                        listens: Rc::clone(&listens),
                    }),
                );
            }
            e.run();
        }
        let (n, idle) = listens.get();
        assert!(n > 0, "no follower listened in an aligned slot");
        assert_eq!(
            idle, 0,
            "{idle} of {n} aligned-slot listens changed nothing"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_batch(5, 1 << 12, 99);
        let b = run_batch(5, 1 << 12, 99);
        assert_eq!(a.outcomes(), b.outcomes());
        assert_eq!(a.counts, b.counts);
    }
}
