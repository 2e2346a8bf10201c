//! Aggregate (class-driver) fidelity for PUNCTUAL — the duty-masked state
//! machine advanced once per class.
//!
//! Every member of a punctual job class shares `(release, deadline)` and
//! therefore, in every slot, the *entire* observable protocol state: the
//! same synchronization progress (they all listen to the same channel from
//! the same slot), the same round anchor, the same virtual clock, the same
//! SLINGSHOT/FOLLOW/ANARCHIST decision (all of which depend only on public
//! feedback and the shared `my_rem`). Members differ only in their private
//! coins — so, as in [`crate::aligned::cohort`], the shared machine runs
//! once per class and the per-member Bernoulli coins collapse into one
//! exact `Binomial(m, p)` draw per election/anarchy slot.
//!
//! Exchangeability breaks at exactly four boundaries, and only there are
//! individual members materialized:
//!
//! * a **lone win** — the channel needs a concrete `src` (start pair,
//!   election claim, anarchy shot, or a FOLLOW broadcast delegated to the
//!   embedded [`AlignedCohort`]);
//! * a **leader election** — the winning claimant leaves the aggregate as
//!   an exact-path [`PunctualProtocol`] pre-synchronized into
//!   `Leader(Takeover)` ([`ClassEvent::Eject`]); its classmates all defer
//!   (`waiting_beacon`) because the claim's deadline equals their own;
//! * an **anarchist conversion** — public (tracker completion and beacon
//!   history are shared), so *all* remaining members convert at once and
//!   stay aggregate;
//! * **preemption of FOLLOW** — an epoch change re-decides for the whole
//!   class simultaneously, reclaiming the embedded core's members.
//!
//! FOLLOW runs the ALIGNED aggregate in virtual (round-counter) time. Its
//! draws are keyed on `(follow_seed, rho, phase)` where `follow_seed` is
//! derived from the class seed and the trim parameters: rho values overlap
//! the outer slot domain, so reusing the raw class seed would replay outer
//! draws inside the core.
//!
//! The fidelity contract matches [`dcr_sim::classes`]: statistical
//! equivalence with the exact path (checked by the conformance matrix's
//! law-level column in `tests/cohort_equivalence.rs`), exact replay, shard
//! invariance.

use crate::aligned::cohort::{aligned_class_tag, AlignedCohort};
use crate::punctual::messages::PunctualMsg;
use crate::punctual::params::{slot_role, PunctualParams, SlotRole, ROUND_LEN};
use crate::punctual::protocol::{Clock, PunctualProtocol};
use crate::punctual::trim::trim_class;
use dcr_sim::classes::{ClassCtx, ClassDriver, ClassEvent, ClassSlot};
use dcr_sim::crng::{CounterRng, Phase};
use dcr_sim::job::JobId;
use dcr_sim::message::Payload;
use dcr_sim::probe::{EventBuf, ProbeEvent};
use dcr_sim::rng::sample_binomial;
use dcr_sim::slot::Feedback;
use rand::Rng;

/// Stable discriminant for [`dcr_sim::engine::CohortTx::Class`]: commits to
/// the protocol kind (PUNCTUAL) and every parameter that shapes behaviour,
/// including the embedded ALIGNED configuration.
pub fn punctual_class_tag(params: &PunctualParams) -> u64 {
    0x504e_4354 // "PNCT"
        ^ aligned_class_tag(&params.aligned).rotate_left(17)
        ^ params.lambda.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ u64::from(params.pullback_prob_logexp).wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ u64::from(params.pullback_len_logexp).wrapping_mul(0x94d0_49bb_1331_11eb)
        ^ params
            .sync_listen_slots
            .wrapping_mul(0xd6e8_feb8_6659_fd93)
        ^ u64::from(params.beacon_loss_tolerance).wrapping_mul(0xff51_afd7_ed55_8ccd)
}

/// Counter-RNG key for the embedded FOLLOW core. Virtual time (rho) values
/// overlap the outer slot domain, so the core must draw from a stream
/// distinct from the outer `(class_seed, slot, phase)` one; mixing in the
/// trim parameters also separates successive FOLLOW attempts (after an
/// epoch change) whose rho ranges may overlap.
fn follow_seed(class_seed: u64, trim_start: u64, class: u32) -> u64 {
    let mut z = class_seed
        ^ 0x464f_4c4c_4f57_5f41 // "FOLLOW_A"
        ^ trim_start.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ u64::from(class).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The class's shared state — a mirror of the exact path's `State` minus
/// the variants that cannot hold a whole aggregate: `Leader` (the winner is
/// ejected as an exact-path job) and `Done` (delivered members simply leave
/// the pool; the class dissolves when it empties).
enum GroupState {
    /// Listening for the busy-busy-silent round-anchor pattern.
    SyncListen {
        waited: u64,
        prev_busy: bool,
        prev2_busy: bool,
    },
    /// Initiating a round train: every member transmits two start messages.
    SyncAnnounce { sent: u8 },
    /// SLINGSHOT: pullback claims, watching the timekeeper for leaders.
    /// No `claimed` flag — the materialized claimant plays that role.
    Slingshot {
        claims_left: u64,
        waiting_beacon: bool,
        waiting_rounds: u32,
    },
    /// FOLLOW-THE-LEADER: the ALIGNED aggregate in virtual time. `core` is
    /// built lazily at the first attended aligned slot (like the exact
    /// path's `job: Option<AlignedJob>`); it owns the members while it
    /// lives.
    Follow {
        trim_start: u64,
        class: u32,
        core: Option<Box<AlignedCohort>>,
    },
    /// Released the slingshot: transmit data in anarchy slots.
    Anarchist,
}

/// Fresh SLINGSHOT state with a full pullback budget (mirror of the exact
/// path's `slingshot_state`).
fn slingshot_group(params: &PunctualParams, window: u64) -> GroupState {
    GroupState::Slingshot {
        claims_left: params.pullback_election_slots(window),
        waiting_beacon: false,
        waiting_rounds: 0,
    }
}

/// FOLLOW state for a virtual window of `rem_v` rounds starting at round
/// counter `rho_now`; anarchist fallback below the ALIGNED floor (mirror of
/// the exact path's `follow_state`).
fn follow_group(params: &PunctualParams, rho_now: u64, rem_v: u64) -> GroupState {
    match trim_class(rho_now, rho_now.saturating_add(rem_v)) {
        Some((trim_start, class)) if class >= params.aligned.min_class => GroupState::Follow {
            trim_start,
            class,
            core: None,
        },
        _ => GroupState::Anarchist,
    }
}

/// Probe phase labels, identical to the exact path's `state_tag` so traces
/// read the same under either fidelity.
fn group_tag(state: &GroupState) -> &'static str {
    match state {
        GroupState::SyncListen { .. } => "sync-listen",
        GroupState::SyncAnnounce { .. } => "sync-announce",
        GroupState::Slingshot { .. } => "slingshot",
        GroupState::Follow { .. } => "follow",
        GroupState::Anarchist => "anarchist",
    }
}

/// What the last `begin_slot` opened; consumed by `materialize`/`end_slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// Listen/sleep slot (or a role the current state ignores).
    None,
    /// Start-pair (or sync-announce) slot: every member transmits.
    Start,
    /// Election slot with a live claim draw.
    Claim,
    /// Anarchy slot.
    Anarchy,
    /// FOLLOW aligned step delegated to the core at virtual time `rho`.
    AlignedStep { rho: u64 },
}

/// The PUNCTUAL aggregate class. See the module docs for the contract.
pub struct PunctualCohort {
    params: PunctualParams,
    /// Shared release slot (local time `l = slot - release`).
    release: u64,
    /// Shared window size.
    window: u64,
    class_seed: u64,
    /// Live members, pool order. Empty while a FOLLOW core owns them.
    members: Vec<JobId>,
    state: GroupState,
    /// Round anchor in local time (once synchronized).
    anchor: Option<u64>,
    clock: Option<Clock>,
    /// Cached per-window probabilities (exact path: `cached_probs`).
    claim_p: f64,
    anarchy_p: f64,
    pending: Pending,
    /// Index (into `members`) of the member named by `materialize` this
    /// slot, for Claim/Anarchy slots where the outcome singles it out.
    materialized: Option<usize>,
    probed: bool,
    probe: EventBuf,
}

impl PunctualCohort {
    /// Build the driver for one class.
    pub fn new(params: PunctualParams, cctx: &ClassCtx) -> Self {
        let mut probe = EventBuf::default();
        if cctx.probed {
            probe.arm();
            probe.phase("sync-listen");
        }
        Self {
            params,
            release: cctx.release,
            window: cctx.window,
            class_seed: cctx.class_seed,
            members: Vec::new(),
            state: GroupState::SyncListen {
                waited: 0,
                prev_busy: false,
                prev2_busy: false,
            },
            anchor: None,
            clock: None,
            claim_p: params.claim_probability(cctx.window),
            anarchy_p: params.anarchy_probability(cctx.window),
            pending: Pending::None,
            materialized: None,
            probed: cctx.probed,
            probe,
        }
    }

    /// Members currently in the aggregate (delegating to a live FOLLOW
    /// core when one owns the pool).
    pub fn live_members(&self) -> usize {
        match &self.state {
            GroupState::Follow { core: Some(c), .. } => c.live_members(),
            _ => self.members.len(),
        }
    }

    /// True while the class is in the anarchist fallback (diagnostic).
    pub fn is_anarchist(&self) -> bool {
        matches!(self.state, GroupState::Anarchist)
    }

    /// Position of local slot `l` within its round.
    fn pos(&self, l: u64) -> u64 {
        let anchor = self.anchor.expect("synchronized");
        (l - anchor) % ROUND_LEN
    }

    /// Rounds remaining in the shared window from local slot `l`.
    fn remaining_rounds(&self, l: u64) -> u64 {
        (self.window - l) / ROUND_LEN
    }

    /// Replace the state, reclaiming members (and pending probe events)
    /// from a FOLLOW core being abandoned.
    fn leave_state_into(&mut self, next: GroupState) {
        if let GroupState::Follow { core: Some(c), .. } = &mut self.state {
            self.probe.absorb(c.probe_mut());
            let mut got = c.take_members();
            self.members.append(&mut got);
        }
        self.state = next;
    }

    /// Probe bookkeeping after any mutation point (mirror of the exact
    /// path's `note_transition`): a phase span per state plus the
    /// anarchist-conversion instant. `LeaderElected` is pushed at the eject
    /// site — the group itself never holds the leader state.
    fn note(&mut self, before: &'static str) {
        if !self.probe.enabled() {
            return;
        }
        let now = group_tag(&self.state);
        if now == before {
            return;
        }
        self.probe.phase(now);
        if now == "anarchist" {
            self.probe.push(ProbeEvent::AnarchistConversion {
                from: before.to_string(),
            });
        }
    }

    fn begin_inner(&mut self, slot: u64) -> ClassSlot {
        let l = slot - self.release;

        // Pre-synchronization states act without a round anchor.
        match &mut self.state {
            GroupState::SyncListen { .. } => return ClassSlot::default(),
            GroupState::SyncAnnounce { sent } => {
                if *sent == 0 {
                    self.anchor = Some(l);
                }
                *sent += 1;
                let done = *sent == 2;
                let m = self.members.len() as u64;
                if done {
                    self.state = slingshot_group(&self.params, self.window);
                }
                self.pending = Pending::Start;
                return ClassSlot {
                    count: m,
                    declared: m as f64,
                };
            }
            _ => {}
        }

        let pos = self.pos(l);
        let round_start = l - pos;
        match slot_role(pos) {
            SlotRole::Start => {
                // Every synchronized live member keeps the round train
                // detectable.
                let m = self.live_members() as u64;
                self.pending = Pending::Start;
                ClassSlot {
                    count: m,
                    declared: m as f64,
                }
            }
            // Guard slots are guaranteed silent; timekeeper slots are
            // listen-only for a leaderless aggregate (anarchists sleep, but
            // zero transmitters either way).
            SlotRole::Guard | SlotRole::Timekeeper => ClassSlot::default(),
            SlotRole::Aligned => {
                let clock = self.clock;
                let probed = self.probed;
                let seed = self.class_seed;
                let aligned = self.params.aligned;
                if let GroupState::Follow {
                    trim_start,
                    class,
                    core,
                } = &mut self.state
                {
                    let rho = clock.expect("follower has a clock").rho(round_start);
                    if rho < *trim_start {
                        return ClassSlot::default();
                    }
                    if core.is_none() {
                        let mut c = AlignedCohort::new(
                            aligned,
                            *class,
                            *trim_start,
                            follow_seed(seed, *trim_start, *class),
                        );
                        if probed {
                            c.arm_probe();
                        }
                        for id in self.members.drain(..) {
                            c.admit(id);
                        }
                        *core = Some(Box::new(c));
                    }
                    let cs = core.as_mut().expect("just built").begin_vt(rho);
                    self.pending = Pending::AlignedStep { rho };
                    cs
                } else {
                    // Only followers run the embedded ALIGNED instance.
                    ClassSlot::default()
                }
            }
            SlotRole::Election => {
                if let GroupState::Slingshot {
                    claims_left,
                    waiting_beacon,
                    ..
                } = &mut self.state
                {
                    if !*waiting_beacon && *claims_left > 0 {
                        *claims_left -= 1;
                        let m = self.members.len() as u64;
                        let mut rng = CounterRng::new(self.class_seed, slot, Phase::Act);
                        let count = sample_binomial(m, self.claim_p, &mut rng);
                        self.pending = Pending::Claim;
                        return ClassSlot {
                            count,
                            declared: m as f64 * self.claim_p,
                        };
                    }
                }
                ClassSlot::default()
            }
            SlotRole::Anarchy => {
                if matches!(self.state, GroupState::Anarchist) {
                    let m = self.members.len() as u64;
                    let mut rng = CounterRng::new(self.class_seed, slot, Phase::Act);
                    let count = sample_binomial(m, self.anarchy_p, &mut rng);
                    self.pending = Pending::Anarchy;
                    return ClassSlot {
                        count,
                        declared: m as f64 * self.anarchy_p,
                    };
                }
                ClassSlot::default()
            }
        }
    }

    /// Timekeeper-slot bookkeeping (mirror of the exact `on_timekeeper`,
    /// minus the leader arm — the aggregate never leads).
    fn on_timekeeper_group(&mut self, l: u64, round_start: u64, fb: &Feedback) {
        // Anarchists sleep through timekeeper slots: no clock updates, no
        // beacon reactions (exact path: `Action::Sleep`, so `on_feedback`
        // never runs).
        if matches!(self.state, GroupState::Anarchist) {
            return;
        }
        let my_rem = self.remaining_rounds(l);
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

        let next: Option<GroupState> = match &mut self.state {
            GroupState::Slingshot {
                claims_left,
                waiting_beacon,
                waiting_rounds,
            } => match beacon {
                Some(PunctualMsg::Beacon {
                    leader_remaining, ..
                }) => {
                    if leader_remaining >= my_rem {
                        Some(follow_group(&self.params, rho_now.unwrap(), my_rem))
                    } else if *claims_left == 0 && !*waiting_beacon {
                        // Final check: a leader covering at least half the
                        // remaining window is good enough.
                        if leader_remaining >= my_rem / 2 {
                            Some(follow_group(
                                &self.params,
                                rho_now.unwrap(),
                                leader_remaining.min(my_rem),
                            ))
                        } else {
                            Some(GroupState::Anarchist)
                        }
                    } else {
                        None
                    }
                }
                _ => {
                    if *waiting_beacon {
                        *waiting_rounds += 1;
                        if *waiting_rounds > self.params.beacon_loss_tolerance {
                            *waiting_beacon = false;
                            *waiting_rounds = 0;
                        }
                        None
                    } else if *claims_left == 0 {
                        Some(GroupState::Anarchist)
                    } else {
                        None
                    }
                }
            },
            GroupState::Follow { .. } => match beacon {
                Some(PunctualMsg::Beacon {
                    epoch,
                    leader_remaining,
                    ..
                }) if old_epoch != Some(epoch) => {
                    // Epoch change: re-decide against the new leadership.
                    if leader_remaining >= my_rem {
                        Some(follow_group(&self.params, rho_now.unwrap(), my_rem))
                    } else {
                        Some(slingshot_group(&self.params, self.window))
                    }
                }
                _ => None,
            },
            _ => None,
        };
        if let Some(st) = next {
            self.leave_state_into(st);
        }
    }

    /// Election-slot feedback (mirror of the exact path's election arm).
    fn on_election(&mut self, l: u64, fb: &Feedback, out: &mut Vec<ClassEvent>) {
        let my_rem = self.remaining_rounds(l);
        let msg = fb.payload().and_then(PunctualMsg::decode);
        let GroupState::Slingshot {
            waiting_beacon,
            waiting_rounds,
            ..
        } = &mut self.state
        else {
            // Followers and anarchists sleep through elections.
            return;
        };
        let Some(PunctualMsg::Claim { remaining }) = msg else {
            return;
        };
        // Our materialized claimant won: eject it as the leader, exactly in
        // the state its exact-path twin would hold after a successful claim.
        if let (Feedback::Success { src, .. }, Pending::Claim, Some(idx)) =
            (fb, self.pending, self.materialized)
        {
            if self.members[idx] == *src {
                let member = self.members.swap_remove(idx);
                let proto = PunctualProtocol::leader_takeover(
                    self.params,
                    self.anchor.expect("synchronized"),
                    self.clock,
                    self.probed,
                );
                out.push(ClassEvent::Eject {
                    member,
                    protocol: Box::new(proto),
                });
                if self.probe.enabled() {
                    self.probe.push(ProbeEvent::LeaderElected);
                }
                // Classmates heard a successful claim with a deadline equal
                // to their own: all defer and wait for the beacon.
                *waiting_beacon = true;
                *waiting_rounds = 0;
                return;
            }
        }
        // A foreign claim succeeded while we slingshot.
        if remaining >= my_rem {
            *waiting_beacon = true;
            *waiting_rounds = 0;
        }
    }

    fn end_inner(&mut self, slot: u64, fb: &Feedback, out: &mut Vec<ClassEvent>) {
        let l = slot - self.release;

        // Global: our materialized anarchy shot got through — drop the
        // delivered member (the engine credits the delivery itself).
        // Aligned-broadcast deliveries are handled inside the core; leader
        // handoffs belong to the ejected exact-path job.
        if let Feedback::Success { src, payload } = fb {
            if payload.is_data() {
                if let (Pending::Anarchy, Some(idx)) = (self.pending, self.materialized) {
                    if self.members[idx] == *src {
                        self.members.swap_remove(idx);
                    }
                }
            }
        }

        match &mut self.state {
            GroupState::SyncListen {
                waited,
                prev_busy,
                prev2_busy,
            } => {
                let busy = fb.is_busy();
                if !busy && *prev_busy && *prev2_busy {
                    // Slots (l-2, l-1) busy, l silent: l-2 starts the round.
                    self.anchor = Some(l - 2);
                    self.state = slingshot_group(&self.params, self.window);
                } else {
                    *prev2_busy = *prev_busy;
                    *prev_busy = busy;
                    *waited = if busy { 0 } else { *waited + 1 };
                    if *waited >= self.params.sync_listen_slots {
                        self.state = GroupState::SyncAnnounce { sent: 0 };
                    }
                }
                return;
            }
            GroupState::SyncAnnounce { .. } => return,
            _ => {}
        }

        let pos = self.pos(l);
        let round_start = l - pos;
        match slot_role(pos) {
            SlotRole::Timekeeper => self.on_timekeeper_group(l, round_start, fb),
            SlotRole::Election => self.on_election(l, fb, out),
            SlotRole::Aligned => {
                let clock = self.clock;
                let mut gave_up = false;
                if let GroupState::Follow {
                    trim_start, core, ..
                } = &mut self.state
                {
                    let rho = clock.expect("follower has a clock").rho(round_start);
                    if rho >= *trim_start {
                        if let Some(c) = core.as_mut() {
                            c.end_vt(rho, fb);
                            gave_up = c.gave_up();
                        }
                    }
                }
                if gave_up {
                    // Truncated: the whole class releases into anarchy —
                    // the tracker's completion is public, so every member
                    // converts in the same slot.
                    self.leave_state_into(GroupState::Anarchist);
                }
            }
            SlotRole::Start | SlotRole::Guard | SlotRole::Anarchy => {}
        }
    }
}

impl ClassDriver for PunctualCohort {
    fn admit(&mut self, member: JobId) {
        self.members.push(member);
    }

    fn live(&self) -> usize {
        self.live_members()
    }

    fn begin_slot(&mut self, slot: u64) -> ClassSlot {
        self.pending = Pending::None;
        self.materialized = None;
        let before = group_tag(&self.state);
        let cs = self.begin_inner(slot);
        self.note(before);
        cs
    }

    fn materialize(&mut self, slot: u64) -> (JobId, Payload) {
        let l = slot - self.release;
        let mut rng = CounterRng::new(self.class_seed, slot, Phase::Activate);
        match self.pending {
            Pending::AlignedStep { rho } => {
                let GroupState::Follow { core: Some(c), .. } = &mut self.state else {
                    unreachable!("aligned step without a core");
                };
                c.materialize_vt(rho)
            }
            Pending::Start => {
                // Start messages carry no identity consequence: any member
                // serves as the voice of the train.
                let pool: &[JobId] = match &self.state {
                    GroupState::Follow { core: Some(c), .. } => c.members(),
                    _ => &self.members,
                };
                let idx = rng.gen_range(0..pool.len());
                (pool[idx], PunctualMsg::Start.encode())
            }
            Pending::Claim => {
                // Fresh coins every election: uniform over the pool. A
                // jammed claim reveals nothing (Noise carries no src), so
                // no exclusion bookkeeping is needed on failure.
                let idx = rng.gen_range(0..self.members.len());
                self.materialized = Some(idx);
                let remaining = (self.window - l) / ROUND_LEN;
                (self.members[idx], PunctualMsg::Claim { remaining }.encode())
            }
            Pending::Anarchy => {
                let idx = rng.gen_range(0..self.members.len());
                self.materialized = Some(idx);
                (self.members[idx], Payload::Data(self.members[idx]))
            }
            Pending::None => unreachable!("materialize without transmitters"),
        }
    }

    fn end_slot(&mut self, slot: u64, fb: &Feedback, out: &mut Vec<ClassEvent>) {
        let before = group_tag(&self.state);
        self.end_inner(slot, fb, out);
        self.note(before);
    }

    fn drain_events(&mut self, out: &mut Vec<ProbeEvent>) {
        self.probe.drain_into(out);
        if let GroupState::Follow { core: Some(c), .. } = &mut self.state {
            c.drain_events(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcr_sim::engine::{Engine, EngineConfig};
    use dcr_sim::job::JobSpec;
    use dcr_sim::metrics::SimReport;
    use dcr_sim::probe::{ProbeSpec, SinkSpec};
    use dcr_sim::runner::count_trials;

    fn run_batch(n: u32, w: u64, seed: u64, cfg: EngineConfig) -> SimReport {
        let mut e = Engine::new(cfg, seed);
        for i in 0..n {
            e.add_job(
                JobSpec::new(i, 0, w),
                Box::new(PunctualProtocol::new(PunctualParams::laptop())),
            );
        }
        e.run()
    }

    #[test]
    fn lone_member_elects_itself_and_delivers() {
        // A class of one: sync, a lone claim win must eject the member as
        // an exact-path leader, which then delivers via abdication.
        let (hits, total) = count_trials(30, 42, |_, seed| {
            run_batch(1, 1 << 13, seed, EngineConfig::default().cohort())
                .outcome(0)
                .is_success()
        });
        assert!(hits >= total - 2, "{hits}/{total}");
    }

    #[test]
    fn aggregate_success_law_matches_exact() {
        // 6 jobs sharing a 2^13 window, 30 seeds per path: the aggregate
        // must reproduce the exact path's success law. RNG domains differ,
        // so the check is statistical: mean success proportions within 5
        // combined standard errors.
        let (n, w, trials) = (6u32, 1u64 << 13, 30u64);
        let mean = |cfg: fn() -> EngineConfig| -> f64 {
            let mut total = 0u64;
            for seed in 0..trials {
                total += run_batch(n, w, 500 + seed, cfg()).successes() as u64;
            }
            total as f64 / (trials * u64::from(n)) as f64
        };
        let exact = mean(EngineConfig::default);
        let agg = mean(|| EngineConfig::default().cohort());
        let m = (trials * u64::from(n)) as f64;
        let se = |p: f64| (p * (1.0 - p) / m).sqrt();
        let tol = 5.0 * (se(exact) + se(agg)).max(0.02);
        assert!(
            (exact - agg).abs() < tol,
            "exact {exact} vs aggregate {agg} (tol {tol})"
        );
    }

    #[test]
    fn aggregate_emits_leader_election_event() {
        // The class (not a per-job protocol) must report the election; the
        // ejected leader then carries its own probe stream.
        let mut found = false;
        for seed in 0..10u64 {
            let r = run_batch(
                6,
                1 << 13,
                seed,
                EngineConfig::default()
                    .cohort()
                    .with_probe(ProbeSpec::new().with(SinkSpec::Events)),
            );
            let probes = r.probes.as_ref().expect("probe report");
            let events = probes.events().expect("event log");
            if events
                .iter()
                .any(|rec| matches!(rec.event, ProbeEvent::LeaderElected) && rec.job.is_none())
            {
                found = true;
                break;
            }
        }
        assert!(found, "no class-level LeaderElected in 10 seeds");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_batch(5, 1 << 12, 99, EngineConfig::default().cohort());
        let b = run_batch(5, 1 << 12, 99, EngineConfig::default().cohort());
        assert_eq!(a.outcomes(), b.outcomes());
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn no_panic_on_tiny_window() {
        // Too small to synchronize: must fail gracefully, like the exact
        // path.
        let r = run_batch(3, 16, 3, EngineConfig::default().cohort());
        assert_eq!(r.outcomes().len(), 3);
    }

    #[test]
    fn tag_commits_to_params() {
        let base = PunctualParams::laptop();
        let mut other = base;
        other.lambda += 1;
        let mut third = base;
        third.sync_listen_slots += 1;
        let mut fourth = base;
        fourth.aligned.lambda += 1;
        let tags = [
            punctual_class_tag(&base),
            punctual_class_tag(&other),
            punctual_class_tag(&third),
            punctual_class_tag(&fourth),
        ];
        for i in 0..tags.len() {
            for j in i + 1..tags.len() {
                assert_ne!(tags[i], tags[j], "{i} vs {j}");
            }
        }
    }
}
