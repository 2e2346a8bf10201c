//! Scenario tests for the PUNCTUAL automaton: drive a single protocol
//! instance with hand-crafted channel feedback (fabricated round trains,
//! leaders, claims) and check each Figure-2 transition individually —
//! following, refusing an earlier-deadline leader, the final-check window
//! halving, leadership takeover, deposition and handoff.

use dcr_core::punctual::messages::PunctualMsg;
use dcr_core::punctual::{PunctualParams, ROUND_LEN};
use dcr_core::PunctualProtocol;
use dcr_sim::engine::{Action, JobCtx, Protocol};
use dcr_sim::job::JobId;
use dcr_sim::message::Payload;
use dcr_sim::rng::{SeedSeq, StreamLabel};
use dcr_sim::slot::Feedback;
use rand_chacha::ChaCha8Rng;

/// Drives one protocol instance slot by slot with scripted feedback.
struct Driver {
    proto: PunctualProtocol,
    id: JobId,
    window: u64,
    local: u64,
    rng: ChaCha8Rng,
    activated: bool,
}

impl Driver {
    fn new(params: PunctualParams, window: u64, seed: u64) -> Self {
        Self {
            proto: PunctualProtocol::new(params),
            id: 0,
            window,
            local: 0,
            rng: SeedSeq::new(seed).rng(StreamLabel::Job, 0),
            activated: false,
        }
    }

    fn ctx(&self) -> JobCtx {
        JobCtx {
            id: self.id,
            window: self.window,
            local_time: self.local,
            aligned_time: None,
            probed: false,
            key: 0,
        }
    }

    /// Run one slot: get the protocol's action, then apply `resolve` to
    /// produce the channel feedback it observes (the driver plays the
    /// channel and all other stations).
    fn step(&mut self, resolve: impl FnOnce(&Action) -> Feedback) -> Action {
        if !self.activated {
            self.proto.on_activate(&self.ctx(), &mut self.rng);
            self.activated = true;
        }
        let ctx = self.ctx();
        let action = self.proto.act(&ctx, &mut self.rng);
        let fb = resolve(&action);
        self.proto.on_feedback(&ctx, &fb, &mut self.rng);
        self.local += 1;
        action
    }

    /// Feedback for a slot where the driver's virtual peers keep the round
    /// train alive: start slots are noise, everything else is silent unless
    /// the protocol itself transmitted (its lone transmission succeeds).
    fn train_feedback(pos: u64, action: &Action, beacon: Option<PunctualMsg>) -> Feedback {
        match (pos, action) {
            // Start slots: at least the virtual peers transmit -> noise.
            (0 | 1, _) => Feedback::Noise,
            // Timekeeper: the scripted leader's beacon, if any.
            (3, Action::Transmit(p)) => Feedback::Success {
                src: 0,
                payload: *p,
            },
            (3, _) => match beacon {
                Some(msg) => Feedback::Success {
                    src: 99,
                    payload: msg.encode(),
                },
                None => Feedback::Silent,
            },
            // Other slots: the protocol's own lone transmission succeeds.
            (_, Action::Transmit(p)) => Feedback::Success {
                src: 0,
                payload: *p,
            },
            _ => Feedback::Silent,
        }
    }

    /// Drive `rounds` full rounds of an established train whose leader
    /// (if `beacon_of` yields one) beacons every timekeeper slot. The
    /// train is anchored at the driver's current local slot.
    fn run_rounds(
        &mut self,
        rounds: u64,
        mut beacon_of: impl FnMut(u64) -> Option<PunctualMsg>,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        for r in 0..rounds {
            let beacon = beacon_of(r);
            for pos in 0..ROUND_LEN {
                let a = self.step(|action| Self::train_feedback(pos, action, beacon));
                actions.push(a);
            }
        }
        actions
    }

    /// Synchronize the protocol onto a fabricated train: two busy slots
    /// then a silent guard.
    fn sync_onto_train(&mut self) {
        self.step(|_| Feedback::Noise);
        self.step(|_| Feedback::Noise);
        self.step(|_| Feedback::Silent);
        // Now inside round position 3 == timekeeper of the train's round 0;
        // realign to the next round start for convenience.
        for pos in 3..ROUND_LEN {
            self.step(|a| Self::train_feedback(pos, a, None));
        }
    }
}

fn params() -> PunctualParams {
    PunctualParams::laptop()
}

/// Is this payload a PUNCTUAL claim?
fn is_claim(a: &Action) -> bool {
    matches!(a, Action::Transmit(p)
        if matches!(PunctualMsg::decode(p), Some(PunctualMsg::Claim { .. })))
}

fn is_data(a: &Action) -> bool {
    matches!(a, Action::Transmit(Payload::Data(_)))
}

#[test]
fn follows_a_later_deadline_leader_without_claiming() {
    let w = 1 << 14; // 1638 rounds
    let mut d = Driver::new(params(), w, 1);
    d.sync_onto_train();
    // A leader with plenty of remaining time beacons every round. Its
    // round counter starts at 1000 so the trimmed virtual window
    // ([1024, 2048)) begins only 24 rounds out — the follower's embedded
    // ALIGNED participation falls inside the driven horizon.
    let actions = d.run_rounds(400, |r| {
        Some(PunctualMsg::Beacon {
            epoch: 7,
            rho: 1000 + r,
            leader_remaining: 5000,
        })
    });
    assert!(
        !actions.iter().any(is_claim),
        "a follower must not run the slingshot"
    );
    // It participates in the embedded ALIGNED: estimation pings or data
    // eventually appear in aligned slots (position 5 of each round).
    let transmits_in_aligned: usize = actions
        .chunks(ROUND_LEN as usize)
        .filter(|round| matches!(round[5], Action::Transmit(_)))
        .count();
    assert!(
        transmits_in_aligned > 0,
        "follower should run ALIGNED in aligned slots"
    );
}

#[test]
fn ignores_an_earlier_deadline_leader_and_goes_anarchist() {
    let w = 1 << 13; // 819 rounds; pullback capped at 204 election slots
    let mut d = Driver::new(params(), w, 2);
    d.sync_onto_train();
    // The incumbent leader's deadline is far earlier than ours — and below
    // the final-check threshold (half our remaining), so after the
    // pullback the job must release the slingshot.
    let actions = d.run_rounds(300, |r| {
        Some(PunctualMsg::Beacon {
            epoch: 7,
            rho: 50 + r,
            leader_remaining: 10,
        })
    });
    let anarchy_data: usize = actions
        .chunks(ROUND_LEN as usize)
        .filter(|round| is_data(&round[9]))
        .count();
    assert!(
        anarchy_data > 0,
        "with no usable leader the job must transmit data in anarchy slots"
    );
}

#[test]
fn final_check_accepts_a_half_window_leader() {
    let w = 1 << 13; // my remaining ≈ 819 rounds
    let mut d = Driver::new(params(), w, 3);
    d.sync_onto_train();
    // Leader remaining ≈ 73% of ours: not enough to follow outright
    // (needs ≥ my_rem ≈ 819 rounds), but still above half the remaining
    // window when the pullback budget (819/4 ≈ 204 election slots) runs
    // out — the Figure-2 final check must round the window down and
    // follow rather than release the slingshot.
    let actions = d.run_rounds(400, |r| {
        Some(PunctualMsg::Beacon {
            epoch: 9,
            rho: r,
            leader_remaining: 600u64.saturating_sub(r),
        })
    });
    let anarchy_data: usize = actions
        .chunks(ROUND_LEN as usize)
        .filter(|round| is_data(&round[9]))
        .count();
    let aligned_tx: usize = actions
        .chunks(ROUND_LEN as usize)
        .filter(|round| matches!(round[5], Action::Transmit(_)))
        .count();
    assert_eq!(anarchy_data, 0, "half-window leader is good enough");
    assert!(aligned_tx > 0, "should round down and follow");
}

#[test]
fn claims_leadership_and_beacons_when_alone() {
    // Tiny window: claim probability is high, so a lone job claims fast.
    let w = 400; // 40 rounds; seed probed so the claim lands
    let mut d = Driver::new(params(), w, 8);
    // Empty channel: the job announces its own train after the listen
    // timeout (20 silent slots), then runs the slingshot.
    let mut became_leader = false;
    let mut beacons = 0;
    for _ in 0..(w - 1) {
        let a = d.step(|action| match action {
            Action::Transmit(p) => Feedback::Success {
                src: 0,
                payload: *p,
            },
            _ => Feedback::Silent,
        });
        if let Action::Transmit(p) = a {
            match PunctualMsg::decode(&p) {
                Some(PunctualMsg::Claim { .. }) => became_leader = true,
                Some(PunctualMsg::Beacon { .. }) => beacons += 1,
                _ => {}
            }
        }
    }
    assert!(became_leader, "lone job with p=1/2 claims quickly");
    assert!(beacons > 0, "the new leader must beacon");
    assert!(d.proto.is_leader() || d.proto.is_done());
}

#[test]
fn deposed_leader_hands_off_with_its_data() {
    // Seed chosen (by probing) so the lone job wins a claim early; the
    // claim probability at w=400 is ~0.5% per election slot, so most
    // seeds never claim inside one window.
    let w = 400;
    let mut d = Driver::new(params(), w, 8);
    // Let it become leader on an empty channel.
    let mut slots = 0;
    while !d.proto.is_leader() && slots < 300 {
        d.step(|action| match action {
            Action::Transmit(p) => Feedback::Success {
                src: 0,
                payload: *p,
            },
            _ => Feedback::Silent,
        });
        slots += 1;
    }
    assert!(d.proto.is_leader(), "setup: must become leader");
    // Feed a foreign successful claim with a later deadline in the next
    // election slot; then the leader must transmit its DATA in the next
    // timekeeper slot (the handoff).
    let mut handoff_seen = false;
    for _ in 0..3 * ROUND_LEN {
        let a = d.step(|action| {
            // Election slots carry the rival's claim; leader's own
            // transmissions succeed.
            match action {
                Action::Transmit(p) => Feedback::Success {
                    src: 0,
                    payload: *p,
                },
                _ => Feedback::Success {
                    src: 42,
                    payload: PunctualMsg::Claim { remaining: 1 << 20 }.encode(),
                },
            }
        });
        if is_data(&a) {
            handoff_seen = true;
            break;
        }
    }
    assert!(
        handoff_seen,
        "deposed leader must hand off with its data message"
    );
    assert!(d.proto.has_succeeded(), "the handoff delivered its data");
}

#[test]
fn follower_readopts_on_epoch_change() {
    let w = 1 << 14;
    let mut d = Driver::new(params(), w, 6);
    d.sync_onto_train();
    // Follow epoch 1 for a while.
    d.run_rounds(50, |r| {
        Some(PunctualMsg::Beacon {
            epoch: 1,
            rho: r,
            leader_remaining: 5000,
        })
    });
    // Epoch flips to 2 with a still-later deadline: the follower must not
    // panic, must keep participating (re-trimmed), and must never claim.
    let actions = d.run_rounds(100, |r| {
        Some(PunctualMsg::Beacon {
            epoch: 2,
            rho: 1000 + r,
            leader_remaining: 6000,
        })
    });
    assert!(!actions.iter().any(is_claim));
}

#[test]
fn synchronizes_with_correct_phase_despite_preceding_anarchy_noise() {
    let w = 1 << 13;
    let mut d = Driver::new(params(), w, 8);
    // Fabricated train where the anarchy slot (pos 9) is ALSO busy — the
    // case that breaks naive two-busy synchronization. Pattern per round:
    // busy busy silent ... busy(pos9). The newcomer hears pos 9, 0, 1 as a
    // 3-run; the anchor must land on pos 0, which we verify by watching
    // where the protocol places its own start transmissions.
    let mut start_positions = Vec::new();
    for _slot in 0..(6 * ROUND_LEN) {
        let pos = d.local % ROUND_LEN; // driver's ground-truth round phase
        let a = d.step(|action| match (pos, action) {
            (0 | 1 | 9, _) => Feedback::Noise,
            (3, _) => Feedback::Success {
                src: 99,
                payload: PunctualMsg::Beacon {
                    epoch: 3,
                    rho: 77,
                    leader_remaining: 4000,
                }
                .encode(),
            },
            (_, Action::Transmit(p)) => Feedback::Success {
                src: 0,
                payload: *p,
            },
            _ => Feedback::Silent,
        });
        if let Action::Transmit(p) = a {
            if PunctualMsg::decode(&p) == Some(PunctualMsg::Start) {
                start_positions.push(pos);
            }
        }
    }
    assert!(
        !start_positions.is_empty(),
        "job must synchronize and transmit starts"
    );
    assert!(
        start_positions.iter().all(|p| *p == 0 || *p == 1),
        "starts must land exactly on the true start slots, got {start_positions:?}"
    );
}
