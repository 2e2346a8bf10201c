//! The conformance matrix's scheduling column: event-driven ↔ dense.
//!
//! The wake-hint contract ([`Protocol::next_wake`]) promises that every
//! skipped `act()` call would have returned `Sleep` without drawing
//! randomness or mutating state, and duty groups and gap skips make the
//! same promise in bulk. A hint that is too eager by one slot, blind to a
//! state transition, or misaligned with its RNG draw schedule makes the
//! two modes' reports diverge outside the `DENSE` mask (see
//! `testkit`). These cells pin the equivalence for every protocol in the
//! workspace across the adversary grid, plus its compositions with probe
//! sinks and trial-arena reuse.
//!
//! [`Protocol::next_wake`]: contention_deadlines::sim::engine::Protocol::next_wake

mod testkit;

use contention_deadlines::protocols::Uniform;
use contention_deadlines::sim::engine::{Engine, EngineConfig};
use contention_deadlines::sim::jamming::{AdversarySpec, JamPolicy, Jammer};
use contention_deadlines::sim::job::JobSpec;
use contention_deadlines::sim::trace::{SlotOutcome, SlotRecord};
use proptest::prelude::*;
use testkit::{
    arb_case, check, check_case, grid, population, take_heard, watched, Adv, Case, Pop, ALL, DENSE,
    OBSERVED, REUSE,
};

fn dense(pops: &str, seeds: std::ops::Range<u64>) {
    check(&grid(pops, ALL, seeds), &[DENSE]);
}

#[test]
fn uniform_matches_dense() {
    dense("uniform1 uniform3", 0..8);
}

#[test]
fn scheduled_slots_match_dense() {
    dense("scheduled", 0..4);
}

#[test]
fn windowed_backoff_matches_dense() {
    dense(
        "windowed-geometric windowed-linear windowed-quadratic windowed-fixed",
        0..4,
    );
}

#[test]
fn sawtooth_matches_dense() {
    dense("sawtooth", 0..6);
}

#[test]
fn beb_matches_dense() {
    dense("beb", 0..6);
}

/// FixedProbability opts out of wake hints, so event-driven mode polls it
/// densely; only the idle stretches between its jobs can be skipped.
#[test]
fn hintless_protocol_matches_dense() {
    dense("aloha", 0..4);
}

#[test]
fn aligned_matches_dense() {
    dense("aligned", 0..4);
}

/// E7's stress shape: 64 jobs in one class-10 window, each parked
/// through the estimation steps it only listens to, under every
/// adversary (idle strikes and jammed idle slots included).
#[test]
fn aligned_stress_matches_dense() {
    dense("aligned-stress", 0..2);
}

/// A slot cap inside the estimation run: jobs still parked through heard
/// slots when the run stops catch up at the cap, so their listens count
/// as under dense polling.
#[test]
fn capped_aligned_stress_matches_dense() {
    let mut pop = population("aligned-stress");
    pop.config.max_slots = Some(60);
    let advs = ALL.split(' ').map(testkit::jammer);
    let cases: Vec<Case> = advs.map(|adv| Case::new(pop.clone(), adv, 1)).collect();
    check(&cases, &[DENSE]);
}

/// The witness for `aligned_stress_matches_dense`: event-driven ALIGNED
/// jobs really park inside estimation. They wake to catch up on heard
/// steps and credit their listens there, while dense polling credits
/// every listen in its own slot; both count the same listens.
#[test]
fn aligned_stress_parks_inside_estimation() {
    let pop = population("aligned-stress");
    let run = |config: EngineConfig| {
        let mut e = Engine::new(config, 11);
        e.set_jammer(Jammer::new(JamPolicy::AllSuccesses, 0.5));
        e.add_jobs(&pop.jobs, |s| watched(s, (pop.factory)(s)));
        take_heard();
        let listens: u64 = e.run().accesses.iter().map(|a| a.listens).sum();
        (take_heard(), listens)
    };
    let ((wakes, credited), listens) = run(pop.config.clone());
    assert!(wakes >= pop.jobs.len() as u64, "only {wakes} heard parks");
    assert!(
        credited * 2 > listens,
        "heard parks credited {credited} of {listens} listens"
    );
    let (dense_heard, dense_listens) = run(pop.config.clone().dense());
    assert_eq!(dense_heard, (0, 0), "dense polling parked a job");
    assert_eq!(dense_listens, listens);
}

/// CLOCKED on unaligned windows: jobs asleep until their trimmed window,
/// parked through the estimation steps they hear and the broadcast steps
/// they sleep through, and falling back to per-slot coins.
#[test]
fn clocked_matches_dense() {
    dense("clocked", 0..2);
}

#[test]
fn punctual_matches_dense() {
    dense("punctual", 0..3);
}

#[test]
fn mixed_population_matches_dense() {
    dense("mixed", 0..4);
}

#[test]
fn poisson_punctual_matches_dense() {
    check(&grid("poisson-punctual", "clean", 0..3), &[DENSE]);
}

/// An idle-striking adversary (Gilbert–Elliott) must stop the engine from
/// fast-forwarding a live job's parked stretch; a stateful adversary that
/// never strikes silence (reactive) must not, and its bulk
/// `on_silent_gap` replay keeps the modes bit-exact anyway.
#[test]
fn idle_striking_adversary_disables_gap_skip() {
    // One lone job parks until its randomly chosen transmit slot.
    let jobs = vec![JobSpec::new(0, 0, 1 << 13)];
    let lone = Pop::new("lone", EngineConfig::default(), jobs, |_| {
        Box::new(Uniform::single())
    });
    let adv = |name, spec| Adv {
        name,
        spec,
        p_jam: 1.0,
    };
    let (p_enter, p_exit) = (0.3, 0.3);
    let ge = adv("ge-idle-strike", AdversarySpec::Bursty { p_enter, p_exit });
    let (k, reset_gap) = (1, 4);
    let reactive = adv(
        "reactive-gap-replay",
        AdversarySpec::Reactive { k, reset_gap },
    );
    // Whether a traced run skipped a gap while the job was live, and how
    // many slots were jammed.
    let gap_skipped = |adv: &Adv| {
        let mut e = Engine::new(EngineConfig::default().with_trace(), 7);
        e.set_jammer(adv.jammer());
        e.add_jobs(&lone.jobs, |s| (lone.factory)(s));
        let r = e.run();
        let live_gap = |rec: &SlotRecord| {
            matches!(rec.outcome, SlotOutcome::SilentGap { .. }) && rec.live_jobs > 0
        };
        (r.trace().unwrap().iter().any(live_gap), r.counts.jammed)
    };
    let (skipped, jammed) = gap_skipped(&ge);
    assert!(
        !skipped,
        "engine fast-forwarded past an idle-striking adversary"
    );
    assert!(jammed > 0, "bursty faults never struck the idle channel");
    assert!(
        gap_skipped(&reactive).0,
        "non-idle-striking adversary should not inhibit fast-forwarding"
    );
    let cases: Vec<_> = [ge, reactive]
        .iter()
        .flat_map(|adv| (0..6).map(|seed| Case::new(lone.clone(), adv.clone(), seed)))
        .collect();
    check(&cases, &[DENSE]);
}

/// Probe sinks compose with scheduling: with a trace and event, Chrome and
/// aggregate sinks attached, every event lands on the same slot in both
/// modes, the trace tallies alike, and attaching them perturbs nothing.
#[test]
fn probe_sinks_byte_identical_across_modes() {
    let cases = grid("punctual aligned aligned-stress clocked", "clean", 0..3);
    check(&cases, &[DENSE | OBSERVED]);
}

/// Cohort class drivers buffer their events and record only while the
/// probe bus attends: attending must not perturb the run, and the event
/// stream (job-less driver records included) must not depend on
/// scheduling.
#[test]
fn cohort_probe_events_byte_identical_when_attended() {
    let cases = grid("cohort-aligned cohort-punctual", "clean", 0..3);
    check(&cases, &[DENSE | OBSERVED]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(testkit::cases(24)))]

    /// Random populations, windows, releases and adversaries, each at
    /// exact and at cohort fidelity.
    #[test]
    fn random_population_equivalence(case in arb_case(10, 512, testkit::pow2(6..12))) {
        check_case(&case, &[DENSE]);
        check_case(&case.cohort(), &[DENSE]);
    }

    /// Trial-arena reuse: a pooled engine reset after other trials reports
    /// byte-identically to `Engine::fresh`, untraced and traced (raw trace
    /// included), in either scheduling mode.
    #[test]
    fn pooled_reuse_equals_fresh(case in arb_case(8, 256, testkit::pow2(6..11)), dense in 0u8..2) {
        let reuse = [REUSE, OBSERVED | REUSE].map(|v| v | (dense * DENSE));
        check_case(&case, &reuse);
        check_case(&case.cohort(), &reuse);
    }

    /// Random PUNCTUAL populations: the protocol with the most intricate
    /// wake mask (round-position and phase dependent).
    #[test]
    fn random_punctual_equivalence(seed in 0u64..1_000_000, n in 2u32..7, spread in 1u64..200) {
        let mut pop = population("punctual");
        pop.jobs = testkit::staggered(n, spread, 1 << 12);
        check_case(&Case::new(pop, testkit::jammer("clean"), seed), &[DENSE]);
    }
}
