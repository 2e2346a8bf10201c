//! The conformance matrix beyond its single-transform columns (see
//! `testkit` for the transforms and their masks): the adversary-swap
//! branch column, the observer column, duty groups under pause/restore,
//! and — nightly, via `--include-ignored` — every pair of transforms on
//! every population.

mod testkit;

use testkit::{
    check, grid, idle_listens, pairwise, population, ALL, BRANCH, OBSERVED, POPULATIONS, RESTORE,
};

/// `Metronome` is the one checkpointable protocol with duty groups: its
/// members' duty registrations, group schedules and lazily settled
/// counters must survive a snapshot at every pause.
#[test]
fn duty_groups_survive_restore() {
    check(&grid("metronome", ALL, 0..3), &[RESTORE]);
}

/// A restored engine that swaps its adversary (`run_branched`) finishes
/// exactly as the uninterrupted run that swaps inline at the same slot.
#[test]
fn branches_match_inline_swaps() {
    let pops = "pick0 pick2 pick5 class-aloha metronome cohort-mixed";
    check(&grid(pops, ALL, 0..1), &[BRANCH]);
}

/// Observers (a trace and probe sinks) change nothing but their own
/// output, on exact, kernel-fallback, duty-group and cohort-class runs,
/// and on exact ALIGNED and CLOCKED jobs parked through the steps they
/// hear.
#[test]
fn observers_change_nothing_but_their_output() {
    let pops = "mixed metronome aligned-fallback cohort-aligned aligned-stress clocked";
    check(&grid(pops, "clean reactive", 0..2), &[OBSERVED]);
}

/// The listen audit: an ALIGNED job, in the pure aligned setting or
/// inside CLOCKED's trimmed window, listens only where the feedback feeds
/// its replicated tracker, so every listen changes its state. PUNCTUAL's
/// listens are counted too (run with `--nocapture` to see them by state).
#[test]
fn aligned_listens_all_change_state() {
    for name in ["aligned", "aligned-stress", "clocked"] {
        let audit = idle_listens(&population(name), 0..1);
        let (idle, listens) = audit.values().fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
        assert!(listens > 0, "{name}: nothing listened");
        assert_eq!(
            idle, 0,
            "{name}: listens that changed nothing, by state: {audit:?}"
        );
    }
    let audit = idle_listens(&population("punctual"), 0..2);
    println!("punctual (listens that changed nothing, listens) by state: {audit:?}");
    assert!(
        audit.values().any(|c| c.1 > 0),
        "punctual: nothing listened"
    );
}

#[test]
#[ignore = "nightly: every pair of transforms on every population (run in release)"]
fn every_pair_of_transforms_on_every_population() {
    check(&grid(POPULATIONS, ALL, 0..3), &pairwise());
}
