//! The conformance matrix's law-level column: [`Fidelity::Cohort`] ↔
//! the exact path. Cohort mode draws one binomial per cohort instead of
//! per-job Bernoullis, so the claim is distributional, in two strengths:
//!
//! * ALOHA ([`FixedProbability`]) and one-shot [`Uniform`] are *exactly*
//!   the cohort model, so job-level Wilson intervals must overlap.
//! * ALIGNED and PUNCTUAL classes fail a whole class at once, so they are
//!   compared on trial-level means ([`assert_success_law_match`]).
//!
//! Within cohort fidelity the bit-exact transforms of `testkit` still
//! apply; the matrix runs them on the cohort populations.
//!
//! [`Fidelity::Cohort`]: contention_deadlines::sim::engine::Fidelity::Cohort

mod testkit;

use contention_deadlines::baselines::FixedProbability;
use contention_deadlines::protocols::Uniform;
use contention_deadlines::sim::engine::{Engine, EngineConfig, Protocol};
use contention_deadlines::sim::job::JobSpec;
use contention_deadlines::sim::probe::{ProbeEvent, ProbeSpec, SinkSpec};
use testkit::{
    assert_success_law_match, assert_wilson_overlap, check, grid, population, Pop, ALL, REUSE,
};

const Z95: f64 = 1.959_963_985;

/// `n` cohort-fidelity jobs over `[0, w)`, all running `protocol`.
fn batch(n: u32, w: u64, protocol: fn() -> Box<dyn Protocol>) -> Pop {
    let jobs = (0..n).map(|i| JobSpec::new(i, 0, w)).collect();
    Pop::new("batch", EngineConfig::default().cohort(), jobs, move |_| {
        protocol()
    })
}

/// n jobs at p = 1/n (contention 1) over 4 windows' worth of slots: enough
/// contention to exercise the aggregate resolution, enough slack that most
/// jobs deliver.
#[test]
fn aloha_cohort_matches_exact_tightly() {
    let pop = batch(48, 256, || Box::new(FixedProbability::new(1.0 / 48.0)));
    assert_wilson_overlap(&pop, 300, [1001, 2002], Z95);
}

/// Contention 4: most slots collide and the binomial draw is >1 almost
/// always, stressing "materialize only the sole winner"; z = 3 for the
/// rarer-event proportion.
#[test]
fn aloha_cohort_matches_exact_under_heavy_contention() {
    let pop = batch(64, 192, || Box::new(FixedProbability::new(4.0 / 64.0)));
    assert_wilson_overlap(&pop, 250, [3003, 4004], 3.0);
}

/// k = 1 with n jobs in a window of n (the Lemma 4 regime, ≈ 1/e of slots
/// singletons), and the sparse regime w ≫ n where nearly everyone
/// succeeds.
#[test]
fn uniform_cohort_matches_exact() {
    let uniform = || -> Box<dyn Protocol> { Box::new(Uniform::single()) };
    assert_wilson_overlap(&batch(64, 64, uniform), 300, [5005, 6006], Z95);
    assert_wilson_overlap(&batch(32, 512, uniform), 300, [7007, 8008], Z95);
}

/// The ALIGNED class driver replays the shared schedule once per class and
/// draws one binomial per slot; the success law must match the exact path
/// under every adversary, including the data-jammer cells that exercise
/// the jammed-broadcast-winner exclusion rule. The RNG domains differ
/// (class stream vs per-job streams), and one bad size estimate fails a
/// whole class, so the comparison is cluster-robust.
#[test]
fn aligned_aggregate_matches_exact_across_jammers() {
    let pop = population("cohort-aligned");
    for (cell, adv) in ALL.split(' ').enumerate() {
        assert_success_law_match(&pop, adv, 60, 20_000 + 100 * cell as u64);
    }
}

/// PUNCTUAL's aggregate advances the duty-masked group machine once per
/// class and materializes only at lone wins, elections and anarchist
/// conversions; the success law must track the exact path under every
/// adversary, beacon- and claim-killing jammers included. A class shares
/// one leader/anarchy fate per trial, so the comparison is cluster-robust.
#[test]
fn punctual_aggregate_matches_exact_across_jammers() {
    let pop = population("cohort-punctual");
    for (cell, adv) in ALL.split(' ').enumerate() {
        assert_success_law_match(&pop, adv, 40, 30_000 + 100 * cell as u64);
    }
}

/// Canary against the grids passing because cohort mode fell back to
/// per-job execution: class drivers stamp their records with no job id —
/// ALIGNED's size estimates, PUNCTUAL's leader elections.
#[test]
fn aggregate_classes_actually_engage() {
    let driver_events = |name: &str, seed: u64| {
        let pop = population(name);
        let probe = ProbeSpec::new().with(SinkSpec::Events);
        let mut e = Engine::new(pop.config.with_probe(probe), seed);
        e.add_jobs(&pop.jobs, |s| (pop.factory)(s));
        let events = e.run().probes.and_then(|p| p.events().map(<[_]>::to_vec));
        let driven = events.into_iter().flatten().filter(|rec| rec.job.is_none());
        driven.map(|rec| rec.event).collect::<Vec<_>>()
    };
    assert!(
        driver_events("cohort-aligned", 5)
            .iter()
            .any(|e| matches!(e, ProbeEvent::SizeEstimate { .. })),
        "aligned class driver never engaged"
    );
    assert!(
        (0..10).any(|seed| driver_events("cohort-punctual", seed).contains(&ProbeEvent::LeaderElected)),
        "punctual class driver never elected a leader"
    );
}

/// Mean declared contention per slot must agree between the exact and
/// aggregate paths: the driver declares `m·p` on sampled steps and `m` on
/// deterministic ones, mirroring the per-job `tx_probability` sum. Dense
/// and traced on both sides (declared contention lives in the slot
/// records), on a clean channel so both paths see the same feedback
/// histories.
#[test]
fn aggregate_contention_accounting_matches_exact() {
    let pop = population("cohort-aligned");
    let [exact, agg] = [EngineConfig::aligned(), pop.config.clone()].map(|config| {
        let mut e = Engine::new(config.dense().with_trace(), 11);
        e.add_jobs(&pop.jobs, |s| (pop.factory)(s));
        let r = e.run();
        let trace = r.trace().expect("traced run");
        let sum: f64 = trace.iter().map(|rec| rec.declared_contention).sum();
        let covered: u64 = trace.iter().map(|rec| rec.covered_slots()).sum();
        (sum, covered)
    });
    assert!(
        exact.1 > 0 && agg.1 > 0,
        "contention must be measured on both paths"
    );
    let (me, ma) = (exact.0 / exact.1 as f64, agg.0 / agg.1 as f64);
    // Same declared-probability law, different coins: means agree within
    // 20% relative (both paths measure hundreds of slots).
    assert!(
        (me - ma).abs() <= 0.2 * me.max(ma),
        "mean declared contention diverges: exact {me} vs aggregate {ma}"
    );
}

/// Same seed ⇒ same cohort draws ⇒ an identical report, whether a fresh
/// engine runs it or one built on the allocations other trials left.
#[test]
fn cohort_mode_is_deterministic_per_seed() {
    check(&grid("cohort-aloha", ALL, 0..2), &[REUSE]);
}
