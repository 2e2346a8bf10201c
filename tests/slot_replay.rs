//! O(1) slot replay: any `(trial, job, slot)` transmission decision can
//! be reproduced *without running the engine*, by evaluating the pure
//! counter draw at that position.
//!
//! The engine hands every protocol callback a [`CounterRng`] keyed on
//! `(trial_seed → job_key, slot, phase)`, so the first draw a protocol
//! makes in a slot is a pure function of those coordinates. For the two
//! kernel-eligible shapes this pins the whole transmission schedule:
//!
//! - ALOHA ([`FixedProbability`]): one `gen_bool(p)` per polled slot —
//!   [`crng::replay_bernoulli`] must equal "did it transmit" for every
//!   slot the job was live, transmit or not.
//! - One-shot UNIFORM ([`Uniform::single`]): one `gen_range(0..w)` at
//!   activation — [`crng::replay_oneshot`] must name the exact global
//!   slot of the job's single attempt.
//!
//! The kit's watch wrapper logs the full run's actual transmissions
//! (under the full adversary grid and both scheduling modes); the replay
//! side never touches the engine — just [`SeedSeq::job_key`] and the
//! draw.
//!
//! The jammer draws the same way, from `(jam key, slot, Act)`: under
//! `AllSuccesses` its only draw in a slot is the `p_jam` coin, so a
//! traced run's lone transmissions are jammed exactly where that position
//! says so.
//!
//! [`CounterRng`]: contention_deadlines::sim::crng::CounterRng
//! [`crng::replay_bernoulli`]: contention_deadlines::sim::crng::replay_bernoulli
//! [`crng::replay_oneshot`]: contention_deadlines::sim::crng::replay_oneshot
//! [`FixedProbability`]: contention_deadlines::baselines::FixedProbability
//! [`Uniform::single`]: contention_deadlines::protocols::Uniform::single
//! [`SeedSeq::job_key`]: contention_deadlines::sim::rng::SeedSeq::job_key

mod testkit;

use contention_deadlines::baselines::FixedProbability;
use contention_deadlines::protocols::Uniform;
use contention_deadlines::sim::crng::{self, CounterRng, Phase};
use contention_deadlines::sim::engine::{Engine, EngineConfig};
use contention_deadlines::sim::jamming::{JamPolicy, Jammer};
use contention_deadlines::sim::job::JobSpec;
use contention_deadlines::sim::metrics::{JobOutcome, SimReport};
use contention_deadlines::sim::rng::{SeedSeq, StreamLabel};
use contention_deadlines::sim::trace::SlotOutcome;
use rand::Rng;
use testkit::{jammer, take_watch, watched, ALL};

/// Run `specs` as ALOHA jobs (`Some(p)`) or one-shot UNIFORM jobs
/// (`None`) under `config`, adversary `adv` and `seed`; return the report
/// and the logged `(job, slot)` transmissions.
fn record_run(
    config: &EngineConfig,
    adv: &'static str,
    seed: u64,
    specs: &[JobSpec],
    p: Option<f64>,
) -> (SimReport, Vec<(u32, u64)>) {
    let mut engine = Engine::new(config.clone(), seed);
    engine.set_jammer(jammer(adv).jammer());
    engine.add_jobs(specs, |s| match p {
        Some(p) => watched(s, Box::new(FixedProbability::new(p))),
        None => watched(s, Box::new(Uniform::single())),
    });
    take_watch();
    let report = engine.run();
    (report, take_watch().1)
}

/// The last slot in which `spec`'s job was polled: its delivery slot on
/// success, else the final slot of its window.
fn last_live_slot(spec: &JobSpec, outcome: &JobOutcome) -> u64 {
    match outcome {
        JobOutcome::Success { slot } => *slot,
        JobOutcome::Missed => spec.deadline - 1,
    }
}

#[test]
fn aloha_schedule_replays_from_pure_draws() {
    let p = 0.04;
    let specs = testkit::staggered(20, 41, 700);
    for jname in ALL.split(' ') {
        for seed in 0..3u64 {
            for config in &[EngineConfig::default(), EngineConfig::default().dense()] {
                let (report, txs) = record_run(config, jname, seed, &specs, Some(p));
                let keys = SeedSeq::new(seed);
                for spec in &specs {
                    let key = keys.job_key(u64::from(spec.id));
                    let last = last_live_slot(spec, &report.outcome(spec.id));
                    for slot in spec.release..=last {
                        let recorded = txs.contains(&(spec.id, slot));
                        let replayed = crng::replay_bernoulli(key, slot, p);
                        assert_eq!(
                            recorded, replayed,
                            "jam={jname} seed={seed} job={} slot={slot}: \
                             run recorded {recorded}, pure draw replays {replayed}",
                            spec.id
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn oneshot_attempt_replays_from_pure_draw() {
    let specs = testkit::staggered(24, 29, 400);
    for jname in ALL.split(' ') {
        for seed in 0..3u64 {
            for config in &[EngineConfig::default(), EngineConfig::default().dense()] {
                let (_, txs) = record_run(config, jname, seed, &specs, None);
                let keys = SeedSeq::new(seed);
                for spec in &specs {
                    let key = keys.job_key(u64::from(spec.id));
                    let predicted = crng::replay_oneshot(key, spec.release, spec.window());
                    let actual: Vec<u64> = txs
                        .iter()
                        .filter(|(id, _)| *id == spec.id)
                        .map(|(_, s)| *s)
                        .collect();
                    assert_eq!(
                        actual,
                        vec![predicted],
                        "jam={jname} seed={seed} job={}: one-shot replay diverges",
                        spec.id
                    );
                }
            }
        }
    }
}

#[test]
fn replay_is_positionwise_not_streamwise() {
    // The O(1) property proper: replaying a *sampled* position needs no
    // prefix — query slots out of order, interleaved across jobs, and
    // compare against one reference run.
    let p = 0.07;
    let specs = testkit::staggered(12, 17, 300);
    let seed = 9;
    let (report, txs) = record_run(&EngineConfig::default(), "clean", seed, &specs, Some(p));
    let keys = SeedSeq::new(seed);
    // A scattered probe order: stride through (job, slot) space backwards.
    for probe in (0..600u64).rev().step_by(7) {
        let spec = &specs[(probe % 12) as usize];
        let slot = spec.release + probe % spec.window();
        if slot > last_live_slot(spec, &report.outcome(spec.id)) {
            continue;
        }
        let key = keys.job_key(u64::from(spec.id));
        assert_eq!(
            txs.contains(&(spec.id, slot)),
            crng::replay_bernoulli(key, slot, p),
            "job={} slot={slot}",
            spec.id
        );
    }
}

#[test]
fn jammer_coin_replays_from_its_slot_position() {
    let p_jam = 0.5;
    let specs = testkit::staggered(20, 41, 700);
    for seed in 0..3u64 {
        for config in [EngineConfig::default(), EngineConfig::default().dense()] {
            let mut engine = Engine::new(config.with_trace(), seed);
            engine.set_jammer(Jammer::new(JamPolicy::AllSuccesses, p_jam));
            engine.add_jobs(&specs, |_| Box::new(FixedProbability::new(0.04)));
            let report = engine.run();
            let jam_key = SeedSeq::new(seed).derive(StreamLabel::Jammer, 0);
            let (mut lone, mut jammed) = (0u32, 0u32);
            for rec in report.trace().expect("traced run") {
                let was_jammed = match rec.outcome {
                    SlotOutcome::Success { .. } => false,
                    SlotOutcome::Jammed { n_tx: 1 } => true,
                    _ => continue,
                };
                let says_jam = CounterRng::new(jam_key, rec.slot, Phase::Act).gen_bool(p_jam);
                assert_eq!(
                    was_jammed, says_jam,
                    "seed={seed} slot={}: the run jammed {was_jammed}, \
                     the jammer's position says {says_jam}",
                    rec.slot
                );
                lone += 1;
                jammed += u32::from(was_jammed);
            }
            assert!(
                jammed > 0 && jammed < lone,
                "seed={seed}: {jammed} of {lone} lone slots jammed; both kinds must occur"
            );
        }
    }
}
