//! The conformance matrix's checkpoint column: a run paused at a slot,
//! snapshotted, round-tripped through JSON and restored into a fresh
//! engine must report **byte-identically** to the uninterrupted run, and
//! so must the paused engine when it finishes (the snapshot is a pure
//! read). See `testkit` for the driver; the cells cross every
//! checkpointable protocol, cohort and kernel state, an aggregate class
//! with state capture and the duty groups of `Metronome` with the
//! adversary grid. Beside them stay the typed-error and tamper tests: a
//! checkpoint the engine cannot honour is refused, never accepted and
//! left to panic mid-run.

mod testkit;

use contention_deadlines::protocols::{AlignedParams, AlignedProtocol};
use contention_deadlines::sim::checkpoint::{Checkpoint, CheckpointError};
use contention_deadlines::sim::engine::{Engine, EngineConfig};
use contention_deadlines::sim::jamming::{JamPolicy, Jammer};
use contention_deadlines::sim::job::JobSpec;
use proptest::prelude::*;
use serde_json::{Number, Value};
use testkit::{
    arb_case, check, check_case, grid, protocol_pick, staggered, ALL, OBSERVED, RESTORE, VECTORIZED,
};

#[test]
fn protocol_adversary_grid_exact() {
    let picks = "pick0 pick1 pick2 pick3 pick4 pick5";
    check(&grid(picks, ALL, 0..1), &[RESTORE]);
}

/// Cohort-, kernel- and exact-path jobs interleaved, so the snapshot
/// carries cohort draws, the kernel calendar and per-job state side by
/// side.
#[test]
fn mixed_populations_cohort_and_vectorized() {
    let cases = grid("cohort-mixed fidelity-mixed", ALL, 0..1);
    check(&cases, &[RESTORE, VECTORIZED | RESTORE]);
}

#[test]
fn aggregate_class_checkpoints_across_jammer_grid() {
    check(&grid("class-aloha", ALL, 0..1), &[RESTORE]);
}

/// The documented unsupported cases surface as typed errors, never as
/// silently-wrong checkpoints.
#[test]
fn unsupported_and_mismatched_cases_are_typed_errors() {
    // Trace and probe recording are observer state the checkpoint
    // excludes: the matrix asserts the refusal.
    check(&grid("pick5", "clean", 0..1), &[OBSERVED | RESTORE]);

    // ALIGNED carries live protocol state without capture hooks; the
    // jammer keeps jobs alive at the boundary so the gap is exercised.
    let mut aligned = Engine::new(EngineConfig::aligned(), 5);
    aligned.set_jammer(Jammer::new(JamPolicy::AllSuccesses, 1.0));
    for i in 0..8 {
        let protocol = AlignedProtocol::new(AlignedParams::new(1, 2, 1));
        aligned.add_job(JobSpec::new(i, 0, 64), Box::new(protocol));
    }
    aligned.run_to(16);
    assert!(
        matches!(aligned.snapshot(), Err(CheckpointError::Unsupported(_))),
        "stateful protocols without capture hooks must refuse to snapshot"
    );

    // A checkpoint only restores into its exact construction: a
    // different seed is a fingerprint mismatch, not a corrupt run.
    let build = |seed: u64| {
        let mut e = Engine::new(EngineConfig::default(), seed);
        e.add_jobs(&staggered(12, 4, 200), |_| protocol_pick(5));
        e
    };
    let mut src = build(1);
    src.run_to(64);
    let ck = src.snapshot().expect("snapshot");
    assert!(
        matches!(build(2).restore(&ck), Err(CheckpointError::Mismatch(_))),
        "restore must reject a mismatched construction fingerprint"
    );
    build(1)
        .restore(&ck)
        .expect("matching construction restores");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(testkit::cases(12)))]

    /// Random populations × random windows (any width) × random snapshot
    /// slots × exact, cohort and vectorized fidelity: the checkpoint is
    /// slot-position independent.
    #[test]
    fn random_populations_checkpoint_equivalently(case in arb_case(32, 256, 64u64..384)) {
        check_case(&case, &[RESTORE, VECTORIZED | RESTORE]);
        check_case(&case.cohort(), &[RESTORE]);
    }
}

/// The member `key` of the JSON object `v`.
fn member<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1,
        other => panic!("expected an object, got {}", other.kind()),
    }
}

/// A checkpoint edited into an inconsistent image is refused with a typed
/// mismatch at restore — never accepted and left to panic mid-run.
#[test]
fn tampered_checkpoints_are_mismatches() {
    let build = |config: EngineConfig| {
        let mut e = Engine::new(config, 9);
        e.add_jobs(&staggered(24, 5, 240), |_| protocol_pick(0));
        e
    };
    let snapshot = |config: EngineConfig| {
        let mut e = build(config);
        e.run_to(120);
        e.snapshot().expect("snapshot")
    };
    let refused = |config: EngineConfig, ck: &Checkpoint| {
        matches!(build(config).restore(ck), Err(CheckpointError::Mismatch(_)))
    };

    // A one-shot cohort whose deadline precedes the pause slot (its hazard
    // would divide by a negative remainder on the next slot).
    let ck = snapshot(EngineConfig::default().cohort());
    let mut doc = serde_json::to_value(&ck).expect("checkpoint to json");
    let Value::Array(cohorts) = member(&mut doc, "cohorts") else {
        panic!("cohorts serialize as a list");
    };
    let cohort = cohorts
        .iter_mut()
        .find(|c| c.get("model").and_then(Value::as_str) == Some("OneShot"))
        .expect("a live one-shot cohort at the pause");
    *member(cohort, "deadline") = Value::Number(Number::U(ck.slot - 1));
    let tampered: Checkpoint = serde_json::from_value(&doc).expect("json to checkpoint");
    assert!(
        refused(EngineConfig::default().cohort(), &tampered),
        "a cohort past its deadline must be a mismatch"
    );

    // A version-2 image, which carried the jammer's and the cohorts'
    // stream word positions: this build keeps no RNG state to restore
    // them into, so the version alone refuses it.
    let mut doc = serde_json::to_value(&ck).expect("checkpoint to json");
    *member(&mut doc, "version") = Value::Number(Number::U(2));
    let Value::Object(fields) = &mut doc else {
        panic!("a checkpoint serializes as an object");
    };
    fields.push(("jam_word_pos".into(), Value::Number(Number::U(64))));
    fields.push(("cohort_word_pos".into(), Value::Number(Number::U(16))));
    let v2: Checkpoint = serde_json::from_value(&doc).expect("json to checkpoint");
    assert!(
        refused(EngineConfig::default().cohort(), &v2),
        "a version-2 checkpoint must be a mismatch"
    );

    // A parked entry before the wake queue's base (a wake in the past).
    let mut ck = snapshot(EngineConfig::default());
    assert!(ck.parked.base > 0, "the pause is past slot 0");
    ck.parked.entries[0].0 = ck.parked.base - 1;
    assert!(
        refused(EngineConfig::default(), &ck),
        "a wake before the queue's base must be a mismatch"
    );

    // A pending-per-deadline count moved off its jobs' deadline (a later
    // delivery would find no pending count to decrement), or listed twice
    // (its jobs would pend twice over).
    let ck = snapshot(EngineConfig::default().vectorized());
    let at = first_shot_live_deadline(&ck.kernel);
    let mut kernels: Vec<Vec<u64>> = [0, ck.slot, ck.kernel[at] + 1000]
        .into_iter()
        .map(|deadline| {
            let mut kernel = ck.kernel.clone();
            kernel[at] = deadline;
            kernel
        })
        .collect();
    let mut twice = ck.kernel.clone();
    twice[at - 1] += 1;
    twice.splice(at..at, ck.kernel[at..at + 2].to_vec());
    kernels.push(twice);
    for kernel in kernels {
        let tampered = Checkpoint {
            kernel,
            ..ck.clone()
        };
        assert!(
            refused(EngineConfig::default().vectorized(), &tampered),
            "a tampered one-shot count must be a mismatch"
        );
    }
}

/// Index of the first deadline in a kernel blob's pending-per-deadline
/// map. The blob is Bernoulli buckets (`p_bits`, deadline, lane count,
/// lanes, alive words), then the calendar (count, `(slot, job)` pairs),
/// then the map (count, `(deadline, pending)` pairs).
fn first_shot_live_deadline(kernel: &[u64]) -> usize {
    let mut at = 1;
    for _ in 0..kernel[0] {
        let lanes = kernel[at + 2] as usize;
        at += 3 + lanes + lanes.div_ceil(64);
    }
    at += 1 + 2 * kernel[at] as usize;
    assert!(kernel[at] > 0, "a pending one-shot at the pause");
    at + 1
}
