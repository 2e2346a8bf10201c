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

use contention_deadlines::baselines::FixedProbability;
use contention_deadlines::protocols::{AlignedParams, AlignedProtocol};
use contention_deadlines::sim::checkpoint::{Checkpoint, CheckpointError, KernelSnap};
use contention_deadlines::sim::engine::{
    Action, Engine, EngineConfig, Heard, JobCtx, Protocol, Wake,
};
use contention_deadlines::sim::jamming::{JamPolicy, Jammer};
use contention_deadlines::sim::job::JobSpec;
use contention_deadlines::sim::message::Payload;
use contention_deadlines::sim::metrics::SimReport;
use contention_deadlines::sim::slot::Feedback;
use dcr_bench::experiments::util::PersistentP;
use proptest::prelude::*;
use rand::RngCore;
use serde::{DeError, Deserialize, Serialize};
use serde_json::{Number, Value};
use testkit::{
    arb_case, check, check_case, grid, jammer, population, protocol_pick, staggered, Case, Pop,
    ALL, DENSE, OBSERVED, RESTORE, VECTORIZED,
};

/// Listens in every slot of its window but local slot `at`, where it
/// transmits its data, and counts the non-silent slots it hears. Until
/// `at` it parks through the slots it hears, catching up on wake; it
/// also captures its state, so only that park can stop a snapshot.
#[derive(Serialize, Deserialize)]
struct Eavesdropper {
    at: u64,
    /// The last local slot it attended.
    last: u64,
    heard: u64,
}

impl Protocol for Eavesdropper {
    fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
        self.last = ctx.local_time;
        if ctx.local_time == self.at {
            Action::Transmit(Payload::Data(ctx.id))
        } else {
            Action::Listen
        }
    }
    fn on_feedback(&mut self, _ctx: &JobCtx, fb: &Feedback, _rng: &mut dyn RngCore) {
        self.heard += u64::from(*fb != Feedback::Silent);
    }
    fn next_wake(&self, ctx: &JobCtx) -> Option<Wake> {
        (ctx.local_time < self.at).then_some(Wake::Hearing(self.at))
    }
    fn on_heard(&mut self, ctx: &JobCtx, heard: Heard<'_>) -> u64 {
        self.heard += heard.len() as u64;
        let missed = ctx.local_time - self.last - 1;
        self.last = ctx.local_time - 1;
        missed
    }
    fn save_state(&self) -> Option<serde::Value> {
        Some(self.to_value())
    }
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), DeError> {
        *self = Self::from_value(state)?;
        Ok(())
    }
}

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
    // Probe sinks, the trace among them, are observer state the
    // checkpoint excludes: the matrix asserts the refusal.
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

    // A job parked through slots it hears has missed feedback pending,
    // which a checkpoint does not carry: refused, though every protocol
    // captures its state. Dense polling parks nothing, so it snapshots;
    // both modes report alike. ALOHA jobs make the heard slots non-silent.
    let jobs: Vec<JobSpec> = (0..6).map(|i| JobSpec::new(i, 0, 256)).collect();
    let eavesdroppers = Pop::new(
        "eavesdroppers",
        EngineConfig::default(),
        jobs,
        |s| match s.id {
            0..=2 => Box::new(Eavesdropper {
                at: 90 + 40 * u64::from(s.id),
                last: 0,
                heard: 0,
            }),
            _ => Box::new(FixedProbability::new(0.05)),
        },
    );
    check(
        &[Case::new(eavesdroppers.clone(), jammer("clean"), 3)],
        &[DENSE],
    );
    for (config, refused) in [
        (eavesdroppers.config.clone(), true),
        (eavesdroppers.config.clone().dense(), false),
    ] {
        let mut e = Engine::new(config, 3);
        e.add_jobs(&eavesdroppers.jobs, |s| (eavesdroppers.factory)(s));
        e.run_to(60);
        match e.snapshot() {
            Err(CheckpointError::Unsupported(why)) if refused => {
                assert!(why.contains("hears"), "{why}");
            }
            Ok(_) if !refused => {}
            other => panic!("snapshot with refused = {refused}: {:?}", other.err()),
        }
    }

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

    // An image written while checkpoints still carried the raw bits of
    // the declared-contention sum has that key, always 0, after
    // `gap_slots` (the sum was kept only for observed runs, which never
    // snapshot). It is still version 4: it loads, restores into the
    // matching construction and finishes byte-identically to an
    // uninterrupted run.
    let mut doc = serde_json::to_value(&ck).expect("checkpoint to json");
    let Value::Object(fields) = &mut doc else {
        panic!("a checkpoint serializes as an object");
    };
    let at = fields
        .iter()
        .position(|(k, _)| k == "gap_slots")
        .expect("gap_slots");
    fields.insert(
        at + 1,
        ("contention_sum_bits".into(), Value::Number(Number::U(0))),
    );
    let json = serde_json::to_string(&doc).expect("serialize");
    let old: Checkpoint = serde_json::from_str(&json).expect("older v4 image parses");
    assert_eq!(old, ck);
    let mut resumed = build(1);
    resumed
        .restore(&old)
        .expect("matching construction restores");
    let canon = |mut r: SimReport| {
        r.engine_nanos = 0;
        serde_json::to_string(&r).expect("report serializes")
    };
    assert_eq!(canon(resumed.finish()), canon(build(1).run()));
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

    // A version-3 image carried protocol, adversary and kernel state as
    // packed words; the version refuses it before any state is decoded.
    let v3 = Checkpoint { version: 3, ..ck };
    assert!(
        refused(EngineConfig::default().cohort(), &v3),
        "a version-3 checkpoint must be a mismatch"
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
    // (its jobs would pend twice over); a calendar entry before the pause
    // (it would never pop).
    let ck = snapshot(EngineConfig::default().vectorized());
    let (deadline, pending) = *ck.kernel.shot_live.first().expect("a pending one-shot");
    let mut kernels: Vec<KernelSnap> = [0, ck.slot, deadline + 1000]
        .into_iter()
        .map(|moved| {
            let mut kernel = ck.kernel.clone();
            kernel.shot_live[0].0 = moved;
            kernel
        })
        .collect();
    let mut twice = ck.kernel.clone();
    twice.shot_live.insert(0, (deadline, pending));
    kernels.push(twice);
    let mut past = ck.kernel.clone();
    past.shots
        .first_mut()
        .expect("a calendar entry at the pause")
        .0 = ck.slot - 1;
    kernels.push(past);
    for kernel in kernels {
        let tampered = Checkpoint {
            kernel,
            ..ck.clone()
        };
        assert!(
            refused(EngineConfig::default().vectorized(), &tampered),
            "a tampered kernel snapshot must be a mismatch"
        );
    }
}

/// A fresh engine built like `case`: the snapshot source and the restore
/// target.
fn engine(case: &Case) -> Engine {
    let mut e = Engine::new(case.pop.config.clone(), case.seed);
    e.set_jammer(case.adv.jammer());
    e.add_jobs(&case.pop.jobs, |s| (case.pop.factory)(s));
    e
}

/// The first number in `v`, depth first.
fn first_number(v: &mut Value) -> Option<&mut Value> {
    if matches!(v, Value::Number(_)) {
        return Some(v);
    }
    match v {
        Value::Array(items) => items.iter_mut().find_map(first_number),
        Value::Object(fields) => fields.iter_mut().find_map(|(_, v)| first_number(v)),
        _ => None,
    }
}

/// Rewrites of `state` its restore must refuse: a string for its first
/// number (for the whole value when it has none), its first field
/// dropped, and each `(field, value)` of `bad` (the whole value for an
/// empty field name).
fn malformed(state: &Value, bad: &[(&str, Value)]) -> Vec<Value> {
    let mut typed = state.clone();
    match first_number(&mut typed) {
        Some(n) => *n = Value::String("7".into()),
        None => typed = Value::String("7".into()),
    }
    let mut out = vec![typed];
    if let Value::Object(fields) = state {
        out.push(Value::Object(fields[1..].to_vec()));
    }
    for (field, value) in bad {
        let mut edited = state.clone();
        match *field {
            "" => edited = value.clone(),
            field => *member(&mut edited, field) = value.clone(),
        }
        out.push(edited);
    }
    out
}

/// Every checkpointable protocol, the aggregate class driver and every
/// adversary refuse a wrong-typed, incomplete or out-of-range state with
/// a typed mismatch at restore, never a panic.
#[test]
fn malformed_state_is_refused_without_panic() {
    let (u, f) = (
        |x| Value::Number(Number::U(x)),
        |x| Value::Number(Number::F(x)),
    );
    // A batch paused early, while every pick still has live jobs.
    let pick = |k: usize| {
        let jobs = (0..24).map(|i| JobSpec::new(i, 0, 240)).collect();
        let mut pop = Pop::new(
            &format!("pick{k}"),
            EngineConfig::default(),
            jobs,
            move |_| protocol_pick(k),
        );
        pop.pauses = vec![30];
        pop
    };
    let persistent = Pop::new(
        "persistent",
        EngineConfig::default(),
        staggered(16, 5, 240),
        |_| Box::new(PersistentP(0.05)),
    );
    // (population, adversary, the state edited, out-of-range edits).
    let cells = vec![
        (pick(0), "clean", "protocol", vec![("attempts", u(0))]),
        (pick(1), "clean", "protocol", vec![("attempts", u(0))]),
        (pick(2), "clean", "protocol", vec![("exp", u(63))]),
        (pick(3), "clean", "protocol", vec![("cap", u(3))]),
        (pick(4), "clean", "protocol", vec![]),
        (pick(5), "clean", "protocol", vec![("p", f(2.0))]),
        (
            population("metronome"),
            "clean",
            "protocol",
            vec![("mode", u(2)), ("heard", u(5))],
        ),
        (persistent, "clean", "protocol", vec![("", f(1.5))]),
        (population("class-aloha"), "clean", "class", vec![]),
        (pick(3), "all", "adversary", vec![]),
        (pick(3), "budget", "adversary", vec![]),
        (pick(3), "reactive", "adversary", vec![("reset_gap", u(0))]),
        (pick(3), "bursty", "adversary", vec![("p_enter", f(1.5))]),
    ];
    for (pop, adv, part, bad) in cells {
        let name = format!("{} under {adv}, {part} state", pop.name);
        let case = Case::new(pop, jammer(adv), 0);
        let mut src = engine(&case);
        src.run_to(case.pause);
        let ck = src.snapshot().unwrap_or_else(|e| panic!("{name}: {e}"));
        engine(&case)
            .restore(&ck)
            .expect("the untouched image restores");
        let job = ck.protocol_state.iter().position(Option::is_some);
        let state = match part {
            "protocol" => {
                ck.protocol_state[job.unwrap_or_else(|| panic!("{name}: no live protocol"))].clone()
            }
            "class" => ck.classes.first().map(|c| c.state.clone()),
            _ => Some(ck.adversary.clone()),
        }
        .expect("state at the pause");
        for edited in malformed(&state, &bad) {
            let mut tampered = ck.clone();
            match part {
                "protocol" => {
                    tampered.protocol_state
                        [job.unwrap_or_else(|| panic!("{name}: no live protocol"))] = Some(edited)
                }
                "class" => tampered.classes[0].state = edited,
                _ => tampered.adversary = edited,
            }
            let got = engine(&case).restore(&tampered);
            assert!(
                matches!(got, Err(CheckpointError::Mismatch(_))),
                "{name}: expected a mismatch, got {got:?}"
            );
        }
    }
}
