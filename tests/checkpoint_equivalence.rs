//! Checkpoint/restore equivalence: a run that is paused, snapshotted,
//! restored into a fresh engine, and run to completion must produce a
//! [`SimReport`] **byte-identical** (serialized, wall-clock zeroed) to an
//! uninterrupted run of the same construction.
//!
//! The grid: every checkpointable workspace protocol × the full jammer
//! grid (stateless policies plus the stateful budgeted / reactive /
//! Gilbert–Elliott adversaries) × all three fidelities, plus an
//! aggregate-class population driven through a serializable
//! [`ClassDriver`], a proptest over random populations and snapshot
//! slots, and typed-error coverage for the documented unsupported cases
//! (trace recording, protocols without state capture, mismatched
//! construction fingerprints).
//!
//! [`SimReport`]: contention_deadlines::sim::metrics::SimReport
//! [`ClassDriver`]: contention_deadlines::sim::classes::ClassDriver

mod testkit;

use contention_deadlines::protocols::{AlignedParams, AlignedProtocol};
use contention_deadlines::sim::checkpoint::{Checkpoint, CheckpointError, StatePack, StateReader};
use contention_deadlines::sim::classes::{ClassCtx, ClassDriver, ClassEvent, ClassSlot};
use contention_deadlines::sim::crng::{CounterRng, Phase};
use contention_deadlines::sim::engine::{Action, CohortTx, Engine, EngineConfig, JobCtx, Protocol};
use contention_deadlines::sim::jamming::Jammer;
use contention_deadlines::sim::job::{JobId, JobSpec};
use contention_deadlines::sim::message::Payload;
use contention_deadlines::sim::metrics::SimReport;
use contention_deadlines::sim::rng::sample_binomial;
use contention_deadlines::sim::slot::Feedback;
use proptest::prelude::*;
use rand::RngCore;
use serde_json::{Number, Value};
use testkit::{cases, jammer_pick, jammers, protocol_pick, staggered};

/// Serialize a report with the wall-clock field zeroed — the
/// byte-identity unit every assertion below compares.
fn report_bytes(mut r: SimReport) -> String {
    r.engine_nanos = 0;
    serde_json::to_string(&r).expect("serialize report")
}

/// The core harness: one uninterrupted run vs a paused + snapshotted +
/// restored run of the identical construction. Also proves the snapshot
/// itself survives a serde round-trip, and that the *paused* engine
/// (snapshot taken, never dropped) still finishes identically — the
/// snapshot must be a pure read.
fn assert_checkpoint_equiv<F>(
    label: &str,
    config: &EngineConfig,
    jammer: Option<&Jammer>,
    seed: u64,
    jobs: &[JobSpec],
    factory: F,
    pause_at: u64,
) where
    F: Fn(&JobSpec) -> Box<dyn Protocol>,
{
    let build = || {
        let mut e = Engine::new(config.clone(), seed);
        if let Some(j) = jammer {
            e.set_jammer(j.clone());
        }
        e.add_jobs(jobs, |s| factory(s));
        e
    };
    let plain = report_bytes(build().run());

    let mut paused = build();
    paused.run_to(pause_at);
    match paused.snapshot() {
        Ok(ck) => {
            let json = serde_json::to_string(&ck).expect("serialize checkpoint");
            let back: Checkpoint = serde_json::from_str(&json).expect("checkpoint parses");
            assert_eq!(
                ck, back,
                "{label}: checkpoint serde round-trip (seed {seed})"
            );

            let mut resumed = build();
            resumed
                .restore(&back)
                .unwrap_or_else(|e| panic!("{label}: restore failed: {e} (seed {seed})"));
            assert_eq!(
                report_bytes(resumed.finish()),
                plain,
                "{label}: restored run diverges (seed {seed}, pause {pause_at})"
            );
            assert_eq!(
                report_bytes(paused.finish()),
                plain,
                "{label}: paused run diverges after snapshot (seed {seed})"
            );
        }
        // The whole run fit inside the prefix; the pause/finish split
        // must still agree with the one-shot run.
        Err(CheckpointError::Finished) => {
            assert_eq!(
                report_bytes(paused.finish()),
                plain,
                "{label}: early-finished run diverges (seed {seed})"
            );
        }
        Err(e) => panic!("{label}: snapshot failed: {e} (seed {seed})"),
    }
}

/// A named nullary constructor for a checkpointable protocol.
type ProtocolCtor = fn() -> Box<dyn Protocol>;

/// Every checkpointable workspace protocol, by name.
fn protocol_grid() -> Vec<(&'static str, ProtocolCtor)> {
    (0..6)
        .map(|i| {
            let name = [
                "uniform1", "uniform2", "sawtooth", "beb", "windowed", "aloha",
            ][i];
            let f: fn() -> Box<dyn Protocol> = match i {
                0 => || protocol_pick(0),
                1 => || protocol_pick(1),
                2 => || protocol_pick(2),
                3 => || protocol_pick(3),
                4 => || protocol_pick(4),
                _ => || protocol_pick(5),
            };
            (name, f)
        })
        .collect()
}

#[test]
fn protocol_adversary_grid_exact() {
    for (pi, (pname, pfac)) in protocol_grid().into_iter().enumerate() {
        for (ji, (jname, jammer)) in jammers().iter().enumerate() {
            let seed = 1000 + (pi * 16 + ji) as u64;
            assert_checkpoint_equiv(
                &format!("exact {pname} jam={jname}"),
                &EngineConfig::default(),
                jammer.as_ref(),
                seed,
                &staggered(24, 5, 240),
                |_s| pfac(),
                120,
            );
        }
    }
}

/// Cohort and vectorized fidelities on mixed populations: aggregate- and
/// kernel-eligible jobs (constant-probability ALOHA, one-shot UNIFORM)
/// interleaved with exact-path protocols, so the snapshot has to capture
/// cohort RNG position, kernel calendar, and per-job state side by side.
#[test]
fn mixed_populations_cohort_and_vectorized() {
    let mixed = |s: &JobSpec| {
        protocol_pick(match s.id % 3 {
            0 => 5, // constant-p ALOHA
            1 => 0, // one-shot UNIFORM
            _ => 2, // sawtooth (exact path under every fidelity)
        } as usize)
    };
    for (fname, config) in [
        ("cohort", EngineConfig::default().cohort()),
        ("vectorized", EngineConfig::default().vectorized()),
    ] {
        for (ji, (jname, jammer)) in jammers().iter().enumerate() {
            let seed = 4000 + ji as u64;
            assert_checkpoint_equiv(
                &format!("{fname} mixed jam={jname}"),
                &config,
                jammer.as_ref(),
                seed,
                &staggered(30, 7, 300),
                mixed,
                150,
            );
        }
    }
}

/// A memoryless-ALOHA aggregate class with full state capture: the class
/// members are the only dynamic state (`p` and the class seed are
/// construction parameters the engine re-supplies on restore).
struct ClassAloha(f64);

impl Protocol for ClassAloha {
    fn act(&mut self, _ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
        panic!("class-managed job was polled on the exact path");
    }
    fn cohort_tx(&self, _ctx: &JobCtx) -> Option<CohortTx> {
        Some(CohortTx::Class { tag: 0xC4E })
    }
    fn class_driver(&self, _ctx: &JobCtx, cctx: &ClassCtx) -> Option<Box<dyn ClassDriver>> {
        Some(Box::new(AlohaClassDriver {
            members: Vec::new(),
            p: self.0,
            seed: cctx.class_seed,
            nominated: None,
        }))
    }
}

struct AlohaClassDriver {
    members: Vec<JobId>,
    p: f64,
    seed: u64,
    /// Within-slot scratch; always `None` at a slot boundary, so it does
    /// not travel in the state blob.
    nominated: Option<usize>,
}

impl ClassDriver for AlohaClassDriver {
    fn admit(&mut self, member: JobId) {
        self.members.push(member);
    }
    fn live(&self) -> usize {
        self.members.len()
    }
    fn begin_slot(&mut self, slot: u64) -> ClassSlot {
        let mut rng = CounterRng::new(self.seed, slot, Phase::Act);
        let m = self.members.len() as u64;
        ClassSlot {
            count: sample_binomial(m, self.p, &mut rng),
            declared: m as f64 * self.p,
        }
    }
    fn materialize(&mut self, slot: u64) -> (JobId, Payload) {
        let mut rng = CounterRng::new(self.seed, slot, Phase::Activate);
        let pos = rand::Rng::gen_range(&mut rng, 0..self.members.len());
        self.nominated = Some(pos);
        (self.members[pos], Payload::Data(self.members[pos]))
    }
    fn end_slot(&mut self, _slot: u64, fb: &Feedback, _out: &mut Vec<ClassEvent>) {
        if let (Some(pos), Feedback::Success { src, payload }) = (self.nominated, fb) {
            if payload.data_owner() == Some(*src) && self.members[pos] == *src {
                self.members.swap_remove(pos);
            }
        }
        self.nominated = None;
    }
    fn save_state(&self) -> Option<Vec<u64>> {
        let words: Vec<u64> = self.members.iter().map(|&m| u64::from(m)).collect();
        let mut p = StatePack::new();
        p.seq(&words);
        Some(p.finish())
    }
    fn restore_state(&mut self, state: &[u64]) -> bool {
        let mut r = StateReader::new(state);
        let Some(words) = r.seq() else {
            return false;
        };
        if !r.done() {
            return false;
        }
        let mut members = Vec::with_capacity(words.len());
        for &w in words {
            let Ok(m) = JobId::try_from(w) else {
                return false;
            };
            members.push(m);
        }
        self.members = members;
        true
    }
}

#[test]
fn aggregate_class_checkpoints_across_jammer_grid() {
    let n = 80u32;
    let jobs: Vec<JobSpec> = (0..n).map(|i| JobSpec::new(i, 0, 2_000)).collect();
    for (ji, (jname, jammer)) in jammers().iter().enumerate() {
        let seed = 7000 + ji as u64;
        assert_checkpoint_equiv(
            &format!("class jam={jname}"),
            &EngineConfig::default().cohort(),
            jammer.as_ref(),
            seed,
            &jobs,
            |_s| Box::new(ClassAloha(1.0 / f64::from(n))),
            400,
        );
    }
}

/// The documented unsupported cases surface as typed errors, never as
/// silently-wrong checkpoints.
#[test]
fn unsupported_and_mismatched_cases_are_typed_errors() {
    // Trace recording is observer state the checkpoint excludes.
    let mut traced = Engine::new(EngineConfig::default().with_trace(), 5);
    traced.add_jobs(&staggered(8, 3, 128), |_| protocol_pick(5));
    traced.run_to(32);
    assert!(
        matches!(traced.snapshot(), Err(CheckpointError::Unsupported(_))),
        "trace-recording runs must refuse to snapshot"
    );

    // ALIGNED carries live protocol state without capture hooks; the
    // jammer keeps jobs alive at the boundary so the gap is exercised.
    let jobs: Vec<JobSpec> = (0..8).map(|i| JobSpec::new(i, 0, 64)).collect();
    let mut aligned = Engine::new(EngineConfig::aligned(), 5);
    aligned.set_jammer(Jammer::new(
        contention_deadlines::sim::jamming::JamPolicy::AllSuccesses,
        1.0,
    ));
    aligned.add_jobs(&jobs, |_| {
        Box::new(AlignedProtocol::new(AlignedParams::new(1, 2, 1)))
    });
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
    let mut wrong = build(2);
    assert!(
        matches!(wrong.restore(&ck), Err(CheckpointError::Mismatch(_))),
        "restore must reject a mismatched construction fingerprint"
    );
    let mut right = build(1);
    right.restore(&ck).expect("matching construction restores");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// Random populations × random snapshot slots × all three
    /// fidelities: the checkpoint is slot-position independent.
    #[test]
    fn random_populations_checkpoint_equivalently(
        seed in 0u64..1_000_000,
        n in 4u32..32,
        spread in 1u64..12,
        w in 64u64..384,
        jam in 0usize..8,
        fidelity in 0usize..3,
        frac in 0.05f64..0.95,
    ) {
        let jobs = staggered(n, spread, w);
        let horizon = jobs.iter().map(|j| j.deadline).max().expect("jobs");
        let pause = ((horizon as f64) * frac) as u64;
        let config = match fidelity {
            0 => EngineConfig::default(),
            1 => EngineConfig::default().cohort(),
            _ => EngineConfig::default().vectorized(),
        };
        let jammer = jammer_pick(jam);
        assert_checkpoint_equiv(
            "prop",
            &config,
            jammer.as_ref(),
            seed,
            &jobs,
            |s| protocol_pick(s.id as usize + jam),
            pause,
        );
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
        matches!(
            build(EngineConfig::default().cohort()).restore(&tampered),
            Err(CheckpointError::Mismatch(_))
        ),
        "a cohort past its deadline must be a mismatch"
    );

    // A parked entry before the wake queue's base (a wake in the past).
    let mut ck = snapshot(EngineConfig::default());
    assert!(ck.parked.base > 0, "the pause is past slot 0");
    ck.parked.entries[0].0 = ck.parked.base - 1;
    assert!(
        matches!(
            build(EngineConfig::default()).restore(&ck),
            Err(CheckpointError::Mismatch(_))
        ),
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
            matches!(
                build(EngineConfig::default().vectorized()).restore(&tampered),
                Err(CheckpointError::Mismatch(_))
            ),
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
