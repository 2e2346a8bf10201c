//! Golden realizations: the SHA-256 of every serialized report on a fixed
//! grid, pinned so that a refactor of the slot loop cannot move a single
//! RNG draw, counter, trace record or probe event without failing here.
//!
//! The grid crosses five populations — exact per-job protocols (duty
//! groups, wake hints, dense pollers), cohort ALOHA, cohort one-shot
//! UNIFORM, cohort ALIGNED classes, and a vectorized mix with class-profile
//! fallbacks — with both scheduling modes and three adversaries (none,
//! Gilbert–Elliott, reactive). One more run pauses, snapshots, restores
//! into a fresh engine and finishes there.
//!
//! Each report is serialized with `engine_nanos` zeroed and hashed with
//! [`sha256_hex`]. A deliberate change to a random stream updates the pins
//! below and says so in CHANGES.md; nothing else should.
//!
//! Cohort draws go through `f64::ln`, whose last bit is platform libm's
//! business, so the pins hold on linux x86_64 only.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use contention_deadlines::baselines::windowed::{Schedule, WindowedBackoff};
use contention_deadlines::baselines::{BinaryExponentialBackoff, FixedProbability, Sawtooth};
use contention_deadlines::protocols::{
    AlignedParams, AlignedProtocol, PunctualParams, PunctualProtocol, Uniform,
};
use contention_deadlines::sim::checkpoint::Checkpoint;
use contention_deadlines::sim::engine::{
    Action, DutyCycle, Engine, EngineConfig, JobCtx, Protocol,
};
use contention_deadlines::sim::jamming::{GilbertElliott, Jammer, ReactiveJammer};
use contention_deadlines::sim::job::JobSpec;
use contention_deadlines::sim::message::{ControlMsg, Payload};
use contention_deadlines::sim::metrics::SimReport;
use contention_deadlines::sim::probe::{ProbeSpec, SinkSpec};
use contention_deadlines::sim::slot::Feedback;
use contention_deadlines::stats::canon::sha256_hex;
use rand::RngCore;

type Factory = fn(&JobSpec) -> Box<dyn Protocol>;

/// Pattern length of [`Metronome`]'s duty cycle.
const PERIOD: u64 = 8;

/// A synthetic duty-cycled protocol that reaches the duty-layer paths
/// PUNCTUAL rarely does in a short run: schedule changes between groups,
/// equivalent-but-unequal schedules (a shifted anchor), listen positions
/// whose feedback fans out to every member, the `None` completion signal,
/// and deadline backstops of members still in the layer.
///
/// Positions (mod [`PERIOD`]): 0 is a standing control broadcast in mode
/// 0, 2 (and 6 in mode 1) wake for a real `act`, 5 listens. Only a
/// delivered data message changes state at a listen position, which is
/// exactly when `duty_listen` declines.
#[derive(Default)]
struct Metronome {
    mode: u8,
    shift: u64,
    heard: u32,
}

impl Metronome {
    const BEAT: Payload = Payload::Control(ControlMsg::of_kind(7));

    /// `(wake, tx, listen)` masks of the current mode.
    fn masks(&self) -> (u64, u64, u64) {
        match self.mode {
            0 => (1 << 2, 1 << 0, 1 << 5),
            _ => (1 << 2 | 1 << 6, 0, 1 << 5),
        }
    }
}

impl Protocol for Metronome {
    fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
        let (wake, tx, listen) = self.masks();
        let bit = 1u64 << (ctx.local_time % PERIOD);
        if tx & bit != 0 {
            return Action::Transmit(Self::BEAT);
        }
        if listen & bit != 0 {
            return Action::Listen;
        }
        if wake & bit == 0 {
            return Action::Sleep;
        }
        let x = rng.next_u64();
        if x.is_multiple_of(4) {
            self.mode ^= 1;
        }
        if x.is_multiple_of(7) {
            self.shift += 1;
        }
        if x.is_multiple_of(5) {
            Action::Transmit(Payload::Data(ctx.id))
        } else {
            Action::Listen
        }
    }

    fn on_feedback(&mut self, _ctx: &JobCtx, fb: &Feedback, _rng: &mut dyn RngCore) {
        if let Some(Payload::Data(_)) = fb.payload() {
            self.heard += 1;
            if self.heard % 2 == 1 {
                self.mode ^= 1;
            } else {
                self.shift += 1;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.heard >= 4
    }

    fn duty_cycle(&self, _ctx: &JobCtx) -> Option<DutyCycle> {
        if self.is_done() {
            return None;
        }
        let (wake_mask, tx_mask, listen_mask) = self.masks();
        Some(DutyCycle {
            period: PERIOD as u8,
            wake_mask,
            tx_mask,
            tx_payload: Self::BEAT,
            listen_mask,
            anchor_local: self.shift * PERIOD,
        })
    }

    fn duty_listen(&self, _ctx: &JobCtx, fb: &Feedback) -> bool {
        !matches!(fb.payload(), Some(Payload::Data(_)))
    }
}

/// One population: its base config (fidelity, aligned clock), its jobs,
/// and the protocol each job runs.
struct Population {
    name: &'static str,
    config: EngineConfig,
    /// Attach an event sink. Only for populations whose aggregate paths
    /// survive probing: ALOHA and UNIFORM fall back to the exact path
    /// when probed.
    probed: bool,
    jobs: Vec<JobSpec>,
    factory: Factory,
}

fn staggered(n: u32, spread: u64, w: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let r = u64::from(i) * spread % (w / 2);
            JobSpec::new(i, r, r + w)
        })
        .collect()
}

fn populations() -> Vec<Population> {
    // Aligned power-of-two windows in three classes, two release epochs.
    let aligned_jobs: Vec<JobSpec> = (0..24u32)
        .map(|i| {
            let w = 256u64 << (i % 3);
            let r = w * u64::from(i % 2);
            JobSpec::new(i, r, r + w)
        })
        .collect();
    vec![
        Population {
            name: "exact-mixed",
            config: EngineConfig::default(),
            probed: true,
            jobs: (0..42u32)
                .map(|i| match i {
                    0..=11 => JobSpec::new(i, 0, 1 << 13),
                    12..=17 => JobSpec::new(i, 97 * u64::from(i), 97 * u64::from(i) + 2048),
                    _ => JobSpec::new(i, 40 + 3 * u64::from(i), 424 + 5 * u64::from(i)),
                })
                .collect(),
            factory: |s| match s.id {
                0..=11 => Box::new(PunctualProtocol::new(PunctualParams::laptop())),
                12 | 15 => Box::new(Sawtooth::new()),
                13 | 16 => Box::new(BinaryExponentialBackoff::new()),
                14 | 17 => Box::new(WindowedBackoff::new(Schedule::Geometric {
                    base: 2,
                    first: 1,
                })),
                _ => Box::new(Metronome::default()),
            },
        },
        Population {
            name: "cohort-aloha",
            config: EngineConfig::default().cohort(),
            probed: false,
            // Plus one PUNCTUAL class, whose elected leaders leave the
            // aggregate as exact-path jobs.
            jobs: staggered(40, 11, 512)
                .into_iter()
                .chain((40..52).map(|i| JobSpec::new(i, 0, 1 << 13)))
                .collect(),
            factory: |s| match s.id % 4 {
                _ if s.id >= 40 => Box::new(PunctualProtocol::new(PunctualParams::laptop())),
                3 => Box::new(Sawtooth::new()),
                _ => Box::new(FixedProbability::new(0.01 + 0.01 * f64::from(s.id % 2))),
            },
        },
        Population {
            name: "cohort-uniform",
            config: EngineConfig::default().cohort(),
            probed: false,
            jobs: staggered(40, 16, 512),
            factory: |_| Box::new(Uniform::new(1)),
        },
        Population {
            name: "cohort-aligned",
            config: EngineConfig::aligned().cohort(),
            probed: true,
            jobs: aligned_jobs,
            factory: |_| Box::new(AlignedProtocol::new(AlignedParams::new(1, 2, 8))),
        },
        Population {
            name: "vectorized-mixed",
            config: EngineConfig::default().vectorized(),
            probed: false,
            jobs: staggered(24, 37, 1 << 12),
            factory: |s| match s.id % 4 {
                0 => Box::new(FixedProbability::new(0.02)),
                1 => Box::new(Uniform::new(1)),
                2 => Box::new(Sawtooth::new()),
                _ => Box::new(PunctualProtocol::new(PunctualParams::laptop())),
            },
        },
    ]
}

fn adversaries() -> [(&'static str, Option<Jammer>); 3] {
    [
        ("clean", None),
        (
            "ge",
            Some(Jammer::adaptive(
                Box::new(GilbertElliott::new(0.05, 0.2)),
                0.6,
            )),
        ),
        (
            "reactive",
            Some(Jammer::adaptive(Box::new(ReactiveJammer::new(2, 16)), 0.8)),
        ),
    ]
}

fn build(config: EngineConfig, jammer: &Option<Jammer>, seed: u64, pop: &Population) -> Engine {
    let mut e = Engine::new(config, seed);
    if let Some(j) = jammer {
        e.set_jammer(j.clone());
    }
    e.add_jobs(&pop.jobs, pop.factory);
    e
}

fn digest(mut r: SimReport) -> String {
    r.engine_nanos = 0;
    sha256_hex(
        serde_json::to_string(&r)
            .expect("report serializes")
            .as_bytes(),
    )
}

/// Every grid cell, named `population/scheduling/adversary`, with its
/// report digest. Every run is traced, so slot records and declared
/// contention are pinned along with outcomes and counters; probed
/// populations pin protocol and class-driver events too.
fn grid() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (pi, pop) in populations().iter().enumerate() {
        for (si, dense) in [false, true].into_iter().enumerate() {
            for (ji, (jname, jammer)) in adversaries().iter().enumerate() {
                let mut config = pop.config.clone().with_trace();
                if pop.probed {
                    config = config.with_probe(ProbeSpec::new().with(SinkSpec::Events));
                }
                if dense {
                    config = config.dense();
                }
                let seed = 100 + (pi * 6 + si * 3 + ji) as u64;
                let label = format!(
                    "{}/{}/{jname}",
                    pop.name,
                    if dense { "dense" } else { "event" }
                );
                out.push((label, digest(build(config, jammer, seed, pop).run())));
            }
        }
    }
    // Pause mid-run, snapshot, round-trip the checkpoint through JSON,
    // restore into a fresh engine, and finish there.
    let pop = Population {
        name: "checkpoint",
        config: EngineConfig::default().cohort(),
        probed: false,
        jobs: staggered(30, 7, 300),
        factory: |s| match s.id % 3 {
            0 => Box::new(FixedProbability::new(0.03)),
            1 => Box::new(Uniform::new(1)),
            _ => Box::new(Sawtooth::new()),
        },
    };
    let (_, ge) = &adversaries()[1];
    let mut paused = build(pop.config.clone(), ge, 4242, &pop);
    paused.run_to(150);
    let ck = paused.snapshot().expect("snapshot");
    let ck: Checkpoint =
        serde_json::from_str(&serde_json::to_string(&ck).expect("serialize checkpoint"))
            .expect("checkpoint parses");
    let mut resumed = build(pop.config.clone(), ge, 4242, &pop);
    resumed.restore(&ck).expect("restore");
    out.push((pop.name.to_string(), digest(resumed.finish())));
    out
}

/// Pins computed before the slot loop was split into stages.
const PINS: &[(&str, &str)] = &[
    (
        "exact-mixed/event/clean",
        "e95d15f9bd3a36297110e88443da4039a790995987f81e294bf0adcff701dff1",
    ),
    (
        "exact-mixed/event/ge",
        "fbb65007f81b9e2e1150f44586aef68a4baf1e30cf395ab9a61493bb3ec1de3b",
    ),
    (
        "exact-mixed/event/reactive",
        "8eee44a4a9cbca89afce3328faccfd4c4dc75114a25e53a0a4d6fc33f8fb7b3c",
    ),
    (
        "exact-mixed/dense/clean",
        "9732852bf0a3a172bf1a126e6a954fc059c0ea95fdbc3f7bbccf0b2b0ab3c2b4",
    ),
    (
        "exact-mixed/dense/ge",
        "004cb58bc75c9252459c35229e0bee0231522f5d3d3ca1e2e4668f5a10dc3228",
    ),
    (
        "exact-mixed/dense/reactive",
        "ed9b014ec8609e82d7e3c990d22abb288c7a4d188184b6dca2d70e7f20d31459",
    ),
    (
        "cohort-aloha/event/clean",
        "76cf6423a6d716b84d8b25a1d14fd3c24306196af6b510e7ef1e67f826f4b161",
    ),
    (
        "cohort-aloha/event/ge",
        "52164a8d0ae873c89bd66949211c0ef711e6189989443fdfe17364a148afb2b9",
    ),
    (
        "cohort-aloha/event/reactive",
        "9e710c2380489b24955cdc29a5325eb48b33197d07ec3788aa9086375a7f060a",
    ),
    (
        "cohort-aloha/dense/clean",
        "bd909c037e52528c3a5ebebbf1d27e5793aefa94769942a2f2d92bd5018bee93",
    ),
    (
        "cohort-aloha/dense/ge",
        "5f875f0e4fca62e9b0c8cf1b3114ee5d070c05209d3b2cbb201b19b35e5b8ad9",
    ),
    (
        "cohort-aloha/dense/reactive",
        "e69fc3e487fdb38e65e46f395eee8ae637a923a27e9992000fab7741577f1a07",
    ),
    (
        "cohort-uniform/event/clean",
        "e271d94946540844dd030f7acd4b8e2a3852236cfa855ad6fcc33bffcb6284da",
    ),
    (
        "cohort-uniform/event/ge",
        "b0d693302e3322db993223b0a7f37b19cd95682cbd7887e596a11bed44be1516",
    ),
    (
        "cohort-uniform/event/reactive",
        "4f962005056f995cbc52ed48699fefede79b649a933b11d2eb27dd86ee2e102b",
    ),
    (
        "cohort-uniform/dense/clean",
        "0df29714f803af7724252ae35519a5aee6fe7099eed0cebc0c52c2db027a936d",
    ),
    (
        "cohort-uniform/dense/ge",
        "41671de5c65dcb7c28f374bf9b484a356790164532f89d4ba3f8ce216a888be5",
    ),
    (
        "cohort-uniform/dense/reactive",
        "f9ffbaf11b409dafb1113533841361f3bf31a4c608befee2dfb2f9889e8be1c8",
    ),
    (
        "cohort-aligned/event/clean",
        "7e05b55fd58c1fec4e8d2675c33e76abc5018950d434c54e7da9b1e2f8a59742",
    ),
    (
        "cohort-aligned/event/ge",
        "cd1b6e7ae16bb29715ca54d6b74a7158afba3c06916ce1df1ab4e95bc1811cf6",
    ),
    (
        "cohort-aligned/event/reactive",
        "6b516f95a52692c5938ffd9449c4bc28de9a85c037e56f143cee4a58ab9643f8",
    ),
    (
        "cohort-aligned/dense/clean",
        "8da4f872a27de7fbf89abfccdeabb12d4be5e897d54fabeda6a6582f9aed4fa1",
    ),
    (
        "cohort-aligned/dense/ge",
        "cb58a2abb2a3440ebbfe81e52ed33c86236cecf707f291bf5d2520456db39ef0",
    ),
    (
        "cohort-aligned/dense/reactive",
        "d859447678c90046f70077989e6a13b0ef66cf8cbbdb6cbe1f2d29e81cdb2dfe",
    ),
    (
        "vectorized-mixed/event/clean",
        "14acb10390803bd7bedf5c0eeaaf883076dd78df9b12503eeccda1a37eee9dbd",
    ),
    (
        "vectorized-mixed/event/ge",
        "2b8f254e0e97cc78429759b3f42abadd01ad5e649c77e86356f73598b20166da",
    ),
    (
        "vectorized-mixed/event/reactive",
        "669b850fbd011cc021552b40e5aab54d31bf85801e8e083e85173eea27522932",
    ),
    (
        "vectorized-mixed/dense/clean",
        "e1d7319d0573f8d1f00c411e1b69dd0ba04ee66b3a1f32340a484cf39a2ab4a6",
    ),
    (
        "vectorized-mixed/dense/ge",
        "ef1e9200ce3ab8d148244d085962c5c9ccf2b68e6ea73933b548f7486e0394ee",
    ),
    (
        "vectorized-mixed/dense/reactive",
        "c9e18e57fd6060392ba0b2cbba4db7930139dafec55c341dd8a59264fc2911be",
    ),
    (
        "checkpoint",
        "48688e4942a0da2332d2fea5cb27806257e57f1413061f8a24526214f864c04f",
    ),
];

#[test]
fn reports_match_pinned_digests() {
    let got = grid();
    let table: String = got
        .iter()
        .map(|(k, v)| format!("    (\"{k}\", \"{v}\"),\n"))
        .collect();
    assert_eq!(got.len(), PINS.len(), "grid size changed; now:\n{table}");
    let diverged: Vec<&str> = got
        .iter()
        .zip(PINS)
        .filter(|((k, v), (pk, pv))| k != pk || v != pv)
        .map(|((k, _), _)| k.as_str())
        .collect();
    assert!(
        diverged.is_empty(),
        "reports diverge from the pins in {diverged:?}; now:\n{table}"
    );
}
