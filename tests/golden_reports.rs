//! Golden realizations: the SHA-256 of every serialized report on a fixed
//! grid, pinned so that a refactor of the slot loop cannot move a single
//! RNG draw, counter, trace record or probe event without failing here.
//!
//! The grid crosses six populations — exact per-job protocols (duty
//! groups, wake hints, dense pollers), cohort ALOHA, cohort one-shot
//! UNIFORM, cohort ALIGNED classes, a vectorized mix with class-profile
//! fallbacks, and exact ALIGNED jobs in two classes (the tracker's wake
//! plan, through the park and gap counters in `sched_stats`) — with both
//! scheduling modes and three adversaries (none,
//! Gilbert–Elliott, reactive). One more run pauses, snapshots, restores
//! into a fresh engine and finishes there, and two single cells pin
//! binomial draws on both sides of `sample_binomial`'s BTRS line.
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
use contention_deadlines::sim::engine::{Engine, EngineConfig, Protocol};
use contention_deadlines::sim::jamming::Jammer;
use contention_deadlines::sim::job::JobSpec;
use contention_deadlines::sim::metrics::SimReport;
use contention_deadlines::sim::probe::{ProbeSpec, SinkSpec};
use contention_deadlines::stats::canon::sha256_hex;
use testkit::{population, staggered, Metronome, Pop};

mod testkit;

/// The pinned populations. Events are recorded only where `observable`:
/// cohort ALOHA and UNIFORM fall back to the exact path when probed.
fn populations() -> Vec<Pop> {
    let exact = EngineConfig::default;
    // Aligned power-of-two windows in three classes, two release epochs.
    let aligned_jobs = (0..24u32).map(|i| {
        let w = 256u64 << (i % 3);
        let r = w * u64::from(i % 2);
        JobSpec::new(i, r, r + w)
    });
    let mixed_jobs = (0..42u32).map(|i| match i {
        0..=11 => JobSpec::new(i, 0, 1 << 13),
        12..=17 => JobSpec::new(i, 97 * u64::from(i), 97 * u64::from(i) + 2048),
        _ => JobSpec::new(i, 40 + 3 * u64::from(i), 424 + 5 * u64::from(i)),
    });
    // Plus one PUNCTUAL class, whose elected leaders leave the aggregate
    // as exact-path jobs.
    let aloha_jobs = staggered(40, 11, 512)
        .into_iter()
        .chain((40..52).map(|i| JobSpec::new(i, 0, 1 << 13)));
    let punctual =
        || -> Box<dyn Protocol> { Box::new(PunctualProtocol::new(PunctualParams::laptop())) };
    let aligned = |_: &JobSpec| -> Box<dyn Protocol> {
        Box::new(AlignedProtocol::new(AlignedParams::new(1, 2, 8)))
    };
    vec![
        Pop::new(
            "exact-mixed",
            exact(),
            mixed_jobs.collect(),
            move |s| match s.id {
                0..=11 => punctual(),
                12 | 15 => Box::new(Sawtooth::new()),
                13 | 16 => Box::new(BinaryExponentialBackoff::new()),
                14 | 17 => Box::new(WindowedBackoff::new(Schedule::Geometric {
                    base: 2,
                    first: 1,
                })),
                _ => Box::new(Metronome::default()),
            },
        ),
        Pop::new(
            "cohort-aloha",
            exact().cohort(),
            aloha_jobs.collect(),
            move |s| match s.id % 4 {
                _ if s.id >= 40 => punctual(),
                3 => Box::new(Sawtooth::new()),
                _ => Box::new(FixedProbability::new(0.01 + 0.01 * f64::from(s.id % 2))),
            },
        )
        .unobservable(),
        Pop::new(
            "cohort-uniform",
            exact().cohort(),
            staggered(40, 16, 512),
            |_| Box::new(Uniform::new(1)),
        )
        .unobservable(),
        Pop::new(
            "cohort-aligned",
            EngineConfig::aligned().cohort(),
            aligned_jobs.collect(),
            aligned,
        ),
        Pop::new(
            "vectorized-mixed",
            exact().vectorized(),
            staggered(24, 37, 1 << 12),
            move |s| match s.id % 4 {
                0 => Box::new(FixedProbability::new(0.02)),
                1 => Box::new(Uniform::new(1)),
                2 => Box::new(Sawtooth::new()),
                _ => punctual(),
            },
        )
        .unobservable(),
        Pop {
            name: "exact-aligned".into(),
            ..population("aligned")
        },
    ]
}

/// Three adversaries of the kit's grid, under the labels the pins use.
fn adversaries() -> [(&'static str, Jammer); 3] {
    [
        ("clean", "clean"),
        ("ge", "bursty"),
        ("reactive", "reactive"),
    ]
    .map(|(label, name)| (label, testkit::jammer(name).jammer()))
}

fn build(config: EngineConfig, jammer: &Jammer, seed: u64, pop: &Pop) -> Engine {
    let mut e = Engine::new(config, seed);
    e.set_jammer(jammer.clone());
    e.add_jobs(&pop.jobs, |s| (pop.factory)(s));
    e
}

fn digest(mut r: SimReport) -> String {
    r.engine_nanos = 0;
    let json = serde_json::to_string(&r).expect("report serializes");
    sha256_hex(json.as_bytes())
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
                if pop.observable {
                    config = config.with_probe(ProbeSpec::new().with(SinkSpec::Events));
                }
                if dense {
                    config = config.dense();
                }
                let seed = 100 + (pi * 6 + si * 3 + ji) as u64;
                let mode = if dense { "dense" } else { "event" };
                let label = format!("{}/{mode}/{jname}", pop.name);
                out.push((label, digest(build(config, jammer, seed, pop).run())));
            }
        }
    }
    // Pause mid-run, snapshot, round-trip the checkpoint through JSON,
    // restore into a fresh engine, and finish there.
    // ALOHA, UNIFORM and Sawtooth jobs at cohort fidelity.
    let pop = population("cohort-mixed");
    let (_, ge) = &adversaries()[1];
    let mut paused = build(pop.config.clone(), ge, 4242, &pop);
    paused.run_to(150);
    let ck = paused.snapshot().expect("snapshot");
    let json = serde_json::to_string(&ck).expect("serialize checkpoint");
    let ck: Checkpoint = serde_json::from_str(&json).expect("checkpoint parses");
    let mut resumed = build(pop.config.clone(), ge, 4242, &pop);
    resumed.restore(&ck).expect("restore");
    out.push(("checkpoint".into(), digest(resumed.finish())));
    // Single cells (event scheduling, no adversary) for the two sides of
    // `sample_binomial`'s BTRS line: 64 ALIGNED members in one class, whose
    // phase-1 draw is Binomial(64, 1/2) (mean 32, BTRS), and 40 ALOHA jobs
    // sharing one deadline, so one Constant cohort of 40 (mean 0.8, gaps)
    // names its winners from a range of 40.
    let aligned64 = Pop::new(
        "cohort-aligned-64",
        EngineConfig::aligned().cohort(),
        (0..64).map(|i| JobSpec::new(i, 0, 512)).collect(),
        |_| Box::new(AlignedProtocol::new(AlignedParams::new(1, 2, 9))),
    );
    let aloha40 = Pop {
        name: "cohort-aloha-shared".into(),
        ..population("cohort-aloha")
    };
    for (seed, pop) in [(7, aligned64), (8, aloha40)] {
        let mut config = pop.config.clone().with_trace();
        if pop.observable {
            config = config.with_probe(ProbeSpec::new().with(SinkSpec::Events));
        }
        let report = build(config, &Jammer::none(), seed, &pop).run();
        out.push((format!("{}/event/clean", pop.name), digest(report)));
    }
    out
}

/// `label digest` per line. Pins computed before the slot loop was split
/// into stages; the `exact-aligned` pins before the tracker's wake plan
/// stopped copying its classes. Every pin whose run drew a jammer word or
/// had ALOHA/UNIFORM cohort members was recomputed when the jammer and the
/// cohorts moved onto counter-based positions (DESIGN.md §3f); the
/// others did not move. The last two pins came with the BTRS branch of
/// `sample_binomial`: `cohort-aloha-shared` reads the same under the
/// gap-only sampler before it, `cohort-aligned-64` does not.
const PINS: &str = "\
exact-mixed/event/clean e95d15f9bd3a36297110e88443da4039a790995987f81e294bf0adcff701dff1
exact-mixed/event/ge a6531808ba355912e0f51abe49d205e1f91b4aa12beac32a697f3d8c6f4ed8fe
exact-mixed/event/reactive 8eee44a4a9cbca89afce3328faccfd4c4dc75114a25e53a0a4d6fc33f8fb7b3c
exact-mixed/dense/clean 9732852bf0a3a172bf1a126e6a954fc059c0ea95fdbc3f7bbccf0b2b0ab3c2b4
exact-mixed/dense/ge 8d56f295da8c32266b807a472beb14fd2b87a72c8c2ebd4aabbc4dd1b4bb916e
exact-mixed/dense/reactive cf277815cf4f50e249a640187d74e2c8d4ac8266f2c69436f1fcdecb7fb9cf37
cohort-aloha/event/clean ed9a979c5d41382cec56c32bbfd824468345018391e9d2767afe0cb829971ec8
cohort-aloha/event/ge a908662271104ea8304b465769182f09f8c0471952ecd4124b0177722fa3e466
cohort-aloha/event/reactive 689b85f51df3f43a5c30155d8574e5aab7abb4b31d242e8fca9143b8995cc242
cohort-aloha/dense/clean e55926c357023c164c50a5f5f328591e7e60cc9a7167e89de3c2fe5cda5d826c
cohort-aloha/dense/ge 775ac5174e7241052c8bd66ef9a3cd97533e14e65b0371becc9ea01bf1259274
cohort-aloha/dense/reactive 07aa95d9386c9c8e03d0cd370112252fe58dc8049e4dcfc3f0dff9dfdf4413d7
cohort-uniform/event/clean eca817023f6eca9375a57653ed5f183d39f22f5da0f46cb3d518c989d280ee1b
cohort-uniform/event/ge 414dfb970b69a29d42c7923a67569dc51ba686e6ed71c28800a795455b2165a0
cohort-uniform/event/reactive 964584e608d51b3d7aace12b5bd05248bd35ed809d403d33135a9cd1cd4c15ff
cohort-uniform/dense/clean e2308ecd6e150bde5b0afe19859fe66d07bdc73bca947b9bb6b5708d6d36cb96
cohort-uniform/dense/ge 836aa99efba717b3378fb3563c39721638f0f2e5ddcc737486653cf35c60ccdb
cohort-uniform/dense/reactive e25c6be6caad69f5cf7514dc0ac3d893d5be9c9d3f3c74898baa4151703242ee
cohort-aligned/event/clean 7e05b55fd58c1fec4e8d2675c33e76abc5018950d434c54e7da9b1e2f8a59742
cohort-aligned/event/ge 391930af7063e33804a0453f8c05ff408e3f6f875ee8390f423b5755c0558ae1
cohort-aligned/event/reactive ed2d646c315a362d1e92840e4f2338c985c407a04fbc3df57aed3cf06cd5ff72
cohort-aligned/dense/clean 8da4f872a27de7fbf89abfccdeabb12d4be5e897d54fabeda6a6582f9aed4fa1
cohort-aligned/dense/ge 41b786d2e4608bf603aaf35cca33ab9a1b045c0759b78f63dd569124aaa0b2ee
cohort-aligned/dense/reactive 7c72f5e305b8bda0bea2fb41cf0191fd10bf83b5ef39b8e73e1a2d53b6fc7766
vectorized-mixed/event/clean 14acb10390803bd7bedf5c0eeaaf883076dd78df9b12503eeccda1a37eee9dbd
vectorized-mixed/event/ge 7bd50e22d5af250f57b60509c907fe1b11b52109db9aaecd4538a0d50b82880f
vectorized-mixed/event/reactive bb7ee3d3e8147873a5085183892015a9033bfbf1f0746931fa86090b4cd079ab
vectorized-mixed/dense/clean e1d7319d0573f8d1f00c411e1b69dd0ba04ee66b3a1f32340a484cf39a2ab4a6
vectorized-mixed/dense/ge ae7b69214acbf405abf1991f34f5111b57f4eb96a0c5aca09aa8e19277f75e4a
vectorized-mixed/dense/reactive b48887660b9a5f8f57f63618cfcf9b77f496b89f6bbd76a8ebca27cb3dfe93c0
exact-aligned/event/clean d53d7c84197ba0f960205602c1f3bc6c9767c41cdc90600752bce8628c5137d6
exact-aligned/event/ge 68b37ea4050738667409a2bdaf24715af19405ac8fd78dc1906bbf85c32687b2
exact-aligned/event/reactive f9713b1d574b2cd6f88b5880e2d61753e1bc7b98781eec8a5b504dd17869d96b
exact-aligned/dense/clean 5b72e97db033df778864da54cdfcfc30fe4a76ae4a8ce3eee3f54bff68b120b8
exact-aligned/dense/ge eeb351931949bc3ac6b63d8fee8445b3f4fe60725578188d8b46e53aded2d8a7
exact-aligned/dense/reactive 2b66e34d676acaba131a57ea4dc6ecadc7f254d53eac0c1522a54a6495da1442
checkpoint 411b964a0053807dd0eb6d4da450cf799a7116a46d64c017aa832a2373d834fd
cohort-aligned-64/event/clean 607611f4c9fc7e25fec9fe508082602e62dc588f99f5f92edf0b998d92b28f4e
cohort-aloha-shared/event/clean 764e0eccd528dd1761e9e4b6b05a1959a275182c501eb1b8daca48695c859543
";

#[test]
fn reports_match_pinned_digests() {
    let got: String = grid().iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    let diverged: Vec<&str> = got
        .lines()
        .zip(PINS.lines())
        .filter(|(g, p)| g != p)
        .map(|(g, _)| g.split(' ').next().unwrap_or(g))
        .collect();
    assert_eq!(
        got.lines().count(),
        PINS.lines().count(),
        "grid size changed; now:\n{got}"
    );
    assert!(
        diverged.is_empty(),
        "reports diverge from the pins in {diverged:?}; now:\n{got}"
    );
}
