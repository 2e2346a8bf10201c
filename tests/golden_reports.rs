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
//! into a fresh engine and finishes there, two single cells pin
//! binomial draws on both sides of `sample_binomial`'s BTRS line, and two
//! more pin E7's stress cell (64 exact ALIGNED jobs in one window under an
//! all-successes jammer) in both scheduling modes.
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
use contention_deadlines::sim::jamming::{JamPolicy, Jammer};
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
    // E7's stress cell in both scheduling modes: 64 ALIGNED jobs in one
    // class-10 window, every success jammed with probability 1/2.
    let stress = population("aligned-stress");
    let jam = Jammer::new(JamPolicy::AllSuccesses, 0.5);
    for (seed, dense) in [(9, false), (10, true)] {
        let mut config = stress.config.clone().with_trace();
        config = config.with_probe(ProbeSpec::new().with(SinkSpec::Events));
        if dense {
            config = config.dense();
        }
        let mode = if dense { "dense" } else { "event" };
        let report = build(config, &jam, seed, &stress).run();
        out.push((format!("aligned-stress/{mode}/all"), digest(report)));
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
/// gap-only sampler before it, `cohort-aligned-64` does not. Every pin
/// moved once more, for the report layout alone, when the trace became a
/// probe sink: the trace is now the first probe output (a ring that
/// dropped nothing), `contention_stats` is gone, and event logs no longer
/// carry gap-skip events. Rewriting the older reports into that layout
/// reproduces all 39 pins. The two `aligned-stress` pins were computed
/// before exact ALIGNED jobs parked through the estimation steps they only
/// listen to; they did not move when that landed.
const PINS: &str = "\
exact-mixed/event/clean 2ea954f3f82c0feeddc5ddb11a357cdb0fab6ce87b231ddef97d1cbef00292ce
exact-mixed/event/ge bff9ec0e7868f7eacde9bda058b27d6ba2147e474a419ee61acb4adbbaf27bca
exact-mixed/event/reactive 8a0a1e16eaf4928ee03ec1fb815cb79cfc41fb7442eadff95165b0f14ac6046c
exact-mixed/dense/clean 8c7c217cc30fef9585ab6896c6aa047eb8cfd4d4e9e4394dab2406e7f73733b6
exact-mixed/dense/ge 08844f861fc23b4d8b13974a8651fcd21c8c25574427e7a1b117bac99845c0a9
exact-mixed/dense/reactive ca1ee35bfa8e498453931ccd2e8f4ba5fea3aeacba7af1fef4ec3191850ef65a
cohort-aloha/event/clean 929951137992cba031ae67d569dbcda806bb8590b67093f26f18fea60e6dac3c
cohort-aloha/event/ge c04d812d6dff1639f6875da8f65bbd1930222d597cef9ace15a863a2b370ea4c
cohort-aloha/event/reactive 14fca4a0ff1bf23ee297726b43c730435c9af0d5fcef3ce65ca1271d386e560b
cohort-aloha/dense/clean 1e49f6247a0cd1a8dca591d1230a6bfd5f498f0e6f3009fd044d5a6138a65794
cohort-aloha/dense/ge 5d8e37e014cf5f1f4ffaab07144e830411bd0be45408489cda8ad18714b12a29
cohort-aloha/dense/reactive 21ea3cab9f6ecdf4820a7113df8549a2134928381a46c231de9c8b56421107cd
cohort-uniform/event/clean 2171667b21635e4d9f3bc23c98a1ab76ff4b756d42ef224a7ece36ccecb486f0
cohort-uniform/event/ge ef9da8da3a2fd1c6667ab004220dd22ae050bef282ee4a0866c7ca5409494bc9
cohort-uniform/event/reactive b25f3d4059857f1f0bb3fc954e6c787877c124a37649afea3f5f49e475265425
cohort-uniform/dense/clean 840432d4243888a16083b25447bb0dc25a9c14d04ecfe89e66ac84a7fe3c47ce
cohort-uniform/dense/ge 038959ddac3bf33002f43574702ab9c88fce45447d51dcab1b1f01f6c9088fc7
cohort-uniform/dense/reactive f23ad794f698abc8533c875934bb24f9564b839bbff16e4205d655f9d3c05d7e
cohort-aligned/event/clean 833c211b710a045ad94123404faa1c600c8b50baf9af4c78cd815269ea1f1f6f
cohort-aligned/event/ge 79c3228a8ba624317825dd8e7564680d48b7064a1a9a4e3ef034730c442069b0
cohort-aligned/event/reactive 5eee11ea22ab61d5c26f76da0ff3351ef355fc0d11e2fed77812104f3128ca3a
cohort-aligned/dense/clean be2c668118952f0d0a829237f3e8e50f376ba033a67594e823daa4786be845b0
cohort-aligned/dense/ge de0c3def845efc1c1d3377784eb327d234386ba5e821b9b5f45645c11830defc
cohort-aligned/dense/reactive 464b072a0bed36434b8baeb82f1b0a48bf722ba94d69b803b64f29cd39c52807
vectorized-mixed/event/clean 52a7b03a4aca1e5b2d59180c6b429cfa2d5ad09cbb651e87b1c90800f7a8e145
vectorized-mixed/event/ge 030737aec9614a10e12db31fec6a016817e6257b8ffcbb710ed38787afad12a0
vectorized-mixed/event/reactive 97fb6587146788f8759b60157fde4246285f78fb12fb04a64ffdb2976828e475
vectorized-mixed/dense/clean 1d7f894ec2ee4ca81fbbc4f4f49f0104f4c962a0dd2d6c5c460f729d548265b5
vectorized-mixed/dense/ge 4c906e74c55753f09fc69a3dd229fd9e67477e1b3fea1d5f2ef7f288844c9f36
vectorized-mixed/dense/reactive 95ba6b51710e3d0f245567228ad7b4d93fd77c850b970f2397411cd5f6db8175
exact-aligned/event/clean 42fe8c5b77b5cdfddac079c8320bd9742b3e2abf6151985196aff588d4b8a78d
exact-aligned/event/ge 7f4d9b7cabb74f8eb27f1a0d8a7ed30fa55021c4994d1d7172196f408acc13b3
exact-aligned/event/reactive caca12cf6da93a04618374e254c4ff1df8278121f7eb91d9907e098ff7453d5f
exact-aligned/dense/clean b5463a12eb3a19983eced0b688e77434aed1beb1aaea2aa5f5467e59c585e020
exact-aligned/dense/ge 3979425b4a35429a1c7bd306dcdbe5baa0b963fcd7ec1cccecf25324932f856b
exact-aligned/dense/reactive f7174f2917dfc0300d99c2049612cd6ecca1c03aa3f65aad8fe728a896cfec48
checkpoint 51cbaadfb186c03b1679542a1da6a5c9bfc1314fb3e4818d63a8d7b3e9964c11
cohort-aligned-64/event/clean cc51f8a600fe2114090bfeb3cef9f418ad430ca85e74b6d1ec193d60ba95a9d7
cohort-aloha-shared/event/clean 455f8a5570f31dc7b8a79627834365539b123dc6e728856064fa8681ba3d0e24
aligned-stress/event/all 5c37b83c2889a6aa8b08b5dadf0070d6d847c19a5cde51367332837fbbc4504d
aligned-stress/dense/all a787a2ecc574dbc9688932236b019da421af120b8b7abeef84743c84b8051a7a
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
