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
    out
}

/// `label digest` per line. Pins computed before the slot loop was split
/// into stages; the `exact-aligned` pins before the tracker's wake plan
/// stopped copying its classes.
const PINS: &str = "\
exact-mixed/event/clean e95d15f9bd3a36297110e88443da4039a790995987f81e294bf0adcff701dff1
exact-mixed/event/ge fbb65007f81b9e2e1150f44586aef68a4baf1e30cf395ab9a61493bb3ec1de3b
exact-mixed/event/reactive 8eee44a4a9cbca89afce3328faccfd4c4dc75114a25e53a0a4d6fc33f8fb7b3c
exact-mixed/dense/clean 9732852bf0a3a172bf1a126e6a954fc059c0ea95fdbc3f7bbccf0b2b0ab3c2b4
exact-mixed/dense/ge 004cb58bc75c9252459c35229e0bee0231522f5d3d3ca1e2e4668f5a10dc3228
exact-mixed/dense/reactive ed9b014ec8609e82d7e3c990d22abb288c7a4d188184b6dca2d70e7f20d31459
cohort-aloha/event/clean 76cf6423a6d716b84d8b25a1d14fd3c24306196af6b510e7ef1e67f826f4b161
cohort-aloha/event/ge 52164a8d0ae873c89bd66949211c0ef711e6189989443fdfe17364a148afb2b9
cohort-aloha/event/reactive 9e710c2380489b24955cdc29a5325eb48b33197d07ec3788aa9086375a7f060a
cohort-aloha/dense/clean bd909c037e52528c3a5ebebbf1d27e5793aefa94769942a2f2d92bd5018bee93
cohort-aloha/dense/ge 5f875f0e4fca62e9b0c8cf1b3114ee5d070c05209d3b2cbb201b19b35e5b8ad9
cohort-aloha/dense/reactive e69fc3e487fdb38e65e46f395eee8ae637a923a27e9992000fab7741577f1a07
cohort-uniform/event/clean e271d94946540844dd030f7acd4b8e2a3852236cfa855ad6fcc33bffcb6284da
cohort-uniform/event/ge b0d693302e3322db993223b0a7f37b19cd95682cbd7887e596a11bed44be1516
cohort-uniform/event/reactive 4f962005056f995cbc52ed48699fefede79b649a933b11d2eb27dd86ee2e102b
cohort-uniform/dense/clean 0df29714f803af7724252ae35519a5aee6fe7099eed0cebc0c52c2db027a936d
cohort-uniform/dense/ge 41671de5c65dcb7c28f374bf9b484a356790164532f89d4ba3f8ce216a888be5
cohort-uniform/dense/reactive f9ffbaf11b409dafb1113533841361f3bf31a4c608befee2dfb2f9889e8be1c8
cohort-aligned/event/clean 7e05b55fd58c1fec4e8d2675c33e76abc5018950d434c54e7da9b1e2f8a59742
cohort-aligned/event/ge cd1b6e7ae16bb29715ca54d6b74a7158afba3c06916ce1df1ab4e95bc1811cf6
cohort-aligned/event/reactive 6b516f95a52692c5938ffd9449c4bc28de9a85c037e56f143cee4a58ab9643f8
cohort-aligned/dense/clean 8da4f872a27de7fbf89abfccdeabb12d4be5e897d54fabeda6a6582f9aed4fa1
cohort-aligned/dense/ge cb58a2abb2a3440ebbfe81e52ed33c86236cecf707f291bf5d2520456db39ef0
cohort-aligned/dense/reactive d859447678c90046f70077989e6a13b0ef66cf8cbbdb6cbe1f2d29e81cdb2dfe
vectorized-mixed/event/clean 14acb10390803bd7bedf5c0eeaaf883076dd78df9b12503eeccda1a37eee9dbd
vectorized-mixed/event/ge 2b8f254e0e97cc78429759b3f42abadd01ad5e649c77e86356f73598b20166da
vectorized-mixed/event/reactive 669b850fbd011cc021552b40e5aab54d31bf85801e8e083e85173eea27522932
vectorized-mixed/dense/clean e1d7319d0573f8d1f00c411e1b69dd0ba04ee66b3a1f32340a484cf39a2ab4a6
vectorized-mixed/dense/ge ef1e9200ce3ab8d148244d085962c5c9ccf2b68e6ea73933b548f7486e0394ee
vectorized-mixed/dense/reactive c9e18e57fd6060392ba0b2cbba4db7930139dafec55c341dd8a59264fc2911be
exact-aligned/event/clean d53d7c84197ba0f960205602c1f3bc6c9767c41cdc90600752bce8628c5137d6
exact-aligned/event/ge 1416c62a4e6e330ad6d133a7e7bb1ddcc1cd777c2a689fb4985e5bd2df507394
exact-aligned/event/reactive 3a6341f3a42ec0a7607f5bd974abcfa35699f77ba0f5a6d340ea5cd1d914d7aa
exact-aligned/dense/clean 5b72e97db033df778864da54cdfcfc30fe4a76ae4a8ce3eee3f54bff68b120b8
exact-aligned/dense/ge bbe3d4667597e5d1030ac5c8be75842396b52461c6af87e6f2dd0c35e2b611b5
exact-aligned/dense/reactive 2e3b5f0cf3e4476eeb7a8b7ec8b8624e08c2d58a6fb759f84c8c3473c8168935
checkpoint 48688e4942a0da2332d2fea5cb27806257e57f1413061f8a24526214f864c04f
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
