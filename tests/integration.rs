//! Cross-crate integration tests: workloads feed the simulator, protocols
//! from `dcr-core` and `dcr-baselines` run on them, statistics summarize
//! the outcome — the full pipeline the experiment harness is built from.

use contention_deadlines::baselines::scheduled::{edf_assignment, scheduled_protocols};
use contention_deadlines::baselines::{BinaryExponentialBackoff, Sawtooth};
use contention_deadlines::protocols::{
    AlignedParams, AlignedProtocol, PunctualParams, PunctualProtocol, Uniform,
};
use contention_deadlines::sim::prelude::*;
use contention_deadlines::stats::Proportion;
use contention_deadlines::workloads::generators::{
    aligned_classes, batch, harmonic, poisson, thin_to_feasible, ClassSpec,
};
use contention_deadlines::workloads::transforms::{trimmed, trimmed_window};
use contention_deadlines::workloads::{edf_feasible, is_gamma_slack_feasible, measured_slack};
use rand::SeedableRng;

#[test]
fn aligned_pipeline_generator_to_stats() {
    // Generate a certified multi-class instance, run ALIGNED, summarize.
    let params = AlignedParams::new(1, 2, 9);
    let instance = aligned_classes(
        &[
            ClassSpec {
                class: 9,
                jobs_per_window: 2,
            },
            ClassSpec {
                class: 11,
                jobs_per_window: 4,
            },
        ],
        1 << 12,
        None,
    );
    assert!(is_gamma_slack_feasible(&instance.jobs, 1.0 / 16.0));

    let mut hits = 0u64;
    let trials = 20u64;
    for seed in 0..trials {
        let mut engine = Engine::new(EngineConfig::aligned(), seed);
        engine.add_jobs(&instance.jobs, AlignedProtocol::factory(params));
        let report = engine.run();
        hits += (report.successes() == instance.n()) as u64;
    }
    let p = Proportion::new(hits, trials);
    assert!(p.estimate() > 0.8, "all-delivered rate {p}");
}

#[test]
fn punctual_pipeline_on_dynamic_traffic() {
    let mut rng = SeedSeq::new(3).rng(contention_deadlines::sim::rng::StreamLabel::Workload, 0);
    let raw = poisson(0.01, 1 << 15, &[1 << 13], &mut rng);
    let instance = thin_to_feasible(raw, 1.0 / 16.0);
    assert!(instance.n() > 5, "need some traffic, got {}", instance.n());

    let mut engine = Engine::new(EngineConfig::default(), 11);
    engine.add_jobs(
        &instance.jobs,
        PunctualProtocol::factory(PunctualParams::laptop()),
    );
    let report = engine.run();
    assert!(
        report.success_fraction() > 0.7,
        "delivered {}",
        report.success_fraction()
    );
}

#[test]
fn feasibility_checker_agrees_with_edf_assignment() {
    // `edf_feasible(jobs, 1)` (workloads crate) and `edf_assignment`
    // (baselines crate) are two independent implementations of the same
    // question for unit jobs — they must agree.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
    for trial in 0..50 {
        use rand::Rng;
        let n = rng.gen_range(1..30usize);
        let jobs: Vec<JobSpec> = (0..n)
            .map(|i| {
                let r = rng.gen_range(0..40u64);
                let w = rng.gen_range(1..12u64);
                JobSpec::new(i as u32, r, r + w)
            })
            .collect();
        assert_eq!(
            edf_feasible(&jobs, 1),
            edf_assignment(&jobs).is_some(),
            "trial {trial}: {jobs:?}"
        );
    }
}

#[test]
fn genie_schedule_executes_collision_free() {
    let instance = thin_to_feasible(
        {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
            contention_deadlines::workloads::generators::random_unaligned(
                60, 1024, 16, 128, &mut rng,
            )
        },
        0.5,
    );
    let protos = scheduled_protocols(&instance.jobs).expect("thinned => feasible");
    let mut it = protos.into_iter();
    let mut engine = Engine::new(EngineConfig::default(), 0);
    engine.add_jobs(&instance.jobs, move |_| Box::new(it.next().unwrap()));
    let report = engine.run();
    assert_eq!(report.successes(), instance.n());
    assert_eq!(report.counts.collision, 0);
}

#[test]
fn core_trim_matches_workloads_trim() {
    // The deliberately duplicated trimming arithmetic (core::punctual::trim
    // vs workloads::transforms) must agree everywhere.
    for (r, d) in [(0u64, 9u64), (3, 21), (100, 1000), (17, 18), (5, 2053)] {
        let (a_start, a_end) = trimmed_window(r, d);
        let (b_start, b_end) =
            contention_deadlines::protocols::punctual::trim::trim_virtual(r, d).unwrap();
        assert_eq!((a_start, a_end), (b_start, b_end), "interval [{r},{d})");
    }
}

#[test]
fn lemma15_trimming_preserves_quarter_slack() {
    // A 4γ-feasible instance must stay γ-feasible after trimming.
    let instance = {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        let raw = contention_deadlines::workloads::generators::random_unaligned(
            200, 8192, 64, 512, &mut rng,
        );
        thin_to_feasible(raw, 1.0 / 16.0) // 4γ-slack with γ = 1/4... (1/16 = 4·1/64)
    };
    let t = trimmed(&instance);
    assert!(t.is_aligned());
    // Lemma 15 with 1/γ = 4: trimmed(1/16-slack) is 1/4-slack feasible.
    assert!(
        is_gamma_slack_feasible(&t.jobs, 1.0 / 4.0),
        "trimmed slack = {:?}",
        measured_slack(&t.jobs)
    );
}

#[test]
fn all_protocols_run_the_same_batch_without_panic() {
    let instance = batch(12, 1 << 12);
    type Factory = Box<dyn FnMut(&JobSpec) -> Box<dyn Protocol>>;
    let factories: Vec<(&str, Factory)> = vec![
        (
            "uniform",
            Box::new(|_: &JobSpec| Box::new(Uniform::single()) as Box<dyn Protocol>),
        ),
        ("beb", Box::new(BinaryExponentialBackoff::factory(1024))),
        ("sawtooth", Box::new(Sawtooth::factory())),
        (
            "punctual",
            Box::new(PunctualProtocol::factory(PunctualParams::laptop())),
        ),
    ];
    for (name, factory) in factories {
        let mut engine = Engine::new(EngineConfig::default(), 77);
        engine.add_jobs(&instance.jobs, factory);
        let report = engine.run();
        assert_eq!(report.outcomes().len(), 12, "{name}");
    }
}

#[test]
fn harmonic_instance_feasibility_matches_lemma5_setup() {
    // The Lemma 5 instance is γ-slack feasible by construction.
    let inst = harmonic(64, 4);
    assert!(is_gamma_slack_feasible(&inst.jobs, 0.25));
    assert_eq!(measured_slack(&inst.jobs), Some(4));
}

#[test]
fn jamming_composes_with_protocols_and_metrics() {
    let instance = batch(4, 1 << 11);
    let mut engine = Engine::new(EngineConfig::aligned().with_trace(), 13);
    engine.set_jammer(Jammer::new(JamPolicy::AllSuccesses, 0.3));
    engine.add_jobs(
        &instance.jobs,
        AlignedProtocol::factory(AlignedParams::new(2, 2, 11)),
    );
    let report = engine.run();
    // Trace tallies must reconcile with the running counters.
    let tally = contention_deadlines::sim::trace::tally(report.trace().unwrap());
    assert_eq!(tally, report.counts);
    // Adversary counters surface in the report and reconcile too: every
    // successful jam is an attempt that landed.
    assert_eq!(report.jam_stats.succeeded, report.counts.jammed);
    assert!(report.jam_stats.attempted >= report.jam_stats.succeeded);
}

#[test]
fn jam_success_ratio_matches_configured_p_jam() {
    // Regression for "jam attempts are lost": with the counters surfaced
    // in SimReport, the empirical success ratio over a Monte-Carlo batch
    // must statistically match the configured p_jam. 200 trials × ≥8
    // attempts each gives >1600 Bernoulli(0.35) samples; the observed
    // ratio lies within ±0.05 of 0.35 except with negligible probability.
    let p_jam = 0.35;
    let instance = batch(8, 1 << 11);
    let results = run_trials(200, 0xA77E, |_, seed| {
        let mut engine = Engine::new(EngineConfig::aligned(), seed);
        engine.set_jammer(Jammer::new(JamPolicy::AllSuccesses, p_jam));
        engine.add_jobs(
            &instance.jobs,
            AlignedProtocol::factory(AlignedParams::new(2, 2, 11)),
        );
        let r = engine.run();
        (r.jam_stats.attempted, r.jam_stats.succeeded)
    });
    let attempted: u64 = results.iter().map(|t| t.value.0).sum();
    let succeeded: u64 = results.iter().map(|t| t.value.1).sum();
    assert!(attempted > 1_000, "adversary barely attempted: {attempted}");
    let ratio = succeeded as f64 / attempted as f64;
    assert!(
        (ratio - p_jam).abs() < 0.05,
        "succeeded/attempted = {succeeded}/{attempted} = {ratio:.3}, configured p_jam {p_jam}"
    );
}

#[test]
fn clocked_equals_aligned_on_aligned_instances() {
    // On power-of-2-aligned windows, CLOCKED's trim is the identity, so it
    // must reproduce ALIGNED decision-for-decision: same seeds, same
    // outcomes, same channel counters, and the same channel accesses per
    // job, since both run the one ALIGNED adapter. A cross-protocol
    // differential test.
    use contention_deadlines::protocols::{ClockedParams, ClockedProtocol};
    let params = AlignedParams::new(1, 2, 9);
    let instance = aligned_classes(
        &[
            ClassSpec {
                class: 9,
                jobs_per_window: 3,
            },
            ClassSpec {
                class: 10,
                jobs_per_window: 2,
            },
        ],
        1 << 11,
        None,
    );
    for seed in [1u64, 7, 42] {
        let mut a = Engine::new(EngineConfig::aligned(), seed);
        a.add_jobs(&instance.jobs, AlignedProtocol::factory(params));
        let ra = a.run();

        let mut c = Engine::new(EngineConfig::aligned(), seed);
        c.add_jobs(
            &instance.jobs,
            ClockedProtocol::factory(ClockedParams {
                aligned: params,
                lambda: 4,
            }),
        );
        let rc = c.run();

        assert_eq!(ra.outcomes(), rc.outcomes(), "seed {seed}");
        assert_eq!(ra.counts, rc.counts, "seed {seed}");
        assert_eq!(ra.accesses, rc.accesses, "seed {seed}");
    }
}

#[test]
fn deterministic_replay_across_crate_boundaries() {
    let make = || {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let raw = poisson(0.02, 1 << 13, &[1 << 12], &mut rng);
        thin_to_feasible(raw, 1.0 / 8.0)
    };
    let run = |instance: &contention_deadlines::workloads::Instance| {
        let mut engine = Engine::new(EngineConfig::default(), 99);
        engine.add_jobs(
            &instance.jobs,
            PunctualProtocol::factory(PunctualParams::laptop()),
        );
        let r = engine.run();
        (r.outcomes().to_vec(), r.counts)
    };
    let (a, b) = (make(), make());
    assert_eq!(a.jobs, b.jobs, "workload generation deterministic");
    assert_eq!(run(&a), run(&b), "simulation deterministic");
}
