//! Shared differential-testing kit for the integration suites.
//!
//! One copy of the protocol × adversary × workload grids, the
//! report-equality assertions, and the statistical helpers that the
//! equivalence suites (`scheduling_equivalence`, `cohort_equivalence`,
//! `kernel_differential`, `slot_replay`) used to duplicate. Each
//! `tests/*.rs` consumer declares `mod testkit;` — the
//! module is compiled per test crate, so pieces unused by one consumer
//! are expected dead code.
#![allow(dead_code)]

use contention_deadlines::baselines::windowed::{Schedule, WindowedBackoff};
use contention_deadlines::baselines::{BinaryExponentialBackoff, FixedProbability, Sawtooth};
use contention_deadlines::protocols::Uniform;
use contention_deadlines::sim::engine::{Engine, EngineConfig, Fidelity, Protocol};
use contention_deadlines::sim::jamming::{
    BudgetedJammer, GilbertElliott, JamPolicy, Jammer, ReactiveJammer,
};
use contention_deadlines::sim::job::JobSpec;
use contention_deadlines::sim::metrics::SimReport;
use contention_deadlines::sim::runner::run_trials;
use contention_deadlines::sim::trace::tally;
use contention_deadlines::stats::Proportion;

/// The jammer grid: every stateless policy plus the stateful adversaries,
/// including both idle-striking ones (`Random`, Gilbert–Elliott) that
/// disable all-parked fast-forwarding and the stateful non-idle-striking
/// reactive jammer that relies on the `on_silent_gap` replay contract.
pub fn jammers() -> Vec<(&'static str, Option<Jammer>)> {
    vec![
        ("clean", None),
        ("all", Some(Jammer::new(JamPolicy::AllSuccesses, 0.4))),
        ("ctrl", Some(Jammer::new(JamPolicy::ControlOnly, 0.6))),
        ("data", Some(Jammer::new(JamPolicy::DataOnly, 0.5))),
        (
            "random",
            Some(Jammer::new(JamPolicy::Random { attempt: 0.1 }, 0.5)),
        ),
        (
            "budget",
            Some(Jammer::adaptive(
                Box::new(BudgetedJammer::new(5, false)),
                0.7,
            )),
        ),
        (
            "budget-data",
            Some(Jammer::adaptive(
                Box::new(BudgetedJammer::new(3, true)),
                1.0,
            )),
        ),
        (
            "reactive",
            Some(Jammer::adaptive(Box::new(ReactiveJammer::new(2, 16)), 0.8)),
        ),
        (
            "bursty",
            Some(Jammer::adaptive(
                Box::new(GilbertElliott::new(0.05, 0.2)),
                0.6,
            )),
        ),
    ]
}

/// The proptest jammer arm: a deterministic pick from a 8-way mix of
/// policies (one `None`, the rest covering stateless and stateful,
/// idle-striking and reactive adversaries).
pub fn jammer_pick(pick: usize) -> Option<Jammer> {
    match pick % 8 {
        0 => None,
        1 => Some(Jammer::new(JamPolicy::AllSuccesses, 0.3)),
        2 => Some(Jammer::new(JamPolicy::ControlOnly, 0.5)),
        3 => Some(Jammer::new(JamPolicy::DataOnly, 0.5)),
        4 => Some(Jammer::new(JamPolicy::Random { attempt: 0.05 }, 0.5)),
        5 => Some(Jammer::adaptive(
            Box::new(BudgetedJammer::new(4, false)),
            0.6,
        )),
        6 => Some(Jammer::adaptive(Box::new(ReactiveJammer::new(1, 8)), 0.7)),
        _ => Some(Jammer::adaptive(
            Box::new(GilbertElliott::new(0.1, 0.3)),
            0.5,
        )),
    }
}

/// The proptest protocol arm: a deterministic pick from the 6-way mix of
/// workspace protocols the random-population suites draw from.
pub fn protocol_pick(pick: usize) -> Box<dyn Protocol> {
    match pick % 6 {
        0 => Box::new(Uniform::new(1)),
        1 => Box::new(Uniform::new(2)),
        2 => Box::new(Sawtooth::new()),
        3 => Box::new(BinaryExponentialBackoff::new()),
        4 => Box::new(WindowedBackoff::new(Schedule::Geometric {
            base: 2,
            first: 1,
        })),
        _ => Box::new(FixedProbability::new(0.03)),
    }
}

/// Jobs with releases staggered around the first half-window.
pub fn staggered(n: u32, spread: u64, w: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let r = u64::from(i) * spread % (w / 2);
            JobSpec::new(i, r, r + w)
        })
        .collect()
}

/// ALIGNED jobs in two classes over `[0, 2^11)` for
/// `AlignedParams::new(1, 2, 8)`: three in every class-8 window and four
/// in every class-10 window. Each class-10 job tracks classes 8, 9 and
/// 10, and class 8 preempts it at each of its window boundaries.
pub fn aligned_two_classes() -> Vec<JobSpec> {
    (0..32u32)
        .map(|i| {
            let (class, window) = if i < 24 {
                (8, i / 3)
            } else {
                (10, (i - 24) / 4)
            };
            let r = u64::from(window) << class;
            JobSpec::new(i, r, r + (1 << class))
        })
        .collect()
}

/// Assert every non-diagnostic observable of two reports matches
/// bit-for-bit: outcomes, channel counts, per-job access counts,
/// `slots_run`, and — when both runs traced — the trace tallies.
///
/// `declared_contention` and raw trace records are deliberately *not*
/// compared: parked (or kernel-managed) jobs are not polled for their
/// diagnostic `tx_probability`, and silent stretches may be recorded as
/// different run-length splits, so both legitimately differ between
/// equivalent execution modes.
pub fn assert_reports_match(label: &str, seed: u64, a: &SimReport, b: &SimReport) {
    assert_eq!(
        a.outcomes(),
        b.outcomes(),
        "{label}: outcomes diverge (seed {seed})"
    );
    assert_eq!(
        a.counts, b.counts,
        "{label}: slot counts diverge (seed {seed})"
    );
    assert_eq!(
        a.accesses, b.accesses,
        "{label}: access counts diverge (seed {seed})"
    );
    assert_eq!(
        a.slots_run, b.slots_run,
        "{label}: slots_run diverges (seed {seed})"
    );
    if let (Some(ta), Some(tb)) = (a.trace.as_ref(), b.trace.as_ref()) {
        assert_eq!(
            tally(ta),
            tally(tb),
            "{label}: trace tallies diverge (seed {seed})"
        );
    }
}

/// Run the same simulation under two configurations and assert every
/// non-diagnostic observable matches bit-for-bit (traces are recorded on
/// both sides so the tallies are compared too).
pub fn assert_config_equiv<F>(
    label: &str,
    a: EngineConfig,
    b: EngineConfig,
    jammer: Option<&Jammer>,
    seed: u64,
    setup: F,
) where
    F: Fn(&mut Engine),
{
    let run = |config: EngineConfig| -> SimReport {
        let mut engine = Engine::new(config.with_trace(), seed);
        if let Some(j) = jammer {
            engine.set_jammer(j.clone());
        }
        setup(&mut engine);
        engine.run()
    };
    let ra = run(a);
    let rb = run(b);
    assert_reports_match(label, seed, &ra, &rb);
}

/// Total successes over total jobs for `trials` independent runs of the
/// `n`-job population built by `factory`, under the given fidelity.
pub fn success_proportion(
    fidelity: Fidelity,
    trials: u64,
    master_seed: u64,
    n: u32,
    window: u64,
    factory: impl Fn(&JobSpec) -> Box<dyn Protocol> + Sync,
) -> Proportion {
    let config = EngineConfig {
        fidelity,
        ..EngineConfig::default()
    };
    let hits: u64 = run_trials(trials, master_seed, |_, seed| {
        let mut e = Engine::new(config.clone(), seed);
        for i in 0..n {
            let spec = JobSpec::new(i, 0, window);
            e.add_job(spec, factory(&spec));
        }
        e.run().successes() as u64
    })
    .into_iter()
    .map(|t| t.value)
    .sum();
    Proportion::new(hits, trials * u64::from(n))
}

/// [`success_proportion`] generalized over an arbitrary base config and
/// an optional jammer — the aggregate-class equivalence grids need both
/// (ALIGNED requires the aligned-clock config; every cell crosses the
/// jammer grid).
pub fn success_proportion_grid(
    config: &EngineConfig,
    jammer: Option<&Jammer>,
    trials: u64,
    master_seed: u64,
    n: u32,
    window: u64,
    factory: impl Fn(&JobSpec) -> Box<dyn Protocol> + Sync,
) -> Proportion {
    let hits: u64 = run_trials(trials, master_seed, |_, seed| {
        let mut e = Engine::new(config.clone(), seed);
        if let Some(j) = jammer {
            e.set_jammer(j.clone());
        }
        for i in 0..n {
            let spec = JobSpec::new(i, 0, window);
            e.add_job(spec, factory(&spec));
        }
        e.run().successes() as u64
    })
    .into_iter()
    .map(|t| t.value)
    .sum();
    Proportion::new(hits, trials * u64::from(n))
}

/// Cluster-robust success-law comparison for protocols whose failures
/// cluster by trial: ALIGNED and PUNCTUAL share one estimate / one leader
/// per class, so a bad draw fails the whole class at once and job-level
/// Wilson intervals are badly miscalibrated (the 1440 "samples" are ~60
/// clusters). Compare mean per-trial success fractions with trial-level
/// standard errors instead — an honest two-sample z-test on the cluster
/// means.
#[allow(clippy::too_many_arguments)]
pub fn assert_success_law_match(
    label: &str,
    config_a: &EngineConfig,
    config_b: &EngineConfig,
    jammer: Option<&Jammer>,
    trials: u64,
    master_seed: u64,
    n: u32,
    window: u64,
    factory: impl Fn(&JobSpec) -> Box<dyn Protocol> + Sync,
) {
    let fractions = |config: &EngineConfig, seed0: u64| -> Vec<f64> {
        run_trials(trials, seed0, |_, seed| {
            let mut e = Engine::new(config.clone(), seed);
            if let Some(j) = jammer {
                e.set_jammer(j.clone());
            }
            for i in 0..n {
                let spec = JobSpec::new(i, 0, window);
                e.add_job(spec, factory(&spec));
            }
            e.run().success_fraction()
        })
        .into_iter()
        .map(|t| t.value)
        .collect()
    };
    let a = fractions(config_a, master_seed);
    let b = fractions(config_b, master_seed + 7919);
    let stat = |v: &[f64]| {
        let m = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (v.len() as f64 - 1.0);
        (m, (var / v.len() as f64).sqrt())
    };
    let (ma, sa) = stat(&a);
    let (mb, sb) = stat(&b);
    let tol = (5.0 * (sa + sb)).max(0.03);
    assert!(
        (ma - mb).abs() < tol,
        "{label}: mean success fraction {ma:.4} vs {mb:.4} (tol {tol:.4})"
    );
}

/// Assert the Wilson intervals at quantile `z` overlap, with a diagnostic
/// that prints both intervals on failure.
pub fn assert_wilson_overlap(label: &str, a: Proportion, b: Proportion, z: f64) {
    let (alo, ahi) = a.wilson(z);
    let (blo, bhi) = b.wilson(z);
    assert!(
        alo <= bhi && blo <= ahi,
        "{label}: exact [{alo:.4}, {ahi:.4}] (p̂={:.4}) vs aggregate \
         [{blo:.4}, {bhi:.4}] (p̂={:.4}) do not overlap",
        a.estimate(),
        b.estimate(),
    );
}

/// Proptest case count: `default`, overridable upward (or downward) via
/// the `PROPTEST_CASES` environment variable — the CI nightly job raises
/// it for release-mode deep runs of the equivalence suites.
pub fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
