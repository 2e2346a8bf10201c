//! Cross-crate property tests: randomized invariants over the feasibility
//! theory, window transforms, channel engine, and statistics.

use contention_deadlines::protocols::punctual::trim::trim_virtual;
use contention_deadlines::sim::prelude::*;
use contention_deadlines::stats::{Proportion, Summary};
use contention_deadlines::workloads::feasibility::{edf_feasible, hall_feasible};
use contention_deadlines::workloads::generators::thin_to_feasible;
use contention_deadlines::workloads::transforms::{round_window_pow2, trimmed_window};
use contention_deadlines::workloads::Instance;
use proptest::prelude::*;

fn arb_jobs() -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec((0u64..32, 1u64..16), 1..12).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (r, w))| JobSpec::new(i as u32, r, r + w))
            .collect()
    })
}

proptest! {
    /// The event-driven EDF sweep and the O(n²) Hall-condition check are
    /// independent implementations of preemptive single-machine
    /// feasibility — they must agree on every instance and job length.
    #[test]
    fn edf_equals_hall(jobs in arb_jobs(), len in 1u64..5) {
        prop_assert_eq!(edf_feasible(&jobs, len), hall_feasible(&jobs, len));
    }

    /// Feasibility is monotone: harder (longer) jobs can only break it.
    #[test]
    fn feasibility_monotone_in_job_len(jobs in arb_jobs(), len in 1u64..5) {
        if edf_feasible(&jobs, len + 1) {
            prop_assert!(edf_feasible(&jobs, len));
        }
    }

    /// Removing a job never makes an instance infeasible.
    #[test]
    fn feasibility_monotone_in_jobs(jobs in arb_jobs(), len in 1u64..4, drop in 0usize..12) {
        if edf_feasible(&jobs, len) {
            let mut fewer = jobs.clone();
            if drop < fewer.len() {
                fewer.remove(drop);
                prop_assert!(edf_feasible(&fewer, len));
            }
        }
    }

    /// `trimmed_window` always returns an aligned power-of-2 window inside
    /// the original, at least a quarter of its size — and the independent
    /// `dcr-core` implementation agrees exactly.
    #[test]
    fn trim_properties_and_agreement(r in 0u64..10_000, w in 1u64..5_000) {
        let d = r + w;
        let (ts, te) = trimmed_window(r, d);
        let tw = te - ts;
        prop_assert!(ts >= r && te <= d);
        prop_assert!(tw.is_power_of_two());
        prop_assert_eq!(ts % tw, 0);
        prop_assert!(4 * tw >= w);
        prop_assert_eq!(trim_virtual(r, d), Some((ts, te)));
    }

    /// Power-of-two rounding shrinks the window by less than half and
    /// keeps the release.
    #[test]
    fn pow2_rounding_bounds(r in 0u64..1_000, w in 1u64..10_000) {
        let j = JobSpec::new(0, r, r + w);
        let rounded = round_window_pow2(&j);
        prop_assert_eq!(rounded.release, r);
        prop_assert!(rounded.window() <= w);
        prop_assert!(rounded.window() * 2 > w);
        prop_assert!(rounded.window().is_power_of_two());
    }

    /// `thin_to_feasible` output always verifies, for any γ.
    #[test]
    fn thinning_certificate_verifies(jobs in arb_jobs(), inv_gamma in 1u64..6) {
        let gamma = 1.0 / inv_gamma as f64;
        let thin = thin_to_feasible(Instance::new("p", jobs), gamma);
        prop_assert!(edf_feasible(&thin.jobs, inv_gamma));
    }

    /// Engine conservation laws under arbitrary ALOHA traffic: slots
    /// resolve exactly once, at most one delivery per job, deliveries land
    /// inside windows.
    #[test]
    fn engine_conservation(jobs in arb_jobs(), p in 1u32..50, seed in 0u64..1_000) {
        use contention_deadlines::baselines::FixedProbability;
        let instance = Instance::new("p", jobs);
        let mut engine = Engine::new(EngineConfig::default().with_trace(), seed);
        engine.add_jobs(&instance.jobs, FixedProbability::factory(f64::from(p) / 100.0));
        let report = engine.run();

        // Every slot accounted exactly once.
        prop_assert_eq!(report.counts.total(), report.slots_run);
        // Data successes counted consistently.
        prop_assert!(report.counts.data_success <= report.counts.success);
        // Deliveries strictly inside their windows.
        for (spec, outcome) in report.per_job() {
            if let Some(slot) = outcome.slot() {
                prop_assert!(spec.contains(slot), "{:?} delivered at {}", spec, slot);
            }
        }
        // Trace agrees with counters.
        let tally = contention_deadlines::sim::trace::tally(report.trace().unwrap());
        prop_assert_eq!(tally, report.counts);
    }

    /// The engine is a pure function of (instance, seed).
    #[test]
    fn engine_determinism(jobs in arb_jobs(), seed in 0u64..500) {
        use contention_deadlines::baselines::Sawtooth;
        let instance = Instance::new("p", jobs);
        let run = || {
            let mut engine = Engine::new(EngineConfig::default(), seed);
            engine.add_jobs(&instance.jobs, Sawtooth::factory());
            let r = engine.run();
            (r.outcomes().to_vec(), r.counts, r.slots_run)
        };
        prop_assert_eq!(run(), run());
    }

    /// Wilson intervals always contain the point estimate and stay in
    /// [0, 1].
    #[test]
    fn wilson_interval_sane(hits in 0u64..1_000, extra in 0u64..1_000) {
        let p = Proportion::new(hits, hits + extra.max(1));
        let (lo, hi) = p.wilson95();
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!((0.0..=1.0).contains(&hi));
        prop_assert!(lo <= p.estimate() + 1e-12);
        prop_assert!(p.estimate() <= hi + 1e-12);
    }

    /// Summary merge is equivalent to sequential accumulation.
    #[test]
    fn summary_merge_correct(xs in prop::collection::vec(-1e6f64..1e6, 0..64), split in 0usize..64) {
        let split = split.min(xs.len());
        let full = Summary::from_iter(xs.iter().copied());
        let mut a = Summary::from_iter(xs[..split].iter().copied());
        let b = Summary::from_iter(xs[split..].iter().copied());
        a.merge(&b);
        prop_assert_eq!(a.n(), full.n());
        if full.n() > 0 {
            prop_assert!((a.mean() - full.mean()).abs() < 1e-6);
        }
        if full.n() > 1 {
            prop_assert!((a.variance() - full.variance()).abs() / full.variance().max(1.0) < 1e-6);
        }
    }
}

/// Pinned replay of the shrunk case in `properties.proptest-regressions`
/// (`jobs = [JobSpec { id: 0, release: 1, deadline: 2 }], p = 1, seed = 0`):
/// a single-slot window at an odd release is the tightest exercise of the
/// engine's activation / fast-forward / retirement boundaries. The property
/// is replayed deterministically (and across a seed sweep, so the job both
/// does and does not transmit) regardless of the proptest implementation in
/// use, which may not read the regression file.
#[test]
fn regression_engine_conservation_unit_window() {
    use contention_deadlines::baselines::FixedProbability;

    for seed in 0..256u64 {
        let jobs = vec![JobSpec::new(0, 1, 2)];
        let instance = Instance::new("regression", jobs);
        let mut engine = Engine::new(EngineConfig::default().with_trace(), seed);
        engine.add_jobs(&instance.jobs, FixedProbability::factory(0.01));
        let report = engine.run();

        assert_eq!(
            report.counts.total(),
            report.slots_run,
            "seed {seed}: every slot accounted exactly once"
        );
        assert!(report.counts.data_success <= report.counts.success);
        for (spec, outcome) in report.per_job() {
            if let Some(slot) = outcome.slot() {
                assert!(
                    spec.contains(slot),
                    "seed {seed}: {spec:?} delivered at {slot}"
                );
            }
        }
        let tally = contention_deadlines::sim::trace::tally(report.trace().unwrap());
        assert_eq!(tally, report.counts);
    }
}

/// The w = 1 corner of the window-transform / feasibility theory, pinned
/// alongside the engine regression: single-slot windows must survive
/// trimming (identity), power-of-2 rounding (identity), and feasibility
/// checks (feasible alone at unit length, infeasible at length 2).
#[test]
fn regression_unit_window_transforms_and_feasibility() {
    let j = JobSpec::new(0, 1, 2);
    assert_eq!(j.window(), 1);
    assert!(j.contains(1));
    assert!(!j.contains(2));

    assert_eq!(trimmed_window(1, 2), (1, 2));
    assert_eq!(trim_virtual(1, 2), Some((1, 2)));
    let rounded = round_window_pow2(&j);
    assert_eq!((rounded.release, rounded.deadline), (1, 2));

    assert!(edf_feasible(&[j], 1));
    assert!(hall_feasible(&[j], 1));
    assert!(!edf_feasible(&[j], 2));
    assert!(!hall_feasible(&[j], 2));
    // Two unit-window jobs on the same slot cannot both be scheduled.
    let clash = [j, JobSpec::new(1, 1, 2)];
    assert!(!edf_feasible(&clash, 1));
    assert!(!hall_feasible(&clash, 1));
}
