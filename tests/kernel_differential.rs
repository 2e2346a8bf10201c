//! The conformance matrix's kernel column: `Exact` ↔ `Vectorized`.
//!
//! [`Fidelity::Vectorized`] routes kernel-eligible jobs (those exposing a
//! [`CohortTx`] profile) through batched counter-based draws instead of
//! per-job protocol dispatch. The claim is **bit identity**: the kernel
//! evaluates the exact `(job_key, slot, phase)` positions the exact path's
//! `gen_bool` / `gen_range` calls would, so the report matches outside
//! the `VECTORIZED` mask (see `testkit`) per seed, per adversary, per
//! scheduling mode. Every cell also proves the kernel owned jobs.
//!
//! [`Fidelity::Vectorized`]: contention_deadlines::sim::engine::Fidelity::Vectorized
//! [`CohortTx`]: contention_deadlines::sim::engine::CohortTx

mod testkit;

use contention_deadlines::sim::engine::{Action, CohortTx, Engine, EngineConfig, JobCtx, Protocol};
use contention_deadlines::sim::job::JobSpec;
use proptest::prelude::*;
use rand::RngCore;
use testkit::{arb_case, check, check_case, grid, pow2, ALL, DENSE, VECTORIZED};

/// Exact ↔ vectorized under both scheduling modes.
fn vectorized(pops: &str, seeds: std::ops::Range<u64>) {
    check(&grid(pops, ALL, seeds), &[VECTORIZED, DENSE | VECTORIZED]);
}

#[test]
fn aloha_single_bucket_matches_exact() {
    vectorized("aloha-bucket", 0..4);
}

/// Six kernel buckets: bucket lookup, per-bucket expiry, and dense/sparse
/// word paths as lanes die off.
#[test]
fn aloha_multi_bucket_matches_exact() {
    vectorized("aloha-buckets", 0..3);
}

#[test]
fn uniform_oneshot_matches_exact() {
    vectorized("uniform-oneshot", 0..4);
}

#[test]
fn mixed_kernel_and_exact_population_matches_exact() {
    vectorized("kernel-mixed", 0..4);
}

/// `CohortTx::Class` marks a protocol as aggregate-capable under cohort
/// fidelity only; the kernel has no class lanes, so ALIGNED and PUNCTUAL
/// take the exact path and must stay bit-identical, beside kernel-managed
/// ALOHA lanes in the ALIGNED cell.
#[test]
fn class_profile_protocols_fall_back_to_exact_under_vectorized() {
    let cases = grid("aligned-fallback punctual-fallback", ALL, 0..3);
    check(&cases, &[VECTORIZED]);
}

/// Canary against silently falling back to the exact path: eligible jobs
/// whose protocol panics on any callback must still be served.
#[test]
fn kernel_engages_for_eligible_jobs() {
    struct MustVectorize(f64);
    impl Protocol for MustVectorize {
        fn on_activate(&mut self, _ctx: &JobCtx, _rng: &mut dyn RngCore) {
            panic!("kernel-eligible job was activated on the exact path");
        }
        fn act(&mut self, _ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
            panic!("kernel-eligible job was polled");
        }
        fn cohort_tx(&self, _ctx: &JobCtx) -> Option<CohortTx> {
            Some(CohortTx::Constant { p: self.0 })
        }
    }

    let mut e = Engine::new(EngineConfig::default().vectorized(), 11);
    for i in 0..40u32 {
        e.add_job(JobSpec::new(i, 0, 400), Box::new(MustVectorize(0.05)));
    }
    assert!(e.run().successes() > 0, "kernel produced no deliveries");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(testkit::cases(24)))]

    /// Random populations mixing kernel-eligible and exact-path protocols
    /// under random adversaries, in either scheduling mode.
    #[test]
    fn random_population_kernel_equivalence(case in arb_case(12, 256, pow2(6..11)), dense in 0u8..2) {
        check_case(&case, &[VECTORIZED | (dense * DENSE)]);
    }
}
