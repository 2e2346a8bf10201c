//! The hot loop's allocation budget (DESIGN.md §6): counts the heap
//! allocations made inside `Engine::run()` and holds every protocol family
//! on the exact and aggregate paths to at most [`PER_JOB`] per job.
//!
//! A counting global allocator wraps the system one. Counting is switched
//! on only around `run()`, and this file holds a single `#[test]`, so no
//! other test thread allocates while it counts. Each case runs once
//! uncounted first, so per-thread pools and lazy statics are already warm.

use contention_deadlines::baselines::{BinaryExponentialBackoff, FixedProbability, Sawtooth};
use contention_deadlines::protocols::{
    AlignedParams, AlignedProtocol, PunctualParams, PunctualProtocol, Uniform,
};
use contention_deadlines::sim::engine::{Engine, EngineConfig, Protocol};
use contention_deadlines::sim::jamming::JamPolicy;
use contention_deadlines::sim::job::JobSpec;
use contention_deadlines::sim::rng::{SeedSeq, StreamLabel};
use contention_deadlines::sim::AdversarySpec;
use contention_deadlines::workloads::generators;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use testkit::aligned_two_classes;

mod testkit;

/// Allocations allowed per job inside one `Engine::run()`.
const PER_JOB: f64 = 16.0;

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: both calls forward unchanged to `System`; the wrapper only
// bumps a counter. The default `alloc_zeroed` and `realloc` go through
// `alloc`, so they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

type Factory = fn(&JobSpec) -> Box<dyn Protocol>;

/// One budgeted run: engine set-up, jobs and protocol.
struct Case {
    name: &'static str,
    config: EngineConfig,
    jam: Option<(AdversarySpec, f64)>,
    jobs: Vec<JobSpec>,
    factory: Factory,
}

/// Heap allocations made inside `run()` for one fresh engine.
fn allocations_in_run(case: &Case, seed: u64) -> u64 {
    let mut engine = Engine::new(case.config.clone(), seed);
    if let Some((adversary, p_jam)) = case.jam {
        engine.set_jammer(adversary.jammer(p_jam));
    }
    engine.add_jobs(&case.jobs, case.factory);
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let report = engine.run();
    COUNTING.store(false, Ordering::SeqCst);
    assert!(report.slots_run > 0, "{}: nothing ran", case.name);
    ALLOCS.load(Ordering::SeqCst)
}

fn cases() -> Vec<Case> {
    let ge = Some((
        AdversarySpec::Bursty {
            p_enter: 0.01,
            p_exit: 0.1,
        },
        0.9,
    ));
    let mut punctual_rng = SeedSeq::new(0xE10).rng(StreamLabel::Workload, 0);
    let poisson = generators::poisson(0.02, 1 << 13, &[1 << 10, 1 << 12], &mut punctual_rng);
    let mut cohort = EngineConfig::aligned().cohort();
    cohort.max_slots = Some(1 << 15);
    vec![
        Case {
            name: "aligned,w=2^11",
            config: EngineConfig::aligned(),
            jam: Some((AdversarySpec::Policy(JamPolicy::AllSuccesses), 0.5)),
            jobs: generators::batch(128, 1 << 11).jobs,
            factory: |_| Box::new(AlignedProtocol::new(AlignedParams::new(1, 2, 11))),
        },
        Case {
            name: "aligned,classes 8+10",
            config: EngineConfig::aligned(),
            jam: None,
            jobs: aligned_two_classes(),
            factory: |_| Box::new(AlignedProtocol::new(AlignedParams::new(1, 2, 8))),
        },
        Case {
            name: "punctual,poisson#0",
            config: EngineConfig::default(),
            jam: None,
            jobs: generators::thin_to_feasible(poisson, 1.0 / 16.0).jobs,
            factory: |_| Box::new(PunctualProtocol::new(PunctualParams::laptop())),
        },
        Case {
            name: "beb,ge",
            config: EngineConfig::default(),
            jam: ge,
            jobs: generators::batch(64, 1 << 16).jobs,
            factory: |_| Box::new(BinaryExponentialBackoff::new()),
        },
        Case {
            name: "sawtooth,ge",
            config: EngineConfig::default(),
            jam: ge,
            jobs: generators::batch(64, 1 << 16).jobs,
            factory: |_| Box::new(Sawtooth::new()),
        },
        Case {
            name: "uniform(1),ge",
            config: EngineConfig::default(),
            jam: ge,
            jobs: generators::batch(64, 1 << 16).jobs,
            factory: |_| Box::new(Uniform::new(1)),
        },
        Case {
            name: "aloha(1/256),ge",
            config: EngineConfig::default(),
            jam: ge,
            jobs: generators::batch(64, 1 << 16).jobs,
            factory: |_| Box::new(FixedProbability::new(1.0 / 256.0)),
        },
        Case {
            name: "aligned-cohort,n=10^4",
            config: cohort,
            jam: None,
            jobs: generators::batch(10_000, 1 << 17).jobs,
            factory: |_| Box::new(AlignedProtocol::new(AlignedParams::new(1, 2, 17))),
        },
    ]
}

#[test]
fn engine_run_stays_within_allocation_budget() {
    let mut report = String::new();
    let mut over = Vec::new();
    for case in cases() {
        allocations_in_run(&case, 1);
        let allocs = allocations_in_run(&case, 2);
        let per_job = allocs as f64 / case.jobs.len() as f64;
        report.push_str(&format!(
            "  {}: {allocs} allocations, {per_job:.2} per job\n",
            case.name
        ));
        if per_job > PER_JOB {
            over.push(case.name);
        }
    }
    println!("{report}");
    assert!(
        over.is_empty(),
        "over {PER_JOB} allocations per job in {over:?}:\n{report}"
    );
}
