//! The `exact-sweep` and `aggregate-scale` workloads: one op is one
//! Monte-Carlo trial (`Engine::new` → `set_jammer` → `add_jobs` → `run`)
//! inside the benchmark's own `run_trials_ctl` closure.
//!
//! A *round* runs every cell's trials once as one runner batch. The
//! untimed warm-up is one round; the timed op list repeats that same round,
//! with the same trial seeds, so every timed op must reproduce its warm-up
//! twin exactly (successes and slots) — that is the output check.

use crate::trace::{self, span};
use crate::{ratio, Args, Outcome};
use dcr_baselines::{BinaryExponentialBackoff, FixedProbability, Sawtooth};
use dcr_core::punctual::params::ROUND_LEN;
use dcr_core::{AlignedParams, AlignedProtocol, PunctualParams, PunctualProtocol, Uniform};
use dcr_sim::engine::{slots_executed_total, Engine, EngineConfig, Protocol};
use dcr_sim::jamming::JamPolicy;
use dcr_sim::job::JobSpec;
use dcr_sim::metrics::SimReport;
use dcr_sim::rng::{SeedSeq, StreamLabel};
use dcr_sim::runner::{run_trials_ctl, CancelToken, RunStats};
use dcr_sim::{AdversarySpec, Fidelity};
use dcr_workloads::generators;
use std::time::{Duration, Instant};

/// Host seconds one round of each workload takes on the reference
/// machine (2 cores, one worker); the timed list is `seconds / ROUND_SECS`
/// rounds.
const EXACT_ROUND_SECS: f64 = 0.26;
const AGGREGATE_ROUND_SECS: f64 = 0.8;

/// The fidelity tier a cell group exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Exact,
    Cohort,
    Classes,
    Kernel,
}

impl Tier {
    const ALL: [Tier; 4] = [Tier::Exact, Tier::Cohort, Tier::Classes, Tier::Kernel];

    fn span(self) -> &'static str {
        match self {
            Tier::Exact => "engine.run.exact",
            Tier::Cohort => "engine.run.cohort",
            Tier::Classes => "engine.run.classes",
            Tier::Kernel => "engine.run.kernel",
        }
    }

    fn metric(self) -> &'static str {
        match self {
            Tier::Exact => "engine.run_ms.exact",
            Tier::Cohort => "engine.run_ms.cohort",
            Tier::Classes => "engine.run_ms.classes",
            Tier::Kernel => "engine.run_ms.kernel",
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Proto {
    Aligned { class: u32 },
    Punctual,
    Beb,
    Sawtooth,
    Uniform,
    Aloha(f64),
}

impl Proto {
    fn instance(self) -> Box<dyn Protocol> {
        match self {
            Proto::Aligned { class } => {
                Box::new(AlignedProtocol::new(AlignedParams::new(1, 2, class)))
            }
            Proto::Punctual => Box::new(PunctualProtocol::new(PunctualParams::laptop())),
            Proto::Beb => Box::new(BinaryExponentialBackoff::new()),
            Proto::Sawtooth => Box::new(Sawtooth::new()),
            Proto::Uniform => Box::new(Uniform::single()),
            Proto::Aloha(p) => Box::new(FixedProbability::new(p)),
        }
    }
}

/// One sweep cell: a job instance, a protocol, a tier, and an adversary.
struct Cell {
    name: String,
    tier: Tier,
    config: EngineConfig,
    jobs: Vec<JobSpec>,
    proto: Proto,
    jam: Option<(AdversarySpec, f64)>,
    /// Trials of this cell per round.
    trials: u64,
    /// Re-run trial 0 under the other of Exact/Vectorized during checks.
    cross_check: bool,
}

/// What one trial leaves behind.
#[derive(Debug, Clone, Copy, Default)]
struct TrialOut {
    ms: f64,
    successes: u64,
    slots: u64,
    engine_nanos: u64,
    run_ns: u64,
    gap_slots: u64,
    parks: u64,
    reused: u64,
}

fn cell(
    name: String,
    tier: Tier,
    config: EngineConfig,
    jobs: Vec<JobSpec>,
    proto: Proto,
    jam: Option<(AdversarySpec, f64)>,
    trials: u64,
) -> Cell {
    Cell {
        name,
        tier,
        config,
        jobs,
        proto,
        jam,
        trials,
        cross_check: false,
    }
}

/// The cells of `exact-sweep` (after E7, E10 and E17). All cells run
/// `Exact` + `EventDriven`; trials take roughly 1–20 ms.
fn exact_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    let stress = Some((AdversarySpec::Policy(JamPolicy::AllSuccesses), 0.5));
    // Trials per round are set so that the round's median op lies inside
    // the PUNCTUAL / w=2^11 cluster (about 2 ms) and its p90 inside the
    // w=2^12 cluster, away from the gaps between clusters; sub-millisecond
    // trials are kept few because they are the most sensitive to other
    // tenants on a shared machine. A short round gives each op many
    // repeats, so its fastest few (`pct::quiet`) still meet quiet moments
    // when the machine is busy.
    for (class, trials) in [(13u32, 6u64), (12, 12), (11, 32), (10, 12)] {
        let w = 1u64 << class;
        cells.push(cell(
            format!("aligned,w=2^{class}"),
            Tier::Exact,
            EngineConfig::aligned(),
            generators::batch((w / 16) as usize, w).jobs,
            Proto::Aligned { class },
            stress,
            trials,
        ));
    }
    // PUNCTUAL on Poisson arrivals thinned to 1/16-slack feasibility. The
    // four instances come from a fixed seed, not `--seed`: one instance
    // can cost three times another, and every run should do the same
    // amount of work. Trial seeds still follow `--seed`.
    for i in 0..4u64 {
        let mut rng = SeedSeq::new(0xE10).rng(StreamLabel::Workload, i);
        let raw = generators::poisson(0.02, 1 << 13, &[1 << 10, 1 << 12], &mut rng);
        cells.push(cell(
            format!("punctual,poisson#{i}"),
            Tier::Exact,
            EngineConfig::default(),
            generators::thin_to_feasible(raw, 1.0 / 16.0).jobs,
            Proto::Punctual,
            None,
            4,
        ));
    }
    let ge = Some((
        AdversarySpec::Bursty {
            p_enter: 0.01,
            p_exit: 0.1,
        },
        0.9,
    ));
    for proto in [Proto::Beb, Proto::Sawtooth] {
        cells.push(cell(
            format!("{proto:?},ge").to_lowercase(),
            Tier::Exact,
            EngineConfig::default(),
            generators::batch(64, 1 << 16).jobs,
            proto,
            ge,
            12,
        ));
    }
    cells
}

/// Cells that only the cross-fidelity check runs, untimed: kernel-eligible
/// protocols (UNIFORM one-shot, constant-p ALOHA) on exact-sweep's
/// Gilbert–Elliott batch. The timed exact-sweep cells are class or per-job
/// protocols, which take the exact path under `Vectorized` too, so they
/// could not show a kernel mismatch.
fn exact_check_cells() -> Vec<Cell> {
    let ge = Some((
        AdversarySpec::Bursty {
            p_enter: 0.01,
            p_exit: 0.1,
        },
        0.9,
    ));
    [
        ("uniform,ge", Proto::Uniform),
        ("aloha,ge", Proto::Aloha(1.0 / 256.0)),
    ]
    .into_iter()
    .map(|(name, proto)| Cell {
        cross_check: true,
        ..cell(
            name.to_string(),
            Tier::Exact,
            EngineConfig::default(),
            generators::batch(64, 1 << 16).jobs,
            proto,
            ge,
            0,
        )
    })
    .collect()
}

/// The cells of `aggregate-scale` (after E20 and E2): populations of
/// 10^4 to 10^5 jobs under the aggregate tiers.
fn aggregate_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    // A batch class shares one size estimate, so whether it fails decides
    // how long a trial runs (E20); the slot cap bounds the work a trial can
    // take on that luck.
    //
    // Trials per round (24 ops) place the round's median op inside the
    // ALIGNED n = 10^4 cluster (about 10 ms, ranks 29–67%) and its p90
    // inside the ALIGNED n = 10^5 cluster (about 120 ms, ranks 83–100%),
    // each at least 5× away from its neighbours, so neither percentile sits
    // on the edge between two cells. 24 ops × 5 quiet repeats leave more
    // than 10 samples beyond p90.
    for (n, cap, trials) in [(100_000u64, 1u64 << 18, 4), (10_000, 1 << 15, 9)] {
        let w = (n * 8).next_power_of_two();
        let class = w.trailing_zeros();
        let mut config = EngineConfig::aligned().cohort();
        config.max_slots = Some(cap);
        cells.push(cell(
            format!("aligned-classes,n={n}"),
            Tier::Classes,
            config,
            generators::batch(n as usize, w).jobs,
            Proto::Aligned { class },
            None,
            trials,
        ));
    }
    let n = 10_000u64;
    let w = ((n * 2).next_power_of_two() * 2 * ROUND_LEN).next_power_of_two();
    cells.push(cell(
        format!("punctual-classes,n={n}"),
        Tier::Classes,
        EngineConfig::default().cohort(),
        generators::batch(n as usize, w).jobs,
        Proto::Punctual,
        None,
        1,
    ));
    for (tier, config) in [
        (Tier::Cohort, EngineConfig::default().cohort()),
        (Tier::Kernel, EngineConfig::default().vectorized()),
    ] {
        let tag = if tier == Tier::Cohort {
            "cohort"
        } else {
            "kernel"
        };
        let mut uniform = cell(
            format!("uniform-{tag},n=100000"),
            tier,
            config.clone(),
            generators::batch(100_000, 1 << 18).jobs,
            Proto::Uniform,
            None,
            1,
        );
        let mut aloha = cell(
            format!("aloha-{tag},n=10000"),
            tier,
            config,
            generators::batch(10_000, 1 << 9).jobs,
            Proto::Aloha(1.0 / 4096.0),
            None,
            if tier == Tier::Cohort { 7 } else { 1 },
        );
        uniform.cross_check = tier == Tier::Kernel;
        aloha.cross_check = tier == Tier::Kernel;
        cells.push(uniform);
        cells.push(aloha);
    }
    cells
}

fn build_cells(aggregate: bool) -> Vec<Cell> {
    let _s = span("workloads.instance");
    if aggregate {
        aggregate_cells()
    } else {
        exact_cells()
    }
}

/// Run one trial of `cell` under `config` from `seed`.
fn run_trial(cell: &Cell, config: &EngineConfig, seed: u64) -> (TrialOut, SimReport) {
    let start = Instant::now();
    let reuses = Engine::arena_reuses();
    let mut engine = {
        let _s = span("engine.build");
        let mut engine = Engine::new(config.clone(), seed);
        if let Some((adv, p_jam)) = cell.jam {
            engine.set_jammer(adv.jammer(p_jam));
        }
        engine.add_jobs(&cell.jobs, |_| cell.proto.instance());
        engine
    };
    let reused = Engine::arena_reuses() - reuses;
    let run_start = Instant::now();
    let report = {
        let _s = span(cell.tier.span());
        engine.run()
    };
    let run_ns = run_start.elapsed().as_nanos() as u64;
    drop(engine);
    let out = TrialOut {
        ms: start.elapsed().as_secs_f64() * 1e3,
        successes: report.successes() as u64,
        slots: report.slots_run,
        engine_nanos: report.engine_nanos,
        run_ns,
        gap_slots: report.sched_stats.gap_slots,
        parks: report.sched_stats.parks,
        reused,
    };
    (out, report)
}

/// The op list of one round: `(cell, trial-of-cell)` in cell order.
fn round_ops(cells: &[Cell]) -> Vec<usize> {
    cells
        .iter()
        .enumerate()
        .flat_map(|(i, c)| std::iter::repeat_n(i, c.trials as usize))
        .collect()
}

/// Run one round as one runner batch.
fn run_round(cells: &[Cell], ops: &[usize], seed: u64) -> (Vec<TrialOut>, RunStats) {
    let (outs, stats) = run_trials_ctl(
        ops.len() as u64,
        seed,
        |t, trial_seed| {
            let cell = &cells[ops[t as usize]];
            run_trial(cell, &cell.config, trial_seed).0
        },
        |_, _| {},
        &CancelToken::new(),
    )
    .expect("a sweep trial panicked");
    (outs.into_iter().map(|o| o.value).collect(), stats)
}

/// The observables every fidelity tier must reproduce bit-for-bit
/// (outcomes, slot counts, accesses, slots run, jam accounting), as JSON.
/// Scheduling diagnostics and wall-clock fields legitimately differ.
fn physics_json(r: &SimReport) -> String {
    use serde::Serialize;
    let v = serde::Value::Array(vec![
        r.outcomes().to_vec().to_value(),
        r.counts.to_value(),
        r.accesses.to_value(),
        r.slots_run.to_value(),
        r.jam_stats.to_value(),
    ]);
    serde_json::to_string(&v).expect("serialize report observables")
}

/// Timed-phase results: every trial, in round order.
struct Phase {
    wall: Duration,
    outs: Vec<TrialOut>,
    runner_wall: Duration,
    executed: u64,
}

fn timed_phase(cells: &[Cell], ops: &[usize], seed: u64, rounds: u64) -> Phase {
    let executed = slots_executed_total();
    let mut outs = Vec::with_capacity(ops.len() * rounds as usize);
    let mut runner_wall = Duration::ZERO;
    let start = Instant::now();
    for _ in 0..rounds {
        let (o, stats) = run_round(cells, ops, seed);
        runner_wall += stats.wall;
        outs.extend(o);
    }
    Phase {
        wall: start.elapsed(),
        outs,
        runner_wall,
        executed: slots_executed_total() - executed,
    }
}

/// Ops of `phase` that differ from their warm-up twin.
fn mismatches(phase: &Phase, warm: &[TrialOut]) -> u64 {
    phase
        .outs
        .iter()
        .zip(warm.iter().cycle())
        .filter(|(a, b)| (a.successes, a.slots) != (b.successes, b.slots))
        .count() as u64
}

/// Run `exact-sweep` (`aggregate == false`) or `aggregate-scale`.
pub fn run(args: &Args, aggregate: bool) -> Outcome {
    let mut out = Outcome::default();
    let seed = SeedSeq::new(args.seed).derive(StreamLabel::Trial, 0xBE7C);

    // Set-up, repeated: inputs, then the untimed warm-up round.
    let mut warm: Vec<Vec<TrialOut>> = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..crate::SETUPS {
        let start = Instant::now();
        trace::enable(args.trace);
        cells = build_cells(aggregate);
        trace::enable(false);
        let ops = round_ops(&cells);
        warm.push(run_round(&cells, &ops, seed).0);
        out.setup_s.push(start.elapsed().as_secs_f64());
    }
    let ops = round_ops(&cells);
    let round_secs = if aggregate {
        AGGREGATE_ROUND_SECS
    } else {
        EXACT_ROUND_SECS
    };
    let rounds = ((args.seconds / round_secs).round() as u64).max(1);

    let plain = timed_phase(&cells, &ops, seed, rounds);
    out.host_s = plain.wall.as_secs_f64();
    out.op_ms = plain.outs.iter().map(|o| o.ms).collect();
    out.per_round = ops.len();
    out.slots = plain.outs.iter().map(|o| o.slots).sum();
    out.attempted = plain.outs.len() as u64;
    out.failed = mismatches(&plain, &warm[0]);
    for w in &warm[1..] {
        out.attempted += 1;
        let agree = w
            .iter()
            .zip(&warm[0])
            .all(|(a, b)| (a.successes, a.slots) == (b.successes, b.slots));
        if !agree {
            out.note("warm-up passes disagree between set-ups");
            out.failed += 1;
        }
    }
    out.note(&format!(
        "{} cells, {} ops per round, {rounds} rounds",
        cells.len(),
        ops.len(),
    ));
    for (i, c) in cells.iter().enumerate() {
        let mine: Vec<&TrialOut> = ops
            .iter()
            .zip(&plain.outs)
            .filter(|(&o, _)| o == i)
            .map(|(_, t)| t)
            .collect();
        let ms: f64 = mine.iter().map(|t| t.ms).sum::<f64>() / mine.len().max(1) as f64;
        let slots: u64 = mine.iter().map(|t| t.slots).sum();
        out.note(&format!(
            "cell {:<24} {} jobs, {} trials/round, {ms:.2} ms/trial, {slots} slots/round",
            c.name,
            c.jobs.len(),
            c.trials
        ));
    }

    // Sampled cross-fidelity check: Vectorized must be byte-identical to
    // Exact on one trial of each marked cell.
    let extra = if aggregate {
        Vec::new()
    } else {
        exact_check_cells()
    };
    for (k, c) in cells.iter().chain(&extra).enumerate() {
        if !c.cross_check {
            continue;
        }
        let seed_of = SeedSeq::new(seed).trial(k as u64).master();
        let mut other = c.config.clone();
        other.fidelity = match other.fidelity {
            Fidelity::Vectorized => Fidelity::Exact,
            _ => Fidelity::Vectorized,
        };
        let a = physics_json(&run_trial(c, &c.config, seed_of).1);
        let b = physics_json(&run_trial(c, &other, seed_of).1);
        out.attempted += 1;
        if a != b {
            out.failed += 1;
            out.note(&format!("{}: Vectorized and Exact reports differ", c.name));
        }
    }

    if args.trace {
        trace::enable(true);
        let traced = timed_phase(&cells, &ops, seed, rounds);
        trace::enable(false);
        let slots: u64 = traced.outs.iter().map(|o| o.slots).sum();
        out.attempted += 1;
        if slots != out.slots {
            out.failed += 1;
            out.note("traced phase simulated a different number of slots");
        }
        out.attempted += traced.outs.len() as u64;
        out.failed += mismatches(&traced, &warm[0]);
        layer_metrics(&mut out, &traced);
        out.traced_op_ms = traced.outs.iter().map(|o| o.ms).collect();
    }
    out
}

fn layer_metrics(out: &mut Outcome, p: &Phase) {
    let workers = crate::RUNNER_WORKERS;
    let trials = p.outs.len().max(1) as f64;
    let slots: u64 = p.outs.iter().map(|o| o.slots).sum();
    let run_ns: u64 = p.outs.iter().map(|o| o.run_ns).sum();
    let loop_ns: u64 = p.outs.iter().map(|o| o.engine_nanos).sum();
    let trial_ms: f64 = p.outs.iter().map(|o| o.ms).sum();
    let runner_ms = p.runner_wall.as_secs_f64() * 1e3;

    out.layer(
        "workloads.instance_ms",
        trace::mean_ms("workloads.instance"),
    );
    out.layer("engine.build_ms", trace::mean_ms("engine.build"));
    let run_total: f64 = Tier::ALL.iter().map(|t| trace::total_ms(t.span()).0).sum();
    out.layer("engine.run_ms", run_total / trials);
    for t in Tier::ALL {
        out.layer(t.metric(), trace::mean_ms(t.span()));
    }
    out.layer("engine.loop_share", ratio(loop_ns as f64, run_ns as f64));
    out.layer("engine.slots", slots as f64);
    out.layer(
        "engine.executed_frac",
        ratio(p.executed as f64, slots as f64),
    );
    let gaps: u64 = p.outs.iter().map(|o| o.gap_slots).sum();
    out.layer("engine.gap_fraction", ratio(gaps as f64, slots as f64));
    let parks: u64 = p.outs.iter().map(|o| o.parks).sum();
    out.layer("engine.parks", parks as f64);
    let reused: u64 = p.outs.iter().map(|o| o.reused).sum();
    out.layer("engine.arena_reuse_frac", reused as f64 / trials);
    out.layer("runner.wall_ms", runner_ms);
    out.layer(
        "runner.overhead_frac",
        1.0 - ratio(trial_ms, runner_ms * workers as f64),
    );
    out.layer("runner.workers", workers as f64);
}
