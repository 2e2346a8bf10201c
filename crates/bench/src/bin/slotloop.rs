//! Slot-loop throughput benchmark: dense polling vs event-driven parking.
//!
//! Runs a handful of large-window experiment-style workloads (the shapes
//! of E9, E10, and E17) under both [`Scheduling`] modes, cross-checks that
//! the reports agree (the equivalence the wake-hint contract promises),
//! and writes before/after slots-per-second plus speedups to
//! `BENCH_slotloop.json` at the workspace root.
//!
//! One additional row (`mode: "cohort"`) measures [`Fidelity::Cohort`] on
//! a 10⁵-job UNIFORM population. Cohort mode is statistically — not
//! bit- — equivalent to the exact path, so that row compares against the
//! exact engine under *event* scheduling (its `dense_slots_per_sec` field
//! holds the exact-fidelity event-mode rate) and cross-checks the success
//! fractions instead of the full reports.
//!
//! Two `mode: "vectorized"` rows measure [`Fidelity::Vectorized`]
//! (DESIGN.md §3f) against the exact engine on the same 10⁵-job UNIFORM
//! population and on a 10⁵-lane dense ALOHA population. Vectorized is
//! *bit-identical* to exact, so these rows assert full report equality
//! (outcomes, counts, accesses, slots run) before reporting the speedup;
//! as with the cohort row, `dense_slots_per_sec` holds the exact rate and
//! `event_slots_per_sec` the kernel rate.
//!
//! Two further `mode: "cohort"` rows measure the aggregate class profiles
//! (DESIGN.md §3g) on ALIGNED and PUNCTUAL batches at n = 10⁵ — exact vs
//! cohort fidelity, event scheduling on both sides, with a hard ≥ 5×
//! speedup floor — and two `mode: "cohort-only"` rows record single-rep
//! throughput plus peak RSS at n = 10⁶, where no exact baseline is
//! affordable (exact-side fields are zeroed there).
//!
//! Timing uses the engine's own `engine_nanos` (slot-loop wall time), so
//! setup and report assembly are excluded. Each configuration runs
//! `REPS` times per mode and the fastest rep is kept — standard practice
//! for throughput floors on a shared machine.
//!
//! One `mode: "branch"` row measures checkpoint/branch-and-replay
//! (DESIGN.md §3j): an 8-way adversary sweep over a population whose cost
//! concentrates in a 75%-length shared prefix, run once through
//! `snapshot`/`restore` fan-out and once as 8 independent full runs —
//! both strictly sequential, so the speedup is pure prefix amortization
//! with no parallelism in the ratio. Every branched report must be
//! byte-identical to its independent twin, and the row asserts a ≥ 3×
//! wall-clock floor (the PR's acceptance gate).
//!
//! A final pass re-measures the two e10 Poisson rows with the workspace
//! telemetry registry armed ([`dcr_telemetry::install`]) and records the
//! armed/disarmed throughput ratio in those rows' `telemetry_parity`
//! field, asserting it stays within noise — the continuous proof of
//! dcr-telemetry's zero-cost contract on the engine hot path.

use dcr_baselines::{BinaryExponentialBackoff, FixedProbability, Sawtooth};
use dcr_bench::experiments::util::PersistentP;
use dcr_core::punctual::PunctualParams;
use dcr_core::uniform::Uniform;
use dcr_core::{AlignedParams, AlignedProtocol, PunctualProtocol};
use dcr_sim::engine::{Engine, EngineConfig, Fidelity, Protocol, Scheduling};
use dcr_sim::jamming::{AdversarySpec, JamPolicy};
use dcr_sim::job::JobSpec;
use dcr_sim::metrics::SimReport;
use dcr_workloads::generators::poisson;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

const REPS: usize = 3;
const SEED: u64 = 20200715; // SPAA'20 conference date

#[derive(Serialize)]
struct Row {
    workload: String,
    jobs: usize,
    slots_run: u64,
    /// `"exact"` rows compare dense vs event scheduling; the `"cohort"`
    /// and `"vectorized"` rows compare exact vs the named fidelity (same
    /// scheduling on both sides), with the exact rate in
    /// `dense_slots_per_sec` and the fast-path rate in
    /// `event_slots_per_sec`.
    mode: &'static str,
    dense_slots_per_sec: f64,
    event_slots_per_sec: f64,
    speedup: f64,
    // Event-driven scheduler counters (SimReport::sched_stats): attribute
    // the speedup — how many slots were fast-forwarded and how hard the
    // wake queue worked to earn it.
    gap_skips: u64,
    gap_slots: u64,
    skipped_fraction: f64,
    parks: u64,
    peak_parked: u64,
    /// Peak resident set (`VmHWM`) sampled right after this row's runs;
    /// 0 on non-Linux hosts. The kernel counter is a process-lifetime
    /// high-water mark, so it is **reset before each row** (writing `5`
    /// to `/proc/self/clear_refs`) to make the number attributable to
    /// the row alone; see `rss_scope` for whether the reset took.
    peak_rss_bytes: u64,
    /// `"row"` when the peak-RSS counter was successfully reset before
    /// this row's runs (the value is this row's own peak), or
    /// `"process_peak"` when the reset is unavailable (the value is the
    /// process-lifetime high-water mark up to this row, i.e. inflated by
    /// every earlier row).
    rss_scope: &'static str,
    /// Armed-vs-disarmed telemetry throughput ratio (armed / disarmed
    /// event-mode slots/sec), measured on the two e10 Poisson rows only
    /// (`null` elsewhere). This is dcr-telemetry's zero-cost contract as
    /// a number: arming the global registry must be within noise, and
    /// the bench asserts `>= 0.7` (the CI perf smoke's noise margin).
    telemetry_parity: Option<f64>,
}

/// Reset the kernel's peak-RSS high-water mark to the *current* RSS by
/// writing `5` to `/proc/self/clear_refs` (Linux ≥ 4.0). Returns whether
/// the reset took; on failure (non-Linux, restricted procfs) callers
/// fall back to reporting the process-lifetime peak, labeled as such.
fn reset_peak_rss() -> bool {
    cfg!(target_os = "linux") && std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Per-row RSS measurement: [`reset_peak_rss`] before the row's runs,
/// sample `VmHWM` after. `finish()` yields the sampled bytes plus the
/// `rss_scope` label recording whether the reset succeeded.
struct RssProbe {
    scoped: bool,
}

impl RssProbe {
    fn start() -> Self {
        Self {
            scoped: reset_peak_rss(),
        }
    }

    fn finish(self) -> (u64, &'static str) {
        let scope = if self.scoped { "row" } else { "process_peak" };
        (peak_rss_bytes(), scope)
    }
}

/// Read the process peak resident set from `/proc/self/status` (`VmHWM`,
/// reported in kB). Returns 0 when the file or field is unavailable
/// (non-Linux hosts).
fn peak_rss_bytes() -> u64 {
    if cfg!(target_os = "linux") {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
    }
    0
}

#[derive(Serialize)]
struct Bench {
    generated_by: &'static str,
    seed: u64,
    reps: usize,
    rows: Vec<Row>,
}

type ProtocolFactory = Box<dyn Fn() -> Box<dyn Protocol>>;

struct Workload {
    name: String,
    jobs: Vec<(JobSpec, ProtocolFactory)>,
    /// Base engine config (scheduling/fidelity overridden per run);
    /// ALIGNED workloads need the shared-clock config.
    config: EngineConfig,
}

fn punctual_batch(n: u32, window: u64) -> Workload {
    let params = PunctualParams::laptop();
    Workload {
        name: format!("e9-punctual-batch n={n} w=2^{}", window.trailing_zeros()),
        jobs: (0..n)
            .map(|i| {
                let spec = JobSpec::new(i, 0, window);
                let f: ProtocolFactory = Box::new(move || Box::new(PunctualProtocol::new(params)));
                (spec, f)
            })
            .collect(),
        config: EngineConfig::default(),
    }
}

fn poisson_specs(rate: f64, horizon: u64, windows: &[u64]) -> Vec<JobSpec> {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    poisson(rate, horizon, windows, &mut rng).jobs
}

fn poisson_punctual(rate: f64, horizon: u64) -> Workload {
    let params = PunctualParams::laptop();
    let specs = poisson_specs(rate, horizon, &[1 << 12, 1 << 14]);
    Workload {
        name: format!(
            "e10-punctual-poisson rate={rate} horizon=2^{}",
            horizon.trailing_zeros()
        ),
        jobs: specs
            .into_iter()
            .map(|spec| {
                let f: ProtocolFactory = Box::new(move || Box::new(PunctualProtocol::new(params)));
                (spec, f)
            })
            .collect(),
        config: EngineConfig::default(),
    }
}

fn poisson_uniform(rate: f64, horizon: u64) -> Workload {
    let specs = poisson_specs(rate, horizon, &[1 << 14, 1 << 16]);
    Workload {
        name: format!(
            "e10-uniform-poisson rate={rate} horizon=2^{}",
            horizon.trailing_zeros()
        ),
        jobs: specs
            .into_iter()
            .map(|spec| {
                let f: ProtocolFactory = Box::new(|| Box::new(Uniform::single()));
                (spec, f)
            })
            .collect(),
        config: EngineConfig::default(),
    }
}

fn backoff_mix(n: u32, window: u64) -> Workload {
    Workload {
        name: format!("e17-backoff-mix n={n} w=2^{}", window.trailing_zeros()),
        jobs: (0..n)
            .map(|i| {
                let release = u64::from(i) * 97 % (window / 4);
                let spec = JobSpec::new(i, release, release + window);
                let f: ProtocolFactory = if i % 2 == 0 {
                    Box::new(|| Box::new(Sawtooth::new()))
                } else {
                    Box::new(|| Box::new(BinaryExponentialBackoff::new()))
                };
                (spec, f)
            })
            .collect(),
        config: EngineConfig::default(),
    }
}

fn run_mode(w: &Workload, scheduling: Scheduling, fidelity: Fidelity) -> SimReport {
    let config = EngineConfig {
        scheduling,
        fidelity,
        ..w.config.clone()
    };
    let mut engine = Engine::new(config, SEED);
    for (spec, factory) in &w.jobs {
        engine.add_job(*spec, factory());
    }
    engine.run()
}

/// Fastest slots/sec over `REPS` runs; also returns the last report for
/// the cross-check.
fn best_rate(w: &Workload, scheduling: Scheduling, fidelity: Fidelity) -> (f64, SimReport) {
    best_rate_n(w, scheduling, fidelity, REPS)
}

/// Like [`best_rate`] but with an explicit rep count — the slow exact
/// baselines of the aggregate rows run once to keep the bench's wall
/// time sane.
fn best_rate_n(
    w: &Workload,
    scheduling: Scheduling,
    fidelity: Fidelity,
    reps: usize,
) -> (f64, SimReport) {
    let mut best = 0.0f64;
    let mut last = None;
    for _ in 0..reps {
        let report = run_mode(w, scheduling, fidelity);
        let secs = report.engine_nanos as f64 / 1e9;
        if secs > 0.0 {
            best = best.max(report.slots_run as f64 / secs);
        }
        last = Some(report);
    }
    (best, last.expect("REPS >= 1"))
}

/// The cohort showcase: a population far beyond what per-job simulation
/// sweeps comfortably, shaped like experiment E2's UNIFORM batches.
fn uniform_cohort(n: u32, window: u64) -> Workload {
    Workload {
        name: format!("e2-uniform-cohort n={n} w=2^{}", window.trailing_zeros()),
        jobs: (0..n)
            .map(|i| {
                let spec = JobSpec::new(i, 0, window);
                let f: ProtocolFactory = Box::new(|| Box::new(Uniform::single()));
                (spec, f)
            })
            .collect(),
        config: EngineConfig::default(),
    }
}

/// An ALIGNED batch: `n` jobs sharing one class-`c` window (w = 2^c),
/// the population shape of experiment E20's scale sweep. Needs the
/// shared-clock engine config.
fn aligned_batch(n: u32, class: u32) -> Workload {
    let window = 1u64 << class;
    let params = AlignedParams::new(1, 2, class);
    Workload {
        name: format!("e20-aligned-batch n={n} w=2^{class}"),
        jobs: (0..n)
            .map(|i| {
                let spec = JobSpec::new(i, 0, window);
                let f: ProtocolFactory = Box::new(move || Box::new(AlignedProtocol::new(params)));
                (spec, f)
            })
            .collect(),
        config: EngineConfig::aligned(),
    }
}

/// A PUNCTUAL batch at aggregate scale, named for E20 to distinguish it
/// from the small exact-mode `e9-punctual-batch` row.
fn punctual_scale_batch(n: u32, window: u64) -> Workload {
    let mut w = punctual_batch(n, window);
    w.name = format!("e20-punctual-batch n={n} w=2^{}", window.trailing_zeros());
    w
}

/// A dense ALOHA population: one Bernoulli bucket of `n` lanes polled
/// every slot — the workload the kernel's 64-lane word pass targets.
fn aloha_lanes(n: u32, window: u64) -> Workload {
    let p = 2.0 / window as f64;
    Workload {
        name: format!("e1-aloha-lanes n={n} w=2^{}", window.trailing_zeros()),
        jobs: (0..n)
            .map(|i| {
                let spec = JobSpec::new(i, 0, window);
                let f: ProtocolFactory = Box::new(move || Box::new(FixedProbability::new(p)));
                (spec, f)
            })
            .collect(),
        config: EngineConfig::default(),
    }
}

/// The branch-and-replay showcase: a population whose simulation cost
/// concentrates in the shared prefix. 512 ALOHA stations live exactly for
/// the 75%-length prefix and expire at its boundary; 4 persistent control
/// probes span the whole window, keeping the suffix live (and the
/// scheduler dense) at a small fraction of the prefix's per-slot cost.
fn branch_decay(window: u64) -> Workload {
    let prefix = window / 4 * 3;
    let mut jobs: Vec<(JobSpec, ProtocolFactory)> = (0..512u32)
        .map(|i| {
            let spec = JobSpec::new(i, 0, prefix);
            let f: ProtocolFactory = Box::new(|| Box::new(FixedProbability::new(0.002)));
            (spec, f)
        })
        .collect();
    for i in 512..516u32 {
        let spec = JobSpec::new(i, 0, window);
        let f: ProtocolFactory = Box::new(|| Box::new(PersistentP(0.01)));
        jobs.push((spec, f));
    }
    Workload {
        name: format!("branch-decay n=516 w=2^{}", window.trailing_zeros()),
        jobs,
        config: EngineConfig::default(),
    }
}

fn main() {
    let workloads = vec![
        punctual_batch(48, 1 << 14),
        poisson_punctual(0.02, 1 << 17),
        poisson_uniform(0.02, 1 << 17),
        backoff_mix(64, 1 << 16),
    ];

    let mut rows = Vec::new();
    for w in &workloads {
        let rss = RssProbe::start();
        let (dense_rate, dense_report) = best_rate(w, Scheduling::Dense, Fidelity::Exact);
        let (event_rate, event_report) = best_rate(w, Scheduling::EventDriven, Fidelity::Exact);

        // The speedup is only meaningful if the modes agree.
        assert_eq!(
            dense_report.outcomes(),
            event_report.outcomes(),
            "{}: modes disagree on outcomes",
            w.name
        );
        assert_eq!(
            dense_report.counts, event_report.counts,
            "{}: modes disagree on slot counts",
            w.name
        );

        let speedup = if dense_rate > 0.0 {
            event_rate / dense_rate
        } else {
            f64::NAN
        };
        let sched = event_report.sched_stats;
        let skipped_fraction = sched.skipped_fraction(event_report.slots_run);
        let (rss_bytes, rss_scope) = rss.finish();
        println!(
            "{:48} jobs={:4} slots={:8}  dense {:>12.0}/s  event {:>12.0}/s  speedup {:5.2}x  \
             (skipped {:.0}% in {} gaps, {} parks, peak {})",
            w.name,
            w.jobs.len(),
            event_report.slots_run,
            dense_rate,
            event_rate,
            speedup,
            skipped_fraction * 100.0,
            sched.gap_skips,
            sched.parks,
            sched.peak_parked
        );
        rows.push(Row {
            workload: w.name.clone(),
            jobs: w.jobs.len(),
            slots_run: event_report.slots_run,
            mode: "exact",
            dense_slots_per_sec: dense_rate,
            event_slots_per_sec: event_rate,
            speedup,
            gap_skips: sched.gap_skips,
            gap_slots: sched.gap_slots,
            skipped_fraction,
            parks: sched.parks,
            peak_parked: sched.peak_parked,
            peak_rss_bytes: rss_bytes,
            rss_scope,
            telemetry_parity: None,
        });
    }

    // Cohort row: exact vs cohort fidelity, both event-driven (dense
    // polling of 10^5 jobs would take minutes and prove nothing new).
    {
        let w = uniform_cohort(100_000, 1 << 19);
        let rss = RssProbe::start();
        let (exact_rate, exact_report) = best_rate(&w, Scheduling::EventDriven, Fidelity::Exact);
        let (cohort_rate, cohort_report) = best_rate(&w, Scheduling::EventDriven, Fidelity::Cohort);
        // Statistical cross-check: at n = 10^5 the success fraction's
        // sampling noise is ~0.2%, so a 2% band is a dozen sigma wide
        // while still catching any modelling error.
        let (ef, cf) = (
            exact_report.success_fraction(),
            cohort_report.success_fraction(),
        );
        assert!(
            (ef - cf).abs() < 0.02,
            "{}: cohort success fraction {cf:.4} vs exact {ef:.4}",
            w.name
        );
        let speedup = if exact_rate > 0.0 {
            cohort_rate / exact_rate
        } else {
            f64::NAN
        };
        let sched = cohort_report.sched_stats;
        let (rss_bytes, rss_scope) = rss.finish();
        println!(
            "{:48} jobs={:4} slots={:8}  exact {:>12.0}/s  cohort {:>11.0}/s  speedup {:5.2}x  \
             (success {:.3} vs {:.3})",
            w.name,
            w.jobs.len(),
            cohort_report.slots_run,
            exact_rate,
            cohort_rate,
            speedup,
            cf,
            ef,
        );
        rows.push(Row {
            workload: w.name.clone(),
            jobs: w.jobs.len(),
            slots_run: cohort_report.slots_run,
            mode: "cohort",
            dense_slots_per_sec: exact_rate,
            event_slots_per_sec: cohort_rate,
            speedup,
            gap_skips: sched.gap_skips,
            gap_slots: sched.gap_slots,
            skipped_fraction: sched.skipped_fraction(cohort_report.slots_run),
            parks: sched.parks,
            peak_parked: sched.peak_parked,
            peak_rss_bytes: rss_bytes,
            rss_scope,
            telemetry_parity: None,
        });
    }

    // Vectorized rows: exact vs vectorized fidelity under identical
    // scheduling, gated on full bit-identity of the reports.
    for (w, scheduling, sched_name) in [
        (
            uniform_cohort(100_000, 1 << 19),
            Scheduling::EventDriven,
            "event",
        ),
        (aloha_lanes(100_000, 1 << 11), Scheduling::Dense, "dense"),
    ] {
        let rss = RssProbe::start();
        let (exact_rate, exact_report) = best_rate(&w, scheduling, Fidelity::Exact);
        let (vector_rate, vector_report) = best_rate(&w, scheduling, Fidelity::Vectorized);
        assert_eq!(
            exact_report.outcomes(),
            vector_report.outcomes(),
            "{}: vectorized outcomes diverge from exact",
            w.name
        );
        assert_eq!(
            exact_report.counts, vector_report.counts,
            "{}: vectorized slot counts diverge from exact",
            w.name
        );
        assert_eq!(
            exact_report.accesses, vector_report.accesses,
            "{}: vectorized access counts diverge from exact",
            w.name
        );
        assert_eq!(
            exact_report.slots_run, vector_report.slots_run,
            "{}: vectorized slots_run diverges from exact",
            w.name
        );
        let speedup = if exact_rate > 0.0 {
            vector_rate / exact_rate
        } else {
            f64::NAN
        };
        let sched = vector_report.sched_stats;
        let (rss_bytes, rss_scope) = rss.finish();
        println!(
            "{:48} jobs={:4} slots={:8}  exact {:>12.0}/s  vector {:>11.0}/s  speedup {:5.2}x  ({sched_name})",
            w.name,
            w.jobs.len(),
            vector_report.slots_run,
            exact_rate,
            vector_rate,
            speedup,
        );
        rows.push(Row {
            workload: w.name.clone(),
            jobs: w.jobs.len(),
            slots_run: vector_report.slots_run,
            mode: "vectorized",
            dense_slots_per_sec: exact_rate,
            event_slots_per_sec: vector_rate,
            speedup,
            gap_skips: sched.gap_skips,
            gap_slots: sched.gap_slots,
            skipped_fraction: sched.skipped_fraction(vector_report.slots_run),
            parks: sched.parks,
            peak_parked: sched.peak_parked,
            peak_rss_bytes: rss_bytes,
            rss_scope,
            telemetry_parity: None,
        });
    }

    // Aggregate-class rows (mode "cohort"): exact vs [`Fidelity::Cohort`]
    // on the ALIGNED and PUNCTUAL batch shapes of E20, both event-driven.
    // A batch shares one class, so per-trial success fractions cluster
    // (one size estimate, one leader fate per trial) — the statistical
    // equivalence claim lives in the conformance matrix's law-level
    // column (tests/cohort_equivalence.rs) and E20's
    // anchor cells; here a loose band only catches gross modelling breaks
    // while the row measures throughput. The exact baseline runs once (it
    // is the slow side being replaced); the aggregate side keeps REPS.
    for w in [
        aligned_batch(100_000, 20),
        punctual_scale_batch(100_000, 1 << 16),
    ] {
        let rss = RssProbe::start();
        let (exact_rate, exact_report) =
            best_rate_n(&w, Scheduling::EventDriven, Fidelity::Exact, 1);
        let (cohort_rate, cohort_report) = best_rate(&w, Scheduling::EventDriven, Fidelity::Cohort);
        let (ef, cf) = (
            exact_report.success_fraction(),
            cohort_report.success_fraction(),
        );
        assert!(
            (ef - cf).abs() < 0.15,
            "{}: cohort success fraction {cf:.4} vs exact {ef:.4}",
            w.name
        );
        let speedup = if exact_rate > 0.0 {
            cohort_rate / exact_rate
        } else {
            0.0
        };
        // The acceptance floor for the aggregate path: >= 5x the exact
        // engine's slot rate at n = 10^5. A ratio on the same machine, so
        // safe to assert even on slow CI hosts.
        assert!(
            speedup >= 5.0,
            "{}: aggregate speedup {speedup:.2}x is below the 5x floor",
            w.name
        );
        let sched = cohort_report.sched_stats;
        let (rss_bytes, rss_scope) = rss.finish();
        println!(
            "{:48} jobs={:6} slots={:8}  exact {:>12.0}/s  cohort {:>11.0}/s  speedup {:5.1}x  \
             (success {:.3} vs {:.3})",
            w.name,
            w.jobs.len(),
            cohort_report.slots_run,
            exact_rate,
            cohort_rate,
            speedup,
            cf,
            ef,
        );
        rows.push(Row {
            workload: w.name.clone(),
            jobs: w.jobs.len(),
            slots_run: cohort_report.slots_run,
            mode: "cohort",
            dense_slots_per_sec: exact_rate,
            event_slots_per_sec: cohort_rate,
            speedup,
            gap_skips: sched.gap_skips,
            gap_slots: sched.gap_slots,
            skipped_fraction: sched.skipped_fraction(cohort_report.slots_run),
            parks: sched.parks,
            peak_parked: sched.peak_parked,
            peak_rss_bytes: rss_bytes,
            rss_scope,
            telemetry_parity: None,
        });
    }

    // Million-job rows (mode "cohort-only"): single-rep aggregate
    // throughput and peak RSS at n = 10^6 — the regime the aggregate path
    // exists for. No exact baseline (it would dominate the bench's wall
    // time for a number the n = 10^5 rows already establish), so the
    // exact-side fields are zeroed and no speedup is claimed. Windows are
    // comfortably feasible (ALIGNED slack ~16; PUNCTUAL per the round-
    // structure law of E20) so the delivered fraction doubles as a smoke
    // signal, though it is not asserted: ALIGNED's whole-class estimate
    // catastrophe fails ~1 trial in 6 at any n and would make an assert
    // here seed-roulette.
    for w in [
        aligned_batch(1_000_000, 24),
        punctual_scale_batch(1_000_000, 1 << 28),
    ] {
        let rss = RssProbe::start();
        let (rate, report) = best_rate_n(&w, Scheduling::EventDriven, Fidelity::Cohort, 1);
        let sched = report.sched_stats;
        let (rss_bytes, rss_scope) = rss.finish();
        println!(
            "{:48} jobs={:7} slots={:8}  cohort {:>11.0}/s  success {:.3}  peak-rss {} MiB",
            w.name,
            w.jobs.len(),
            report.slots_run,
            rate,
            report.success_fraction(),
            rss_bytes / (1 << 20),
        );
        rows.push(Row {
            workload: w.name.clone(),
            jobs: w.jobs.len(),
            slots_run: report.slots_run,
            mode: "cohort-only",
            dense_slots_per_sec: 0.0,
            event_slots_per_sec: rate,
            speedup: 0.0,
            gap_skips: sched.gap_skips,
            gap_slots: sched.gap_slots,
            skipped_fraction: sched.skipped_fraction(report.slots_run),
            parks: sched.parks,
            peak_parked: sched.peak_parked,
            peak_rss_bytes: rss_bytes,
            rss_scope,
            telemetry_parity: None,
        });
    }

    // Branch row (mode "branch"): checkpoint/branch-and-replay as a
    // throughput claim. An 8-way adversary sweep over a decaying
    // population — 512 ALOHA stations whose windows end exactly at the
    // 75% prefix boundary plus 4 persistent probes that keep the suffix
    // live — priced once through snapshot/restore fan-out and once as 8
    // uninterrupted full runs. Both paths run strictly sequentially on
    // this thread: the ratio is prefix amortization, not parallelism.
    {
        let window = 1u64 << 15;
        let prefix = window / 4 * 3;
        let w = branch_decay(window);
        let branches: Vec<(AdversarySpec, f64)> = (0..8)
            .map(|i| {
                (
                    AdversarySpec::Policy(JamPolicy::AllSuccesses),
                    f64::from(i) / 8.0,
                )
            })
            .collect();
        let base = AdversarySpec::Policy(JamPolicy::Never);
        let build = || {
            let mut e = Engine::new(w.config.clone(), SEED);
            for (spec, factory) in &w.jobs {
                e.add_job(*spec, factory());
            }
            e.set_jammer(base.jammer(0.0));
            e
        };
        // Byte-identity modulo the wall-clock field (volatile by contract).
        let canon = |r: &SimReport| {
            let mut c = r.clone();
            c.engine_nanos = 0;
            serde_json::to_string(&c).expect("serialize report")
        };
        let rss = RssProbe::start();
        let mut best_branched = f64::INFINITY;
        let mut best_indep = f64::INFINITY;
        let mut branched_reports = Vec::new();
        let mut branched_slots = 0u64;
        let mut indep_slots = 0u64;
        for _ in 0..REPS {
            // Branched path: one shared prefix + 8 restored suffixes.
            let t0 = std::time::Instant::now();
            let mut shared = build();
            let paused = shared.run_to(prefix);
            let ck = shared
                .snapshot()
                .expect("decay population is checkpointable");
            drop(shared);
            let reports: Vec<SimReport> = branches
                .iter()
                .map(|(adv, p_jam)| {
                    let mut e = build();
                    e.restore(&ck).expect("restore matches construction");
                    e.swap_adversary(adv.adversary(), *p_jam);
                    e.finish()
                })
                .collect();
            let branched_secs = t0.elapsed().as_secs_f64();
            assert_eq!(paused, prefix, "{}: probes keep the schedule dense", w.name);

            // Independent path: the same 8 suffixes, each paying for its
            // own prefix.
            let t1 = std::time::Instant::now();
            let indep: Vec<SimReport> = branches
                .iter()
                .map(|(adv, p_jam)| {
                    let mut e = build();
                    e.run_to(prefix);
                    e.swap_adversary(adv.adversary(), *p_jam);
                    e.finish()
                })
                .collect();
            let indep_secs = t1.elapsed().as_secs_f64();

            for (i, (b, u)) in reports.iter().zip(&indep).enumerate() {
                assert_eq!(
                    canon(b),
                    canon(u),
                    "{}: branch {i} diverges from its independent run",
                    w.name
                );
            }
            branched_slots = paused + reports.iter().map(|r| r.slots_run - paused).sum::<u64>();
            indep_slots = indep.iter().map(|r| r.slots_run).sum();
            best_branched = best_branched.min(branched_secs);
            best_indep = best_indep.min(indep_secs);
            branched_reports = reports;
        }
        let speedup = best_indep / best_branched;
        // The acceptance floor for branch-and-replay: an 8-way sweep over
        // a 75%-length shared prefix at least 3x faster than independent
        // runs. A same-machine, same-thread ratio, so safe to assert.
        assert!(
            speedup >= 3.0,
            "{}: 8-way branch speedup {speedup:.2}x is below the 3x floor",
            w.name
        );
        let last = branched_reports.last().expect("8 branches ran");
        let sched = last.sched_stats;
        let (rss_bytes, rss_scope) = rss.finish();
        println!(
            "{:48} jobs={:4} slots={:8}  indep {:>13.0}/s  branch {:>11.0}/s  speedup {:5.2}x  \
             ({} branched vs {} independent slots)",
            w.name,
            w.jobs.len(),
            last.slots_run,
            indep_slots as f64 / best_indep,
            indep_slots as f64 / best_branched,
            speedup,
            branched_slots,
            indep_slots,
        );
        rows.push(Row {
            workload: w.name.clone(),
            jobs: w.jobs.len(),
            slots_run: last.slots_run,
            mode: "branch",
            // Effective sweep throughput: the 8 logical full runs priced
            // by each path's wall time — independent in the dense field,
            // branched in the event field, per the row convention.
            dense_slots_per_sec: indep_slots as f64 / best_indep,
            event_slots_per_sec: indep_slots as f64 / best_branched,
            speedup,
            gap_skips: sched.gap_skips,
            gap_slots: sched.gap_slots,
            skipped_fraction: sched.skipped_fraction(last.slots_run),
            parks: sched.parks,
            peak_parked: sched.peak_parked,
            peak_rss_bytes: rss_bytes,
            rss_scope,
            telemetry_parity: None,
        });
    }

    // Telemetry parity: dcr-telemetry's zero-cost contract, measured.
    // Re-run the two e10 Poisson workloads' event-mode engines with
    // telemetry disarmed, then arm the process-global registry — an
    // irreversible OnceLock install, which is why this block runs after
    // every other measurement — and run them again. Back-to-back
    // measurement keeps machine drift out of the ratio; the 0.7 floor
    // matches the CI perf smoke's 30% noise margin.
    {
        let parity_workloads = [
            poisson_punctual(0.02, 1 << 17),
            poisson_uniform(0.02, 1 << 17),
        ];
        let disarmed: Vec<f64> = parity_workloads
            .iter()
            .map(|w| best_rate(w, Scheduling::EventDriven, Fidelity::Exact).0)
            .collect();
        dcr_telemetry::install();
        for (w, disarmed_rate) in parity_workloads.iter().zip(disarmed) {
            let (armed_rate, _) = best_rate(w, Scheduling::EventDriven, Fidelity::Exact);
            let parity = if disarmed_rate > 0.0 {
                armed_rate / disarmed_rate
            } else {
                f64::NAN
            };
            assert!(
                parity >= 0.7,
                "{}: armed telemetry costs more than noise (parity {parity:.3})",
                w.name
            );
            println!(
                "{:48} telemetry parity {parity:4.2}  \
                 (armed {armed_rate:>12.0}/s vs disarmed {disarmed_rate:>12.0}/s)",
                w.name
            );
            rows.iter_mut()
                .find(|r| r.workload == w.name && r.mode == "exact")
                .expect("e10 exact row exists")
                .telemetry_parity = Some(parity);
        }
    }

    let bench = Bench {
        generated_by: "cargo run --release -p dcr-bench --bin slotloop",
        seed: SEED,
        reps: REPS,
        rows,
    };
    let json = serde_json::to_string_pretty(&bench).expect("serialize");
    std::fs::write("BENCH_slotloop.json", json + "\n").expect("write BENCH_slotloop.json");
    println!("wrote BENCH_slotloop.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the monotone-RSS bug: `VmHWM` is a process-lifetime
    /// high-water mark, so without a reset every row reports the max over
    /// all rows so far. The probe must bring the reading back down after
    /// a large transient allocation — i.e. per-row peaks are attributable,
    /// not cumulative.
    #[test]
    fn rss_probe_resets_the_high_water_mark() {
        if !reset_peak_rss() {
            // Reset unsupported here: the probe must say so, so rows are
            // labeled process_peak rather than silently inflated.
            assert_eq!(RssProbe::start().finish().1, "process_peak");
            return;
        }

        // Row 1: a ~64 MiB transient spike (touched so it is resident).
        let spike_probe = RssProbe::start();
        let spike = vec![7u8; 64 << 20];
        assert!(spike.iter().step_by(4096).map(|&b| b as u64).sum::<u64>() > 0);
        let (spiked, scope) = spike_probe.finish();
        assert_eq!(scope, "row");
        drop(spike);

        // Row 2: no allocation. Under the old VmHWM-only sampling this
        // would still report row 1's spike; with the per-row reset it
        // must drop by most of the spike.
        let idle_probe = RssProbe::start();
        let (idle, scope) = idle_probe.finish();
        assert_eq!(scope, "row");
        assert!(
            idle + (32 << 20) < spiked,
            "peak RSS did not reset between rows: spike row {spiked} B, idle row {idle} B"
        );
    }
}
