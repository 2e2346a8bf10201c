//! `perfbench` — end-to-end and per-layer benchmark of the workspace.
//!
//! ```text
//! perfbench --workload <exact-sweep|aggregate-scale|service-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from `--seed`, checks its outputs, and prints every
//! metric with its unit and sample count, then one JSON result line. With
//! `--trace 1` the timed op list runs twice, untraced and then traced, and
//! the result carries the per-layer metrics instead (see README.md).

mod pct;
mod service;
mod sweep;
mod trace;

use dcr_bench::runspec::WorkloadSpec;
use dcr_bench::runspec::{self, ExperimentSpec, FidelitySpec, ProtocolSpec, SchedulingSpec};
use dcr_stats::Provenance;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. A set-up takes 0.2 s (exact-sweep)
/// to 1 s (aggregate-scale) and runs at the host speed of its moment, so
/// the median rests on several.
pub const SETUPS: usize = 9;

/// Runner worker threads, pinned rather than left to the runner's
/// `available_parallelism()` default. One: on a shared 2-vCPU machine the
/// second vCPU comes and goes for stretches of seconds, so a two-worker
/// round takes anywhere from 1× to 2× its best time, while one busy thread
/// at a time keeps within about 15%.
pub const RUNNER_WORKERS: usize = 1;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run leaves for the report.
#[derive(Default)]
pub struct Outcome {
    /// Duration of each set-up.
    pub setup_s: Vec<f64>,
    /// Latencies of the untraced timed list's ops, in list order.
    pub op_ms: Vec<f64>,
    /// Ops per round of the timed list; op `j` of every round repeats the
    /// same work.
    pub per_round: usize,
    /// Slots the untraced timed list simulated.
    pub slots: u64,
    /// Host-time duration of the untraced timed op list.
    pub host_s: f64,
    /// Latencies of the traced timed list's ops, in list order (traced runs
    /// only).
    pub traced_op_ms: Vec<f64>,
    /// Attempts: timed and traced ops, service warm-up cycles, and checks.
    pub attempted: u64,
    /// Attempts that errored or failed a check (at most one each).
    pub failed: u64,
    pub notes: Vec<String>,
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn note(&mut self, s: &str) {
        self.notes.push(s.to_string());
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every per-layer metric a traced run prints, with its unit. A layer the
/// workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.instance_ms", "ms"),
    ("engine.build_ms", "ms"),
    ("engine.run_ms", "ms"),
    ("engine.run_ms.exact", "ms"),
    ("engine.run_ms.cohort", "ms"),
    ("engine.run_ms.classes", "ms"),
    ("engine.run_ms.kernel", "ms"),
    ("engine.loop_share", "ratio"),
    ("engine.slots", "count"),
    ("engine.executed_frac", "ratio"),
    ("engine.gap_fraction", "ratio"),
    ("engine.parks", "count"),
    ("engine.arena_reuse_frac", "ratio"),
    ("runner.wall_ms", "ms"),
    ("runner.overhead_frac", "ratio"),
    ("runner.workers", "count"),
    ("checkpoint.branch_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("runspec.check_ms", "ms"),
    ("runspec.run_ms", "ms"),
    ("stats.provenance_ms", "ms"),
    ("stats.cache_key_ms", "ms"),
    ("stats.report_bytes", "bytes"),
    ("server.post_ms", "ms"),
    ("server.done_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.get_ms", "ms"),
    ("server.hit_ms", "ms"),
    ("server.hit_ratio", "ratio"),
    ("server.sse_frames", "count"),
    ("cache.bytes", "bytes"),
    ("cache.files", "count"),
    ("telemetry.scrape_ms", "ms"),
    ("telemetry.exposition_bytes", "bytes"),
    ("trace.overhead", "ratio"),
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <exact-sweep|aggregate-scale|service-mix> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        let bad = |what: &str| -> ! {
            eprintln!("error: bad {what} {value:?}");
            usage()
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad("--seed")),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| bad("--seconds"));
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    bad("--seconds");
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("--trace"),
                }
            }
            _ => usage(),
        }
    }
    args
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `Provenance::capture` and `runspec::cache_key` called directly.
/// Neither sits on a sweep workload's path; service-mix hashes every spec
/// but, with no `git` or `rustc` on its PATH, spawns nothing for
/// provenance.
fn stats_layers(out: &mut Outcome, seed: u64) {
    let calls = 5;
    let start = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(Provenance::capture());
    }
    out.layer(
        "stats.provenance_ms",
        start.elapsed().as_secs_f64() * 1e3 / f64::from(calls),
    );
    let spec = ExperimentSpec {
        protocol: ProtocolSpec::Beb,
        workload: WorkloadSpec::Batch { n: 16, w: 1024 },
        fidelity: FidelitySpec::Exact,
        scheduling: SchedulingSpec::EventDriven,
        adversary: None,
        probe: None,
        max_slots: None,
        seed,
        trials: 64,
    };
    let keys = 200;
    let start = Instant::now();
    for _ in 0..keys {
        std::hint::black_box(runspec::cache_key(std::hint::black_box(&spec), "perfbench"));
    }
    out.layer(
        "stats.cache_key_ms",
        start.elapsed().as_secs_f64() * 1e3 / f64::from(keys),
    );
}

fn main() {
    let args = parse_args();
    dcr_sim::runner::set_worker_override(Some(RUNNER_WORKERS));
    // Timed first, while the process still has its own PATH (service-mix
    // narrows it; see `service::run`).
    let mut stats = Outcome::default();
    if args.trace {
        stats_layers(&mut stats, args.seed);
    }
    let mut out = match args.workload.as_str() {
        "exact-sweep" => sweep::run(&args, false),
        "aggregate-scale" => sweep::run(&args, true),
        "service-mix" => service::run(&args),
        other => {
            eprintln!("error: unknown workload {other:?}");
            usage()
        }
    };
    let rss = peak_rss_mb();
    let quiet = pct::quiet(&out.op_ms, out.per_round);
    if args.trace {
        out.layers.append(&mut stats.layers);
        let traced = pct::quiet(&out.traced_op_ms, out.per_round);
        out.layer("trace.overhead", ratio(traced.wall_s, quiet.wall_s));
    }
    out.note(&format!(
        "the timed list took {:.3} s of host time; wall_s, slots_per_s and the \
         percentiles keep each op's {} fastest repeats",
        out.host_s,
        pct::QUIET_REPEATS
    ));

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);

    println!(
        "workload {} seed {} seconds {} trace {} runner_workers {} server_workers {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        RUNNER_WORKERS,
        service::SERVER_WORKERS,
        nproc
    );
    for n in &out.notes {
        println!("  note: {n}");
    }
    let (p50, p90) = match (
        pct::tail_quantile(&quiet.samples, 0.5),
        pct::tail_quantile(&quiet.samples, 0.9),
    ) {
        (Ok(p50), Ok(p90)) => (p50, p90),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}; run longer (--seconds) so the op list carries more ops");
            std::process::exit(1);
        }
    };
    let setup = pct::median(&out.setup_s);
    let ok_frac = 1.0 - ratio(out.failed as f64, out.attempted as f64);
    let mut metrics: Vec<(&str, f64, &str, String)> = Vec::new();
    if args.trace {
        for &(name, unit) in PER_LAYER {
            let v = out
                .layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            metrics.push((name, v, unit, String::new()));
        }
    } else {
        let n_ops = format!("ops={} samples={}", out.op_ms.len(), quiet.samples.len());
        metrics.extend([
            (
                "setup_s",
                setup,
                "s",
                format!(
                    "setups={} min={:.4} max={:.4}",
                    out.setup_s.len(),
                    out.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                    out.setup_s.iter().copied().fold(0.0, f64::max)
                ),
            ),
            ("wall_s", quiet.wall_s, "s", n_ops.clone()),
            (
                "slots_per_s",
                ratio(out.slots as f64, quiet.wall_s),
                "1/s",
                format!("slots={}", out.slots),
            ),
            ("op_p50_ms", p50, "ms", n_ops.clone()),
            ("op_p90_ms", p90, "ms", n_ops),
            ("peak_rss_mb", rss, "MiB", "samples=1".to_string()),
            (
                "ok_frac",
                ok_frac,
                "ratio",
                format!("attempted={} failed={}", out.attempted, out.failed),
            ),
        ]);
    }
    for (name, v, unit, n) in &metrics {
        println!("  {name:<28} {v:>16.6} {unit:<6} {n}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit, _)| format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(",")
    );
}
