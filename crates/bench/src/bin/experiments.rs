//! CLI entry point: regenerate the paper's figures and claim tables.
//!
//! ```text
//! experiments [IDS…] [--only ID[,ID…]] [--quick] [--seed N] [--trials N]
//!             [--threads N] [--out DIR] [--json DIR] [--probe DIR] [--list]
//! experiments --spec FILE [--json DIR]
//! ```
//!
//! With no ids, runs the full suite in order; `--only` selects experiments
//! explicitly (same as positional ids, comma lists accepted). Every run prints its seed;
//! re-running with `--seed` reproduces output bit-for-bit. `--out DIR`
//! additionally writes each experiment's report to `DIR/<id>.txt`;
//! `--json DIR` writes the structured artifact to `DIR/<id>.json` plus a
//! suite-level `BENCH_summary.json` (see EXPERIMENTS.md for the schema);
//! `--probe DIR` asks probe-aware experiments (E19) to also write trace
//! artifacts such as Perfetto JSON files there.
//!
//! `--spec FILE` bypasses the suite and runs one declarative
//! [`dcr_bench::runspec::ExperimentSpec`] from a JSON file — the exact
//! code path `dcr-server` executes for submitted experiments, so a spec
//! debugged here behaves identically when POSTed to the service. Prints
//! the cache key the server would use; with `--json DIR` also writes the
//! structured report to `DIR/spec-<key-prefix>.json`.

use dcr_bench::{run_experiment_report, ExpConfig, ALL_EXPERIMENTS};
use dcr_stats::report::SCHEMA_VERSION;
use dcr_stats::{ExperimentReport, Provenance};
use serde::Serialize;

/// One line of the suite-level summary: what ran and how it went.
#[derive(Serialize)]
struct SummaryEntry {
    experiment: String,
    title: String,
    rows: usize,
    checks_total: usize,
    checks_passed: usize,
    wall_secs: f64,
    slots_simulated: u64,
    slots_per_sec: f64,
}

/// `BENCH_summary.json`: one run of the suite, with provenance.
#[derive(Serialize)]
struct Summary {
    schema_version: u32,
    seed: u64,
    quick: bool,
    experiments: Vec<SummaryEntry>,
    all_checks_passed: bool,
    total_wall_secs: f64,
    total_slots_simulated: u64,
    slots_per_sec: f64,
    provenance: Provenance,
}

/// Exit with a usage error instead of a panic backtrace.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}; try --help");
    std::process::exit(2);
}

/// Exit cleanly on a filesystem failure, naming the path.
fn io_check<T>(what: &str, path: &std::path::Path, res: std::io::Result<T>) -> T {
    res.unwrap_or_else(|e| {
        eprintln!("error: {what} {}: {e}", path.display());
        std::process::exit(1);
    })
}

/// `--spec FILE`: parse, validate, and run one declarative spec through
/// the same `runspec` path the experiment server uses.
fn run_spec_file(path: &std::path::Path, json_dir: Option<&std::path::Path>) {
    use dcr_bench::runspec::{self, ExperimentSpec};

    let raw = io_check("cannot read", path, std::fs::read_to_string(path));
    let spec: ExperimentSpec = serde_json::from_str(&raw).unwrap_or_else(|e| {
        eprintln!(
            "error: {} is not a valid ExperimentSpec: {e:?}",
            path.display()
        );
        std::process::exit(2);
    });
    let key = runspec::cache_key(&spec, runspec::code_version());
    println!("spec: {}", spec.label());
    println!("cache key: {key}");

    let progress = |done: u64, total: u64| {
        eprintln!("  trials {done}/{total}");
    };
    let started = std::time::Instant::now();
    match runspec::run_spec_with(&spec, progress, &dcr_sim::CancelToken::new()) {
        Ok(out) => {
            println!("{}", out.text);
            println!(
                "[{} probe events, {:.1}s]",
                out.events.len(),
                started.elapsed().as_secs_f64()
            );
            if let Some(dir) = json_dir {
                let json =
                    serde_json::to_string_pretty(&out.report).expect("serialize experiment report");
                let file = dir.join(format!("spec-{}.json", &key[..16]));
                io_check("cannot write", &file, std::fs::write(&file, json));
                println!("wrote {}", file.display());
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExpConfig::full();
    let mut ids: Vec<String> = Vec::new();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut json_dir: Option<std::path::PathBuf> = None;
    let mut spec_file: Option<std::path::PathBuf> = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--spec" => {
                let v = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--spec needs a JSON file"));
                spec_file = Some(v.into());
            }
            "--out" => {
                let v = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--out needs a directory"));
                out_dir = Some(v.into());
            }
            "--json" => {
                let v = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--json needs a directory"));
                json_dir = Some(v.into());
            }
            "--probe" => {
                let v = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--probe needs a directory"));
                cfg.probe_dir = Some(v.into());
            }
            "--quick" => {
                cfg = ExpConfig {
                    quick: true,
                    trials: cfg.trials.min(60),
                    ..cfg
                };
            }
            "--seed" => {
                let v = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--seed needs a value"));
                cfg.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed must be an integer"));
            }
            "--trials" => {
                let v = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--trials needs a value"));
                cfg.trials = v
                    .parse()
                    .unwrap_or_else(|_| usage_error("--trials must be an integer"));
            }
            "--threads" => {
                // Pin the Monte-Carlo worker count (recorded in the
                // artifacts' provenance) so runs on heterogeneous CI
                // machines are comparable. Results never depend on it.
                let v = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--threads needs a value"));
                let n: usize = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage_error("--threads must be a positive integer"));
                dcr_sim::runner::set_worker_override(Some(n));
            }
            "--only" => {
                // Explicit selection flag (equivalent to positional ids;
                // accepts comma-separated lists for script friendliness).
                let v = iter
                    .next()
                    .unwrap_or_else(|| usage_error("--only needs an experiment id"));
                ids.extend(v.split(',').map(|s| s.trim().to_string()));
            }
            "--list" => {
                for id in ALL_EXPERIMENTS {
                    println!("{id}");
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [IDS…] [--only ID[,ID…]] [--quick] [--seed N] \
                     [--trials N] [--threads N] [--out DIR] [--json DIR] [--probe DIR] \
                     [--list]\n       experiments --spec FILE [--json DIR]\nids: {}",
                    ALL_EXPERIMENTS.join(" ")
                );
                return;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
            id => ids.push(id.to_string()),
        }
    }
    // Fail fast on unwritable output dirs rather than after the whole run.
    for dir in [&out_dir, &json_dir].into_iter().flatten() {
        io_check("cannot create directory", dir, std::fs::create_dir_all(dir));
    }

    if let Some(path) = spec_file {
        if !ids.is_empty() {
            usage_error("--spec runs one declarative spec; experiment ids don't apply");
        }
        run_spec_file(&path, json_dir.as_deref());
        return;
    }

    if ids.is_empty() {
        ids = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    println!(
        "contention-deadlines experiment suite — seed {}, {} mode\n",
        cfg.seed,
        if cfg.quick { "quick" } else { "full" }
    );
    let suite_started = std::time::Instant::now();
    let mut reports: Vec<ExperimentReport> = Vec::new();
    for id in &ids {
        let started = std::time::Instant::now();
        match run_experiment_report(id, &cfg) {
            Some(out) => {
                println!("==================== {id} ====================");
                println!("{}", out.text);
                println!("[{id} took {:.1}s]\n", started.elapsed().as_secs_f64());
                if let Some(dir) = &out_dir {
                    let path = dir.join(format!("{id}.txt"));
                    io_check("cannot write", &path, std::fs::write(&path, &out.text));
                }
                if let Some(dir) = &json_dir {
                    let json = serde_json::to_string_pretty(&out.report)
                        .expect("serialize experiment report");
                    let path = dir.join(format!("{id}.json"));
                    io_check("cannot write", &path, std::fs::write(&path, json));
                }
                reports.push(out.report);
            }
            None => {
                eprintln!("unknown experiment id {id}; try --list");
                std::process::exit(2);
            }
        }
    }

    if let Some(dir) = &json_dir {
        let total_slots: u64 = reports.iter().map(|r| r.timing.slots_simulated).sum();
        let total_wall = suite_started.elapsed().as_secs_f64();
        let summary = Summary {
            schema_version: SCHEMA_VERSION,
            seed: cfg.seed,
            quick: cfg.quick,
            experiments: reports
                .iter()
                .map(|r| SummaryEntry {
                    experiment: r.experiment.clone(),
                    title: r.title.clone(),
                    rows: r.rows.len(),
                    checks_total: r.checks.len(),
                    checks_passed: r.checks.iter().filter(|c| c.passed).count(),
                    wall_secs: r.timing.wall_secs,
                    slots_simulated: r.timing.slots_simulated,
                    slots_per_sec: r.timing.slots_per_sec,
                })
                .collect(),
            all_checks_passed: reports.iter().all(|r| r.all_checks_passed()),
            total_wall_secs: total_wall,
            total_slots_simulated: total_slots,
            slots_per_sec: if total_wall > 0.0 {
                total_slots as f64 / total_wall
            } else {
                0.0
            },
            provenance: Provenance::capture_with_threads(dcr_sim::runner::configured_workers(
                u64::MAX,
            ) as u64),
        };
        let json = serde_json::to_string_pretty(&summary).expect("serialize suite summary");
        let path = dir.join("BENCH_summary.json");
        io_check("cannot write", &path, std::fs::write(&path, json));
        println!(
            "wrote {} JSON artifacts + BENCH_summary.json to {}",
            reports.len(),
            dir.display()
        );
    }
}
