//! Structured experiment artifacts: a serializable schema for one
//! experiment's measurements, checks, timing, and run provenance.
//!
//! Every experiment in the harness renders a human-readable text table
//! *and* an [`ExperimentReport`] — the same numbers, machine-readable, so
//! runs can be archived, diffed, and regression-tracked. The schema is
//! deliberately flat: a list of [`MetricRow`]s (one measured quantity per
//! sweep cell, with a confidence interval when the quantity is a Monte
//! Carlo estimate), a list of pass/fail [`CheckResult`]s (the paper-claim
//! assertions the text output prints as "violations: 0/N"), wall-clock
//! [`Timing`] with slot throughput, and [`Provenance`] identifying the
//! code and toolchain that produced the numbers.
//!
//! Timing and provenance vary between runs of identical code; everything
//! else is a pure function of `(experiment, seed, parameters)`. Determinism
//! comparisons must therefore use [`ExperimentReport::deterministic_view`],
//! which strips the volatile fields.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Version of the artifact schema; bump on breaking layout changes.
pub const SCHEMA_VERSION: u32 = 1;

/// One measured metric in one sweep cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRow {
    /// Sweep-cell label, e.g. `"C=1.0"` or `"w=2^12,n=8"`.
    pub cell: String,
    /// Metric name, e.g. `"p_success"` or `"mean_latency"`.
    pub metric: String,
    /// Point estimate (or exact value for deterministic quantities).
    pub value: f64,
    /// Lower 95% confidence bound, when the metric is a Monte-Carlo
    /// estimate (Wilson score for proportions).
    pub ci_lo: Option<f64>,
    /// Upper 95% confidence bound.
    pub ci_hi: Option<f64>,
    /// Sample count behind the estimate (trials or slots), when sampled.
    pub n: Option<u64>,
}

/// One named experiment parameter, stringly typed so a single list covers
/// integers, floats, grids, and mode flags without a tagged union.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter name, e.g. `"trials"` or `"lambda_grid"`.
    pub name: String,
    /// Rendered value, e.g. `"400"` or `"[1, 2, 4, 8]"`.
    pub value: String,
}

/// A pass/fail claim check (the structured form of the text output's
/// "bound violations: 0/11 (expected 0)" lines).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckResult {
    /// Check name, e.g. `"lemma2_sandwich"`.
    pub name: String,
    /// Did the claim hold?
    pub passed: bool,
    /// Human-readable detail, e.g. `"violations 0/11"`.
    pub detail: String,
}

/// Wall-clock and throughput instrumentation for one experiment run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Timing {
    /// Total wall-clock seconds for the experiment.
    pub wall_secs: f64,
    /// Monte-Carlo trials executed (0 for purely arithmetic experiments).
    pub trials: u64,
    /// Mean wall-clock seconds per trial (0 when `trials == 0`).
    pub secs_per_trial: f64,
    /// Channel slots simulated across all trials (as reported by the
    /// experiment; 0 when not tracked).
    pub slots_simulated: u64,
    /// Slot throughput `slots_simulated / wall_secs` (0 when untracked).
    pub slots_per_sec: f64,
}

/// Identity of the code and environment that produced a report.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the working tree, if available.
    pub git_rev: Option<String>,
    /// Whether the working tree had uncommitted changes, if known.
    pub git_dirty: Option<bool>,
    /// `rustc --version` of the toolchain, if available.
    pub rustc_version: Option<String>,
    /// Worker threads the Monte-Carlo runner uses — the machine's
    /// available parallelism unless the producer recorded an explicit
    /// override (e.g. a `--threads` flag) via
    /// [`Provenance::capture_with_threads`].
    pub threads: u64,
}

impl Provenance {
    /// Capture provenance from the current environment. Each field is
    /// best-effort: a missing `git` or `rustc` binary (or not running
    /// inside a repository) yields `None`, never an error. The first call
    /// in a process spawns `git` and `rustc`; every later call returns a
    /// copy of that first capture and spawns nothing.
    pub fn capture() -> Self {
        static CAPTURED: OnceLock<Provenance> = OnceLock::new();
        CAPTURED.get_or_init(Self::spawn_capture).clone()
    }

    fn spawn_capture() -> Self {
        let run = |cmd: &str, args: &[&str]| -> Option<String> {
            let out = std::process::Command::new(cmd).args(args).output().ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        let git_rev = run("git", &["rev-parse", "HEAD"]).filter(|s| !s.is_empty());
        let git_dirty = git_rev
            .is_some()
            .then(|| run("git", &["status", "--porcelain"]).map(|s| !s.is_empty()))
            .flatten();
        let rustc_version = run("rustc", &["--version"]).filter(|s| !s.is_empty());
        let threads = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
        Self {
            git_rev,
            git_dirty,
            rustc_version,
            threads,
        }
    }

    /// [`Provenance::capture`], but recording an explicit worker-thread
    /// count instead of the machine's available parallelism — use when a
    /// `--threads` override is in effect, so artifacts produced on
    /// heterogeneous CI machines stay comparable.
    pub fn capture_with_threads(threads: u64) -> Self {
        Self {
            threads,
            ..Self::capture()
        }
    }
}

/// A complete structured artifact for one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Artifact schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment id, e.g. `"e1"`.
    pub experiment: String,
    /// One-line human title, e.g. `"E1 (Lemma 2): contention vs success"`.
    pub title: String,
    /// Master seed the run derived all randomness from.
    pub seed: u64,
    /// Quick (reduced-fidelity) mode?
    pub quick: bool,
    /// Full parameter set of the run (sweep grids, trial counts, knobs).
    pub params: Vec<Param>,
    /// Per-cell measurements.
    pub rows: Vec<MetricRow>,
    /// Claim checks.
    pub checks: Vec<CheckResult>,
    /// Wall-clock / throughput instrumentation (volatile across runs).
    pub timing: Timing,
    /// Code and environment identity (volatile across machines).
    pub provenance: Provenance,
}

impl ExperimentReport {
    /// True iff every [`CheckResult`] passed.
    pub fn all_checks_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Look up the first row matching `cell` and `metric`.
    pub fn row(&self, cell: &str, metric: &str) -> Option<&MetricRow> {
        self.rows
            .iter()
            .find(|r| r.cell == cell && r.metric == metric)
    }

    /// A copy with the volatile fields ([`Timing`], [`Provenance`])
    /// zeroed: two runs of the same experiment with the same seed must
    /// produce *equal* deterministic views, while their timing and
    /// provenance may differ. Use this (not the full report) for
    /// reproducibility comparisons.
    pub fn deterministic_view(&self) -> Self {
        Self {
            timing: Timing::default(),
            provenance: Provenance::default(),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentReport {
        ExperimentReport {
            schema_version: SCHEMA_VERSION,
            experiment: "e1".into(),
            title: "E1: demo".into(),
            seed: 42,
            quick: true,
            params: vec![Param {
                name: "slots".into(),
                value: "4000".into(),
            }],
            rows: vec![MetricRow {
                cell: "C=1.0".into(),
                metric: "p_success".into(),
                value: 0.37,
                ci_lo: Some(0.35),
                ci_hi: Some(0.39),
                n: Some(4000),
            }],
            checks: vec![CheckResult {
                name: "lemma2_sandwich".into(),
                passed: true,
                detail: "violations 0/11".into(),
            }],
            timing: Timing {
                wall_secs: 1.5,
                trials: 100,
                secs_per_trial: 0.015,
                slots_simulated: 44_000,
                slots_per_sec: 29_333.3,
            },
            provenance: Provenance {
                git_rev: Some("abc123".into()),
                git_dirty: Some(false),
                rustc_version: Some("rustc 1.75.0".into()),
                threads: 8,
            },
        }
    }

    #[test]
    fn checks_and_row_lookup() {
        let r = sample();
        assert!(r.all_checks_passed());
        assert_eq!(r.row("C=1.0", "p_success").unwrap().value, 0.37);
        assert!(r.row("C=1.0", "nope").is_none());
    }

    #[test]
    fn deterministic_view_strips_volatile_fields_only() {
        let r = sample();
        let v = r.deterministic_view();
        assert_eq!(v.timing, Timing::default());
        assert_eq!(v.provenance, Provenance::default());
        assert_eq!(v.rows, r.rows);
        assert_eq!(v.params, r.params);
        assert_eq!(v.checks, r.checks);
        assert_eq!(v.seed, r.seed);
    }

    #[test]
    fn provenance_capture_is_best_effort() {
        let p = Provenance::capture();
        assert!(p.threads >= 1);
        // git/rustc may or may not exist in the environment; the call must
        // simply not fail. If a rev was found it looks like a hex hash.
        if let Some(rev) = &p.git_rev {
            assert!(rev.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn provenance_is_captured_once_per_process() {
        let first = Provenance::capture();
        for _ in 0..3 {
            assert_eq!(Provenance::capture(), first);
        }
        assert_eq!(
            Provenance::capture_with_threads(first.threads + 1),
            Provenance {
                threads: first.threads + 1,
                ..first
            }
        );
    }
}
