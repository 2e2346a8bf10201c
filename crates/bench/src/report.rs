//! Structured output plumbing for the experiment modules.
//!
//! Each experiment produces an [`ExpOutput`]: the human-readable text it
//! always produced, plus a machine-readable
//! [`dcr_stats::ExperimentReport`] carrying the same numbers. The
//! [`ReportBuilder`] keeps the instrumentation at the measurement site to
//! one line per quantity: experiments `param()` their knobs as they pick
//! them, `row()`/`prop()` each cell as they measure it, `check()` each
//! claim as they assert it, and `finish()` stamps timing and provenance.

use dcr_stats::report::SCHEMA_VERSION;
use dcr_stats::{CheckResult, ExperimentReport, MetricRow, Param, Proportion, Provenance, Timing};
use std::fmt::Display;
use std::time::Instant;

/// One experiment's complete output: rendered text plus the structured
/// artifact with the same measurements.
#[derive(Debug, Clone)]
pub struct ExpOutput {
    /// The human-readable report (tables and shape-check commentary).
    pub text: String,
    /// The machine-readable artifact.
    pub report: ExperimentReport,
}

/// Incremental [`ExperimentReport`] builder used inside experiment `run`
/// functions. Construction records the start instant; [`finish`] computes
/// wall-clock timing and captures provenance.
///
/// [`finish`]: ReportBuilder::finish
pub struct ReportBuilder {
    report: ExperimentReport,
    started: Instant,
    slots: u64,
    trials: u64,
}

impl ReportBuilder {
    /// Start a report for experiment `id`. `seed`/`quick` come from the
    /// run's `ExpConfig` and are recorded verbatim for replay.
    pub fn new(id: &str, title: impl Into<String>, cfg: &crate::config::ExpConfig) -> Self {
        Self {
            report: ExperimentReport {
                schema_version: SCHEMA_VERSION,
                experiment: id.to_string(),
                title: title.into(),
                seed: cfg.seed,
                quick: cfg.quick,
                params: Vec::new(),
                rows: Vec::new(),
                checks: Vec::new(),
                timing: Timing::default(),
                provenance: Provenance::default(),
            },
            started: Instant::now(),
            slots: 0,
            trials: 0,
        }
    }

    /// Record one named parameter of the run.
    pub fn param(&mut self, name: &str, value: impl Display) -> &mut Self {
        self.report.params.push(Param {
            name: name.to_string(),
            value: value.to_string(),
        });
        self
    }

    /// Reject non-finite measurements before they reach the artifact:
    /// serde_json serializes NaN/∞ as `null`, which silently corrupts
    /// `--json` artifacts and the CI perf-smoke baseline comparison. Loud
    /// in debug builds; in release the row is dropped with a warning so a
    /// long sweep still completes.
    fn finite_or_warn(cell: &str, metric: &str, values: &[f64]) -> bool {
        let ok = values.iter().all(|v| v.is_finite());
        debug_assert!(
            ok,
            "non-finite metric row {cell}/{metric}: {values:?} \
             (would serialize as null in the JSON artifact)"
        );
        if !ok {
            dcr_telemetry::logger::warn(
                "dcr_bench",
                "dropping non-finite metric row",
                dcr_telemetry::fields!(
                    cell = cell,
                    metric = metric,
                    values = format!("{values:?}")
                ),
            );
        }
        ok
    }

    /// Record an exact (CI-free) metric value for one cell. Non-finite
    /// values are rejected (see `ReportBuilder::finite_or_warn`).
    pub fn row(&mut self, cell: impl Display, metric: &str, value: f64) -> &mut Self {
        let cell = cell.to_string();
        if !Self::finite_or_warn(&cell, metric, &[value]) {
            return self;
        }
        self.report.rows.push(MetricRow {
            cell,
            metric: metric.to_string(),
            value,
            ci_lo: None,
            ci_hi: None,
            n: None,
        });
        self
    }

    /// Record an estimated metric with an explicit confidence interval and
    /// sample count. Non-finite values or interval endpoints are rejected
    /// (see `ReportBuilder::finite_or_warn`).
    pub fn row_ci(
        &mut self,
        cell: impl Display,
        metric: &str,
        value: f64,
        ci: (f64, f64),
        n: u64,
    ) -> &mut Self {
        let cell = cell.to_string();
        if !Self::finite_or_warn(&cell, metric, &[value, ci.0, ci.1]) {
            return self;
        }
        self.report.rows.push(MetricRow {
            cell,
            metric: metric.to_string(),
            value,
            ci_lo: Some(ci.0),
            ci_hi: Some(ci.1),
            n: Some(n),
        });
        self
    }

    /// Record a binomial proportion with its Wilson 95% interval.
    pub fn prop(&mut self, cell: impl Display, metric: &str, p: &Proportion) -> &mut Self {
        self.row_ci(cell, metric, p.estimate(), p.wilson95(), p.trials)
    }

    /// Record a pass/fail claim check.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Display) -> &mut Self {
        self.report.checks.push(CheckResult {
            name: name.to_string(),
            passed,
            detail: detail.to_string(),
        });
        self
    }

    /// Account `slots` simulated channel slots toward the throughput
    /// numbers.
    pub fn add_slots(&mut self, slots: u64) -> &mut Self {
        self.slots += slots;
        self
    }

    /// Account `trials` executed Monte-Carlo trials.
    pub fn add_trials(&mut self, trials: u64) -> &mut Self {
        self.trials += trials;
        self
    }

    /// Finalize: stamp wall-clock timing, throughput, and provenance, and
    /// pair the artifact with its rendered text.
    pub fn finish(mut self, text: String) -> ExpOutput {
        let wall = self.started.elapsed().as_secs_f64();
        self.report.timing = Timing {
            wall_secs: wall,
            trials: self.trials,
            secs_per_trial: if self.trials > 0 {
                wall / self.trials as f64
            } else {
                0.0
            },
            slots_simulated: self.slots,
            slots_per_sec: if self.slots > 0 && wall > 0.0 {
                self.slots as f64 / wall
            } else {
                0.0
            },
        };
        self.report.provenance =
            Provenance::capture_with_threads(dcr_sim::runner::configured_workers(u64::MAX) as u64);
        ExpOutput {
            text,
            report: self.report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExpConfig;

    #[test]
    fn builder_assembles_full_report() {
        let cfg = ExpConfig::quick();
        let mut b = ReportBuilder::new("e0", "demo", &cfg);
        b.param("grid", "[1, 2, 3]")
            .row("cell_a", "exact", 7.0)
            .row_ci("cell_b", "estimated", 0.5, (0.4, 0.6), 100)
            .prop("cell_c", "proportion", &Proportion::new(30, 60))
            .check("claim", true, "held everywhere")
            .add_slots(10_000)
            .add_trials(60);
        let out = b.finish("text body".into());
        assert_eq!(out.text, "text body");
        let r = &out.report;
        assert_eq!(r.experiment, "e0");
        assert_eq!(r.seed, cfg.seed);
        assert!(r.quick);
        assert_eq!(r.params.len(), 1);
        assert_eq!(r.rows.len(), 3);
        assert!(r.all_checks_passed());
        assert_eq!(r.timing.trials, 60);
        assert_eq!(r.timing.slots_simulated, 10_000);
        assert!(r.timing.wall_secs >= 0.0);
        assert!(r.provenance.threads >= 1);
        // The proportion row carries its Wilson interval and count.
        let row = r.row("cell_c", "proportion").unwrap();
        assert_eq!(row.n, Some(60));
        assert!(row.ci_lo.unwrap() < 0.5 && row.ci_hi.unwrap() > 0.5);
    }

    // Regression for the NaN-to-null artifact corruption: a non-finite
    // metric (e.g. `SimReport::mean_transmissions()` on an empty instance)
    // must never reach the JSON artifact. Debug builds fail fast at the
    // measurement site; release builds drop the row and keep going.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-finite metric row"))]
    fn non_finite_row_never_reaches_the_artifact() {
        let cfg = ExpConfig::quick();
        let mut b = ReportBuilder::new("e0", "demo", &cfg);
        b.row("empty", "mean_tx", f64::NAN);
        // Only reached in release builds (debug panics above): the row was
        // dropped, so nothing non-finite can serialize as null.
        let out = b.finish("t".into());
        assert!(out.report.rows.is_empty());
        assert!(serde_json::to_string(&out.report)
            .unwrap()
            .contains("\"rows\":[]"));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-finite metric row"))]
    fn non_finite_ci_endpoint_never_reaches_the_artifact() {
        let cfg = ExpConfig::quick();
        let mut b = ReportBuilder::new("e0", "demo", &cfg);
        b.row_ci("cell", "m", 0.5, (f64::NEG_INFINITY, 0.6), 10);
        assert!(b.finish("t".into()).report.rows.is_empty());
    }

    #[test]
    fn finite_rows_still_pass_the_guard() {
        let cfg = ExpConfig::quick();
        let mut b = ReportBuilder::new("e0", "demo", &cfg);
        b.row("c", "m", 0.0).row_ci("c", "m2", 1.0, (0.9, 1.1), 5);
        assert_eq!(b.finish("t".into()).report.rows.len(), 2);
    }

    #[test]
    fn deterministic_view_of_built_report_is_stable() {
        let cfg = ExpConfig::quick();
        let build = || {
            let mut b = ReportBuilder::new("e0", "demo", &cfg);
            b.row("c", "m", 1.25).check("ok", true, "d");
            b.finish("t".into()).report.deterministic_view()
        };
        assert_eq!(build(), build());
    }
}
