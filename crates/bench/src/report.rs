//! Structured output plumbing for the experiment modules.
//!
//! Each experiment produces an [`ExpOutput`]: the human-readable text it
//! always produced, plus a machine-readable
//! [`dcr_stats::ExperimentReport`] carrying the same numbers. The
//! [`ReportBuilder`] keeps the instrumentation at the measurement site to
//! one line per quantity: experiments `param()` their knobs as they pick
//! them, `row()`/`prop()` each cell as they measure it, `check()` each
//! claim as they assert it, and `finish()` stamps timing and provenance.
//! The slot count is the engine's own: the builder reads the calling
//! thread's tally ([`dcr_sim::engine::thread_slots_executed`]) at `new()`
//! and at `finish()`, so it covers every engine run the experiment made,
//! directly or through the trial runner, and nothing another thread ran.

use dcr_sim::engine::thread_slots_executed;
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
/// functions. Construction records the start instant and the thread's
/// slot tally; [`finish`] computes wall-clock timing and the slots
/// executed in between, and captures provenance.
///
/// [`finish`]: ReportBuilder::finish
pub struct ReportBuilder {
    report: ExperimentReport,
    started: Instant,
    slots_before: u64,
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
            slots_before: thread_slots_executed(),
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

    /// Account `trials` executed Monte-Carlo trials.
    pub fn add_trials(&mut self, trials: u64) -> &mut Self {
        self.trials += trials;
        self
    }

    /// Finalize: stamp wall-clock timing, throughput, and provenance, and
    /// pair the artifact with its rendered text.
    pub fn finish(mut self, text: String) -> ExpOutput {
        let wall = self.started.elapsed().as_secs_f64();
        let slots = thread_slots_executed() - self.slots_before;
        self.report.timing = Timing {
            wall_secs: wall,
            trials: self.trials,
            secs_per_trial: if self.trials > 0 {
                wall / self.trials as f64
            } else {
                0.0
            },
            slots_simulated: slots,
            slots_per_sec: if slots > 0 && wall > 0.0 {
                slots as f64 / wall
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
        assert!(r.timing.wall_secs >= 0.0);
        assert!(r.provenance.threads >= 1);
        // The proportion row carries its Wilson interval and count.
        let row = r.row("cell_c", "proportion").unwrap();
        assert_eq!(row.n, Some(60));
        assert!(row.ci_lo.unwrap() < 0.5 && row.ci_hi.unwrap() > 0.5);
    }

    // Two threads simulate at once; each report counts exactly the slots
    // of its own thread's runs (a trial batch, a branched sweep and a
    // direct run), none of the other's.
    #[test]
    fn slot_count_is_the_threads_own_engine_count() {
        use crate::experiments::util::PersistentP;
        use dcr_sim::engine::{Engine, EngineConfig, Protocol};
        use dcr_sim::jamming::{AdversarySpec, JamPolicy};
        use dcr_sim::job::JobSpec;
        use dcr_sim::runner::{run_branched, run_trials, BranchSpec};

        // `window` differs per thread, so the two totals differ too.
        let work = |window: u64| {
            let b = ReportBuilder::new("e0", "demo", &ExpConfig::quick());
            let jobs: Vec<JobSpec> = (0..4).map(|i| JobSpec::new(i, 0, window)).collect();
            let factory = |_: &JobSpec| -> Box<dyn Protocol> { Box::new(PersistentP(0.2)) };
            let run = |seed| {
                let mut e = Engine::new(EngineConfig::default(), seed);
                e.add_jobs(&jobs, factory);
                e.run().slots_run
            };
            let batch: u64 = run_trials(8, window, |_, seed| run(seed))
                .iter()
                .map(|t| t.value)
                .sum();
            let branches: Vec<BranchSpec> = [0.3, 0.6]
                .iter()
                .map(|&p_jam| BranchSpec {
                    label: format!("p{p_jam}"),
                    adversary: AdversarySpec::Policy(JamPolicy::AllSuccesses),
                    p_jam,
                })
                .collect();
            let never = AdversarySpec::Policy(JamPolicy::Never);
            let br = run_branched(
                &EngineConfig::default(),
                window,
                &jobs,
                factory,
                &never,
                0.0,
                window / 2,
                &branches,
            )
            .expect("branched run");
            let branched: u64 = br.prefix_slot
                + br.reports
                    .iter()
                    .map(|r| r.slots_run - br.prefix_slot)
                    .sum::<u64>();
            let own = batch + branched + run(1);
            (b.finish(String::new()).report.timing.slots_simulated, own)
        };
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let handles = [3_000, 5_000].map(|w| {
                let (barrier, work) = (&barrier, &work);
                s.spawn(move || {
                    barrier.wait();
                    work(w)
                })
            });
            for h in handles {
                let (counted, own) = h.join().expect("worker thread");
                assert!(own > 0);
                assert_eq!(counted, own);
            }
        });
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
