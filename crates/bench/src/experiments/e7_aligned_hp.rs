//! **E7 — Theorem 14**: ALIGNED delivers each job w.h.p. *in its window
//! size*.
//!
//! Claim: `Pr[job j fails] ≤ 1/w^Θ(λ)` — on log–log axes, failure
//! frequency vs window size is a line with negative slope, steeper for
//! larger λ. We run single-class batches (n jobs, window `2^ℓ`) across a
//! sweep of ℓ and two λ values and fit the decay.

use crate::config::ExpConfig;
use crate::experiments::util::aligned_batch;
use crate::report::{ExpOutput, ReportBuilder};
use dcr_core::aligned::params::AlignedParams;
use dcr_sim::runner::run_trials;
use dcr_stats::{loglog_slope, Proportion, Table};

const N_JOBS: usize = 8;

/// Per-job failure frequency for a batch of `N_JOBS` in window `2^class`.
fn cell(cfg: &ExpConfig, class: u32, lambda: u64, trials: u64) -> Proportion {
    let seed = cfg.seed ^ (u64::from(class) << 32) ^ lambda;
    failures(class, lambda, N_JOBS, 0.0, trials, seed)
}

/// Stressed cell: the batch grows proportionally with the window
/// (`n = w/divisor`) and a `p_jam = 1/2` adversary attacks every success —
/// the regime where failures are frequent enough to *measure* the decay
/// exponent instead of just bounding it.
fn stressed_cell(
    cfg: &ExpConfig,
    class: u32,
    lambda: u64,
    divisor: usize,
    trials: u64,
) -> Proportion {
    let n = ((1usize << class) / divisor).max(1);
    let seed = cfg.seed ^ (u64::from(class) << 40) ^ (lambda << 8) ^ divisor as u64;
    failures(class, lambda, n, 0.5, trials, seed)
}

/// Per-job failure frequency of `trials` ALIGNED (τ = 2) batches of `n`.
fn failures(class: u32, lambda: u64, n: usize, p_jam: f64, trials: u64, seed: u64) -> Proportion {
    let params = AlignedParams::new(lambda, 2, class);
    let results = run_trials(trials, seed, |_, seed| {
        (n - aligned_batch(params, class, n, p_jam, seed).successes()) as u64
    });
    Proportion::new(
        results.iter().map(|t| t.value).sum(),
        results.len() as u64 * n as u64,
    )
}

/// Run E7.
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    // Smallest viable class per λ: the schedule 2λ(ℓ² + n_ℓ − 1) must fit
    // inside 2^ℓ even with the τ-inflated estimate.
    let sweeps: &[(u64, &[u32])] = if cfg.quick {
        &[(1, &[8, 10, 12]), (2, &[9, 11, 13])]
    } else {
        &[(1, &[8, 9, 10, 11, 12, 13]), (2, &[9, 10, 11, 12, 13, 14])]
    };
    let mut rb = ReportBuilder::new("e7", "E7 (Theorem 14): ALIGNED per-job failure decay", cfg);
    rb.param("n_jobs", N_JOBS)
        .param("trials_per_cell", cfg.cell_trials(500));
    let mut out = String::new();
    for (lambda, classes) in sweeps {
        let mut table = Table::new(vec!["ℓ", "w = 2^ℓ", "per-job failure rate", "upper95"])
            .with_title(format!(
                "E7 (Theorem 14): ALIGNED batch of {N_JOBS}, λ={lambda}, τ=2, seed {}",
                cfg.seed
            ));
        let mut points = Vec::new();
        for &class in *classes {
            let trials = cfg.cell_trials(500);
            let p = cell(cfg, class, *lambda, trials);
            points.push(((1u64 << class) as f64, p.estimate()));
            rb.prop(format!("lambda={lambda},l={class}"), "per_job_failure", &p)
                .add_trials(trials);
            table.row(vec![
                class.to_string(),
                (1u64 << class).to_string(),
                p.to_string(),
                format!("{:.2e}", p.upper95()),
            ]);
        }
        out.push_str(&table.render());
        if let Some(fit) = loglog_slope(&points, Some(1e-5)) {
            out.push_str(&format!(
                "failure ∝ w^{:.2} (R²={:.2}); Theorem 14 predicts a negative exponent that \
                 steepens with λ\n\n",
                fit.slope, fit.r2
            ));
            rb.row(format!("lambda={lambda}"), "loglog_slope", fit.slope)
                .check(
                    &format!("failure_decays_lambda{lambda}"),
                    fit.slope <= 0.0,
                    format!("fitted exponent {:.2}", fit.slope),
                );
        } else {
            out.push_str("no failures observed anywhere in the sweep\n\n");
            rb.check(
                &format!("failure_decays_lambda{lambda}"),
                true,
                "no failures observed anywhere in the sweep",
            );
        }
    }

    // Stressed regime: proportional load + half-rate jamming. Theorem 14
    // holds "for all λ, for sufficiently small γ"; the first two rows sit
    // deliberately ABOVE the γ threshold for their λ (under p_jam = 1/2,
    // a phase keeps pace with the halving schedule only when (3/4)^λ is
    // small enough), so their failure GROWS with w — the negative control.
    // The (λ=4, w/64) sweep is inside the stable regime and exhibits the
    // claimed polynomial decay.
    let stress_classes: &[u32] = if cfg.quick {
        &[9, 11, 13]
    } else {
        &[9, 10, 11, 12, 13, 14]
    };
    for (lambda, divisor, regime) in [
        (1u64, 32usize, "above γ-threshold"),
        (2, 32, "above γ-threshold"),
        (4, 64, "stable"),
    ] {
        let mut table = Table::new(vec!["ℓ", "n", "per-job failure rate"]).with_title(format!(
            "E7-stress ({regime}): n = w/{divisor}, p_jam = 0.5, λ={lambda}, τ=2, seed {}",
            cfg.seed
        ));
        let mut points = Vec::new();
        for &class in stress_classes {
            let trials = cfg.cell_trials(300);
            let p = stressed_cell(cfg, class, lambda, divisor, trials);
            points.push(((1u64 << class) as f64, p.estimate()));
            rb.prop(
                format!("stress,lambda={lambda},l={class}"),
                "per_job_failure",
                &p,
            )
            .add_trials(trials);
            table.row(vec![
                class.to_string(),
                ((1usize << class) / divisor).max(1).to_string(),
                p.to_string(),
            ]);
        }
        out.push_str(&table.render());
        if let Some(fit) = loglog_slope(&points, Some(1e-5)) {
            out.push_str(&format!(
                "stressed failure ∝ w^{:.2} (R²={:.2}) — expect positive above the \
                 threshold, negative in the stable regime\n\n",
                fit.slope, fit.r2
            ));
            rb.row(format!("stress,lambda={lambda}"), "loglog_slope", fit.slope)
                .check(
                    &format!(
                        "stress_lambda{lambda}_{}",
                        if regime == "stable" {
                            "stable_decays"
                        } else {
                            "overload_grows"
                        }
                    ),
                    if regime == "stable" {
                        fit.slope <= 0.0
                    } else {
                        fit.slope >= 0.0
                    },
                    format!("fitted exponent {:.2}", fit.slope),
                );
        }
    }
    rb.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_rate_decreases_with_window() {
        let cfg = ExpConfig::quick();
        let small = cell(&cfg, 8, 1, 120);
        let large = cell(&cfg, 12, 1, 120);
        assert!(
            large.estimate() <= small.estimate(),
            "failure should not grow with w: {small} vs {large}"
        );
    }

    #[test]
    fn comfortable_window_nearly_never_fails() {
        let p = cell(&ExpConfig::quick(), 12, 1, 100);
        assert!(p.estimate() < 0.02, "{p}");
    }

    #[test]
    fn stressed_stable_regime_decays() {
        // λ=4, n=w/64, p_jam=0.5: failure must shrink as the window grows.
        let cfg = ExpConfig::quick();
        let small = stressed_cell(&cfg, 9, 4, 64, 150);
        let large = stressed_cell(&cfg, 13, 4, 64, 150);
        assert!(
            large.estimate() < small.estimate() || small.estimate() == 0.0,
            "stable stress should decay: {small} vs {large}"
        );
    }

    #[test]
    fn stressed_overloaded_regime_grows() {
        // λ=1 above the γ threshold under jamming: failure grows with w —
        // the negative control that shows the threshold is real.
        let cfg = ExpConfig::quick();
        let small = stressed_cell(&cfg, 9, 1, 32, 100);
        let large = stressed_cell(&cfg, 13, 1, 32, 100);
        assert!(
            large.estimate() > small.estimate(),
            "overload should worsen with scale: {small} vs {large}"
        );
    }
}
