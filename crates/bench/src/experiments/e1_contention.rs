//! **E1 — Lemma 2 / Corollary 3**: contention vs. per-slot success
//! probability.
//!
//! Claim: when every individual probability is ≤ 1/2,
//! `C·e^{−2C} ≤ p_suc ≤ 2C·e^{−C}`. We hold the channel at contention `C`
//! with `n` persistent probes at `p = C/n` and measure the fraction of
//! successful slots; the measured value must land inside the sandwich,
//! peak near `C ≈ 1`, and die exponentially for large `C`.

use crate::config::ExpConfig;
use crate::experiments::util::PersistentP;
use crate::report::{ExpOutput, ReportBuilder};
use dcr_core::contention::success_prob_bounds;
use dcr_sim::engine::{Engine, EngineConfig};
use dcr_sim::job::JobSpec;
use dcr_stats::table::fnum;
use dcr_stats::{Proportion, Table};

const PROBES: u32 = 50;

/// Measure per-slot success probability at contention `c`.
fn measure(c: f64, slots: u64, seed: u64) -> Proportion {
    let p = (c / f64::from(PROBES)).min(0.5);
    let mut e = Engine::new(EngineConfig::default(), seed);
    for i in 0..PROBES {
        e.add_job(JobSpec::new(i, 0, slots), Box::new(PersistentP(p)));
    }
    let r = e.run();
    Proportion::new(r.counts.success, r.slots_run)
}

/// Run E1.
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let slots = if cfg.quick { 4_000 } else { 40_000 };
    let grid = [0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0];
    let mut rb = ReportBuilder::new("e1", "E1 (Lemma 2): contention vs success probability", cfg);
    rb.param("probes", PROBES)
        .param("slots", slots)
        .param("contention_grid", format!("{grid:?}"));

    let mut table = Table::new(vec![
        "C",
        "lower C·e^-2C",
        "measured p_suc",
        "upper 2C·e^-C",
        "in bounds",
    ])
    .with_title(format!(
        "E1 (Lemma 2): contention vs success probability — {PROBES} probes, {slots} slots, seed {}",
        cfg.seed
    ));

    let mut violations = 0;
    for (i, &c) in grid.iter().enumerate() {
        let prop = measure(c, slots, cfg.seed.wrapping_add(i as u64));
        let (lo, hi) = success_prob_bounds(c);
        let (ci_lo, ci_hi) = prop.wilson95();
        // Statistical check: the *interval* must overlap the bound band.
        let ok = ci_hi >= lo && ci_lo <= hi;
        if !ok {
            violations += 1;
        }
        rb.prop(format!("C={c}"), "p_success", &prop)
            .row(format!("C={c}"), "bound_lo", lo)
            .row(format!("C={c}"), "bound_hi", hi);
        table.row(vec![
            fnum(c),
            fnum(lo),
            format!("{:.4} [{:.4},{:.4}]", prop.estimate(), ci_lo, ci_hi),
            fnum(hi),
            if ok { "yes".into() } else { "NO".into() },
        ]);
    }

    let mut out = table.render();
    out.push_str(&format!(
        "\nbound violations: {violations}/{} (expected 0)\n\
         shape check: peak near C=1, exponential collapse for C >= 4\n",
        grid.len()
    ));
    rb.check(
        "lemma2_sandwich",
        violations == 0,
        format!("violations {violations}/{}", grid.len()),
    );
    rb.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_hold_on_quick_run() {
        let out = run(&ExpConfig::quick());
        assert!(
            out.text.contains("bound violations: 0/"),
            "Lemma 2 sandwich violated:\n{}",
            out.text
        );
        // The structured artifact carries the same verdict and one CI row
        // per grid point.
        assert!(out.report.all_checks_passed());
        assert_eq!(
            out.report
                .rows
                .iter()
                .filter(|r| r.metric == "p_success")
                .count(),
            11
        );
    }

    #[test]
    fn high_contention_collapses() {
        let p = measure(8.0, 5_000, 11);
        assert!(p.estimate() < 0.02, "p_suc at C=8 should be tiny: {p}");
    }

    #[test]
    fn unit_contention_near_inverse_e() {
        let p = measure(1.0, 20_000, 13);
        assert!(
            (p.estimate() - 0.37).abs() < 0.05,
            "C=1 should give ~1/e: {p}"
        );
    }
}
