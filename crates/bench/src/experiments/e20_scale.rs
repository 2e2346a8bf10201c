//! **E20 — million-job scale**: the aggregate cohort paths re-measure the
//! paper's success-vs-slack shapes at population sizes the exact engine
//! cannot reach.
//!
//! The claims under test are the ones E2/E7 established at laptop scale:
//!
//! * (Lemma 4 shape) at fixed slack a constant fraction of a batch
//!   delivers, *flat in `n`* — here re-measured from `n = 10⁴` up to
//!   `n = 10⁶` under `Fidelity::Cohort`, where ALIGNED advances one exact
//!   per-class binomial per slot and PUNCTUAL advances the duty-masked
//!   group machine as an aggregate;
//! * (Theorem 14 shape) the delivered fraction is *monotone in slack* —
//!   swept over `1/γ ∈ {2, 4, 8, 16}`, approaching 1 once the window is
//!   comfortably feasible.
//!
//! **Statistical policy.** A batch class shares one size estimate (and,
//! for PUNCTUAL, one leader/anarchy fate), so per-job outcomes within a
//! trial are heavily clustered: a catastrophic estimate fails the whole
//! class at once, at every n in this sweep. All intervals here are
//! therefore **trial-level**: cells report the mean per-trial delivered
//! fraction ± 2 standard errors over trials, and the exact-path anchor
//! (E20c) checks both the trial-level means and the z = 4 **Wilson
//! intervals** of the good-trial rate — the fraction of trials delivering
//! ≥ 50%, a genuine binomial over independent trials. The tighter
//! distributional equivalence claims live in the conformance matrix's
//! law-level column, `tests/cohort_equivalence.rs`
//! (cluster-robust jammer grid, per-seed replayability of the aggregate
//! path).

use crate::config::ExpConfig;
use crate::experiments::util::run_instance;
use crate::report::{ExpOutput, ReportBuilder};
use dcr_core::punctual::params::ROUND_LEN;
use dcr_core::{AlignedParams, AlignedProtocol, PunctualParams, PunctualProtocol};
use dcr_sim::engine::EngineConfig;
use dcr_sim::runner::run_trials;
use dcr_stats::{Proportion, Table};
use dcr_workloads::generators::batch;

/// λ for both protocols (matches the conformance matrix's cohort
/// populations).
const LAMBDA: u64 = 1;
/// τ for the embedded size estimation.
const TAU: u64 = 2;
/// A trial counts as *good* if it delivers at least this fraction — the
/// binomial event behind the anchor's Wilson cross-check.
const GOOD_TRIAL: f64 = 0.5;

/// Smallest power-of-two window of at least `slots` slots.
fn pow2_window(slots: u64) -> u64 {
    slots.next_power_of_two()
}

/// The ALIGNED batch window for `n` jobs at slack `1/γ = inv_gamma`:
/// density `n / w ≤ γ`.
fn aligned_window(n: u64, inv_gamma: u64) -> u64 {
    pow2_window(n * inv_gamma)
}

/// The PUNCTUAL batch window. Two structural factors sit on top of the
/// feasible-density budget: only one slot in [`ROUND_LEN`] feeds the
/// embedded ALIGNED run, and that run must fit a full power-of-two class
/// window *starting at a class boundary of the leader's rho-clock* — in
/// the worst case the wait for the boundary burns a whole class window
/// before the batch begins, hence the extra factor of two.
fn punctual_window(n: u64, inv_gamma: u64) -> u64 {
    pow2_window(pow2_window(n * inv_gamma) * 2 * ROUND_LEN)
}

/// One protocol arm of the sweep.
#[derive(Clone, Copy, PartialEq)]
enum Proto {
    Aligned,
    Punctual,
}

impl Proto {
    fn name(self) -> &'static str {
        match self {
            Proto::Aligned => "aligned",
            Proto::Punctual => "punctual",
        }
    }

    fn window(self, n: u64, inv_gamma: u64) -> u64 {
        match self {
            Proto::Aligned => aligned_window(n, inv_gamma),
            Proto::Punctual => punctual_window(n, inv_gamma),
        }
    }

    fn config(self, aggregate: bool) -> EngineConfig {
        let base = match self {
            Proto::Aligned => EngineConfig::aligned(),
            Proto::Punctual => EngineConfig::default(),
        };
        if aggregate {
            base.cohort()
        } else {
            base
        }
    }
}

/// One measured cell: per-trial delivered fractions.
struct Cell {
    fractions: Vec<f64>,
}

impl Cell {
    fn mean(&self) -> f64 {
        self.fractions.iter().sum::<f64>() / self.fractions.len() as f64
    }

    /// Standard error of the mean over trials (0 for a single trial).
    fn se(&self) -> f64 {
        let k = self.fractions.len();
        if k < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.fractions.iter().map(|f| (f - m).powi(2)).sum::<f64>() / (k as f64 - 1.0);
        (var / k as f64).sqrt()
    }

    /// Good-trial rate as a binomial over independent trials.
    fn good_trials(&self) -> Proportion {
        let good = self.fractions.iter().filter(|&&f| f >= GOOD_TRIAL).count() as u64;
        Proportion::new(good, self.fractions.len() as u64)
    }
}

/// Run one `(protocol, fidelity, n, slack)` cell for `trials` trials of an
/// `n`-job batch.
fn run_cell(
    proto: Proto,
    aggregate: bool,
    n: u64,
    inv_gamma: u64,
    trials: u64,
    master_seed: u64,
) -> Cell {
    let w = proto.window(n, inv_gamma);
    let instance = batch(n as usize, w);
    let class = w.trailing_zeros();
    let results = run_trials(trials, master_seed, |_, seed| {
        run_instance(
            &instance,
            proto.config(aggregate),
            None,
            seed,
            |_| -> Box<dyn dcr_sim::engine::Protocol> {
                match proto {
                    Proto::Aligned => {
                        Box::new(AlignedProtocol::new(AlignedParams::new(LAMBDA, TAU, class)))
                    }
                    Proto::Punctual => Box::new(PunctualProtocol::new(PunctualParams::laptop())),
                }
            },
        )
        .success_fraction()
    });
    Cell {
        fractions: results.iter().map(|t| t.value).collect(),
    }
}

/// n grid for the scale sweep (E20b).
fn scale_ns(cfg: &ExpConfig) -> Vec<u64> {
    if cfg.quick {
        vec![1_000, 10_000, 100_000]
    } else {
        vec![10_000, 100_000, 1_000_000]
    }
}

/// Largest n at which the *exact* engine is still affordable for the
/// cross-check; PUNCTUAL's exact path polls every synchronized job every
/// start slot, so its overlap point sits an order of magnitude lower.
fn overlap_n(cfg: &ExpConfig, proto: Proto) -> u64 {
    match (proto, cfg.quick) {
        (Proto::Aligned, true) => 1_000,
        (Proto::Aligned, false) => 10_000,
        (Proto::Punctual, true) => 300,
        (Proto::Punctual, false) => 1_000,
    }
}

/// Trials for a cell, throttled by the per-trial slot cost.
fn cell_trials(cfg: &ExpConfig, proto: Proto, n: u64) -> u64 {
    match n {
        0..=10_000 => cfg.cell_trials(24),
        10_001..=100_000 => cfg.cell_trials(24).min(4),
        // The million-job cells. ALIGNED's aggregate is cheap enough to
        // replicate — and needs it: a whole-class estimate catastrophe
        // fails ~1 trial in 6 at *every* n here, so a single trial is
        // too noisy for the flatness check. PUNCTUAL's 2^28-slot window
        // (~30 s/trial) stays single-trial.
        _ => match proto {
            Proto::Aligned => 6,
            Proto::Punctual => 1,
        },
    }
}

/// Record one cell in the artifact: mean ± 2 trial-level SE when the cell
/// has replication, a bare value for single-trial scale cells.
fn record(rb: &mut ReportBuilder, id: &str, cell: &Cell) {
    let (m, se) = (cell.mean(), cell.se());
    if cell.fractions.len() > 1 {
        rb.row_ci(
            id,
            "delivered",
            m,
            ((m - 2.0 * se).max(0.0), (m + 2.0 * se).min(1.0)),
            cell.fractions.len() as u64,
        );
    } else {
        rb.row(id, "delivered", m);
    }
    rb.add_trials(cell.fractions.len() as u64);
}

/// Run E20.
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let mut rb = ReportBuilder::new(
        "e20",
        "E20: aggregate-fidelity success-vs-slack at million-job scale",
        cfg,
    );
    let slacks: &[u64] = &[2, 4, 8, 16];
    rb.param("lambda", LAMBDA)
        .param("tau", TAU)
        .param("good_trial_threshold", GOOD_TRIAL)
        .param("slack_grid", format!("{slacks:?}"))
        .param("scale_ns", format!("{:?}", scale_ns(cfg)));

    // E20a — success vs slack at the largest multi-trial n.
    let slack_n: u64 = if cfg.quick { 10_000 } else { 100_000 };
    let mut t1 =
        Table::new(vec!["protocol", "1/γ", "window", "delivered (±2se)"]).with_title(format!(
            "E20a (Theorem 14 shape): delivered fraction vs slack, n = {slack_n}, \
             aggregate fidelity, seed {}",
            cfg.seed
        ));
    let mut monotone_ok = true;
    let mut top_slack = f64::INFINITY;
    for proto in [Proto::Aligned, Proto::Punctual] {
        let mut prev = 0.0f64;
        for (i, &g) in slacks.iter().enumerate() {
            let trials = cell_trials(cfg, proto, slack_n).min(6);
            let c = run_cell(proto, true, slack_n, g, trials, cfg.seed ^ (g << 8));
            record(&mut rb, &format!("slack,{},g={g}", proto.name()), &c);
            t1.row(vec![
                proto.name().to_string(),
                g.to_string(),
                proto.window(slack_n, g).to_string(),
                format!("{:.3} ±{:.3}", c.mean(), 2.0 * c.se()),
            ]);
            // Monotone up to trial-level noise: a step may dip by at most
            // two combined standard errors (floor 0.05).
            let tol = (2.0 * (c.se() + 0.02)).max(0.05);
            if i > 0 && c.mean() < prev - tol {
                monotone_ok = false;
            }
            prev = c.mean();
        }
        top_slack = top_slack.min(prev);
    }
    let mut out = t1.render();

    // E20b — scale sweep at fixed slack: Lemma 4's constant fraction must
    // stay flat while n spans two orders of magnitude.
    let inv_gamma = 8u64;
    let mut t2 = Table::new(vec![
        "protocol",
        "n",
        "window",
        "trials",
        "delivered (±2se)",
    ])
    .with_title(format!(
        "\nE20b (Lemma 4 shape): delivered fraction vs n at 1/γ = {inv_gamma}, \
             aggregate fidelity, seed {}",
        cfg.seed
    ));
    let mut spreads = Vec::new();
    for proto in [Proto::Aligned, Proto::Punctual] {
        let mut means = Vec::new();
        for &n in &scale_ns(cfg) {
            let trials = cell_trials(cfg, proto, n);
            let c = run_cell(proto, true, n, inv_gamma, trials, cfg.seed ^ n);
            record(&mut rb, &format!("scale,{},n={n}", proto.name()), &c);
            t2.row(vec![
                proto.name().to_string(),
                n.to_string(),
                proto.window(n, inv_gamma).to_string(),
                trials.to_string(),
                format!("{:.3} ±{:.3}", c.mean(), 2.0 * c.se()),
            ]);
            means.push(c.mean());
        }
        let spread = means.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - means.iter().copied().fold(f64::INFINITY, f64::min);
        spreads.push((proto, spread));
    }
    out.push_str(&t2.render());

    // E20c — fidelity anchor: exact vs aggregate at the largest
    // overlapping n. Two comparisons per protocol: trial-level means
    // within 4 combined SEs, and z = 4 Wilson overlap of the good-trial
    // rates (independent Bernoulli trials, so Wilson is honest).
    let mut t3 = Table::new(vec![
        "protocol",
        "n",
        "exact mean",
        "agg mean",
        "exact good (Wilson z=4)",
        "agg good (Wilson z=4)",
    ])
    .with_title(format!(
        "\nE20c: exact-path cross-check at overlapping n, seed {}",
        cfg.seed
    ));
    let mut anchors_ok = true;
    for proto in [Proto::Aligned, Proto::Punctual] {
        let n = overlap_n(cfg, proto);
        let trials = cell_trials(cfg, proto, n).min(12);
        let ce = run_cell(proto, false, n, inv_gamma, trials, cfg.seed ^ 0xE20A);
        let ca = run_cell(proto, true, n, inv_gamma, trials, cfg.seed ^ 0xE20B);
        let mean_tol = (4.0 * (ce.se() + ca.se())).max(0.06);
        let means_ok = (ce.mean() - ca.mean()).abs() <= mean_tol;
        let (ge, ga) = (ce.good_trials(), ca.good_trials());
        let (elo, ehi) = ge.wilson(4.0);
        let (alo, ahi) = ga.wilson(4.0);
        let wilson_ok = elo <= ahi && alo <= ehi;
        anchors_ok &= means_ok && wilson_ok;
        let id = format!("anchor,{}", proto.name());
        record(&mut rb, &format!("{id},exact"), &ce);
        record(&mut rb, &format!("{id},aggregate"), &ca);
        rb.prop(&id, "exact_good_trials", &ge)
            .prop(&id, "aggregate_good_trials", &ga);
        t3.row(vec![
            proto.name().to_string(),
            n.to_string(),
            format!("{:.3} ±{:.3}", ce.mean(), 2.0 * ce.se()),
            format!("{:.3} ±{:.3}", ca.mean(), 2.0 * ca.se()),
            format!("[{elo:.3}, {ehi:.3}]"),
            format!("[{alo:.3}, {ahi:.3}]"),
        ]);
    }
    out.push_str(&t3.render());
    out.push_str(
        "\nshape checks: delivered fraction monotone in slack and flat in n; the \
         aggregate path is anchored to the exact engine at the overlap points. \
         All intervals are trial-level — a batch class shares one estimate, so \
         per-job outcomes cluster by trial at every n here.\n",
    );

    rb.check(
        "slack_shape_monotone",
        monotone_ok,
        "delivered fraction non-decreasing in slack (trial-level noise allowance)",
    )
    .check(
        "ample_slack_delivers",
        top_slack > 0.85,
        format!("delivered at 1/γ = 16: {top_slack:.3}"),
    );
    for (proto, spread) in &spreads {
        // 0.2 allowance: the small-n end of the sweep still sees rare
        // whole-class estimate catastrophes that lift the trial-level
        // spread; they vanish as n grows, which is itself part of the
        // shape being measured.
        rb.check(
            &format!("fraction_flat_in_n_{}", proto.name()),
            *spread < 0.2,
            format!("{} mean spread over scale sweep {spread:.3}", proto.name()),
        );
    }
    rb.check(
        "aggregate_anchored_to_exact",
        anchors_ok,
        "trial-level means within 4 SE and good-trial Wilson z=4 intervals overlap",
    );
    rb.finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_aggregate_cell_delivers_at_ample_slack() {
        let c = run_cell(Proto::Aligned, true, 2_000, 16, 4, 0xE20);
        assert!(c.mean() > 0.9, "{}", c.mean());
    }

    #[test]
    fn punctual_aggregate_cell_delivers_at_ample_slack() {
        let c = run_cell(Proto::Punctual, true, 500, 16, 4, 0xE21);
        assert!(c.mean() > 0.8, "{}", c.mean());
    }

    #[test]
    fn exact_and_aggregate_anchor_cells_agree() {
        let ce = run_cell(Proto::Aligned, false, 1_000, 8, 10, 0xE22);
        let ca = run_cell(Proto::Aligned, true, 1_000, 8, 10, 0xE23);
        let tol = (4.0 * (ce.se() + ca.se())).max(0.06);
        assert!(
            (ce.mean() - ca.mean()).abs() <= tol,
            "exact {:.3}±{:.3} vs aggregate {:.3}±{:.3}",
            ce.mean(),
            ce.se(),
            ca.mean(),
            ca.se()
        );
        let (elo, ehi) = ce.good_trials().wilson(4.0);
        let (alo, ahi) = ca.good_trials().wilson(4.0);
        assert!(elo <= ahi && alo <= ehi, "good-trial rates diverge");
    }

    #[test]
    fn windows_scale_with_round_structure() {
        assert_eq!(aligned_window(1_000, 8), 8192);
        // Round structure ×10 plus the class-boundary factor ×2 on top of
        // the pow2 density window.
        assert!(punctual_window(1_000, 8) >= 2 * ROUND_LEN * 8192);
    }
}
